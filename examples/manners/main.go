// Miss Manners: the join-heavy seating benchmark. Candidate extensions
// (opposite sex, shared hobby, unseated) form a large conflict set every
// cycle; a redaction meta-rule keeps exactly one — PARULEL's declarative
// replacement for the OPS5 original's MEA-driven search control.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"parulel"
	"parulel/internal/workload"
)

func main() {
	log.SetFlags(0)
	guests := flag.Int("guests", 24, "number of guests (even)")
	hobbies := flag.Int("hobbies", 3, "extra hobbies per guest")
	hobbyCount := flag.Int("hobby-count", 8, "size of the hobby universe")
	seed := flag.Int64("seed", 1, "party seed")
	flag.Parse()

	prog, err := parulel.LoadBuiltin(parulel.Manners)
	if err != nil {
		log.Fatal(err)
	}
	eng := parulel.NewEngine(prog, parulel.Config{
		MaxCycles: 100 * (*guests + 2),
	})
	if err := workload.Manners(eng, *guests, *hobbies, *hobbyCount, *seed); err != nil {
		log.Fatal(err)
	}

	start := time.Now()
	res, err := eng.Run()
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	fmt.Printf("seated %d guests in %d cycles (%d firings, %d candidate extensions redacted) in %v\n\n",
		*guests, res.Cycles, res.Firings, res.Redactions, elapsed.Round(time.Millisecond))
	fmt.Println("seating order:")
	names := make(map[int64]string)
	for _, s := range eng.Facts("seating") {
		names[s.Fields[0].I] = s.Fields[1].S
	}
	for pos := int64(1); pos <= int64(*guests); pos++ {
		fmt.Printf("  seat %2d: %s\n", pos, names[pos])
	}
	fmt.Printf("\nphases: match %.1f%%  redact %.1f%%  fire %.1f%%  apply %.1f%%\n",
		res.MatchPct, res.RedactPct, res.FirePct, res.ApplyPct)
	fmt.Println("seating is inherently serial (one guest per cycle); the cost that")
	fmt.Println("grows with the guest list is the candidate JOIN and its redaction.")
}
