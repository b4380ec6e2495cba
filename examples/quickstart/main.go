// Quickstart: load the embedded greeting program, add people, run the
// PARULEL engine, and inspect the results — the smallest end-to-end use
// of the public API.
package main

import (
	"fmt"
	"log"
	"os"

	"parulel"
)

func main() {
	log.SetFlags(0)
	prog, err := parulel.LoadBuiltin(parulel.Quickstart)
	if err != nil {
		log.Fatal(err)
	}

	eng := parulel.NewEngine(prog, parulel.Config{
		Output:    os.Stdout, // (write …) actions print here
		MaxCycles: 1000,
	})

	// Facts can come from (wm …) blocks in the source or be inserted
	// programmatically:
	people := []struct {
		name string
		age  int64
	}{
		{"ada", 36}, {"grace", 45}, {"alan", 41}, {"kid", 9}, {"teen", 17},
	}
	for _, p := range people {
		if _, err := eng.Insert("person", map[string]parulel.Value{
			"name": parulel.Sym(p.name),
			"age":  parulel.Int(p.age),
		}); err != nil {
			log.Fatal(err)
		}
	}

	res, err := eng.Run()
	if err != nil {
		log.Fatal(err)
	}

	tally := eng.Facts("tally")
	fmt.Printf("\ngreeted %s adults in %d cycles (%d rule firings, %d redactions)\n",
		tally[0].Fields[0], res.Cycles, res.Firings, res.Redactions)
	fmt.Printf("phase breakdown: match %.0f%%  redact %.0f%%  fire %.0f%%  apply %.0f%%\n",
		res.MatchPct, res.RedactPct, res.FirePct, res.ApplyPct)
}
