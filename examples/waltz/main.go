// Waltz line labeling over generated block scenes, run under both the
// PARULEL engine and the OPS5 baseline. The point of the comparison: the
// parallel engine's cycle count is flat in the scene size (every cube's
// constraint propagation proceeds simultaneously) while the baseline needs
// one cycle per rule firing.
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
	cubes := flag.Int("cubes", 100, "number of cubes in the scene")
	flag.Parse()

	fmt.Printf("labeling a %d-cube scene (%d junctions, %d edges)\n\n",
		*cubes, *cubes*7, *cubes*9)

	for _, kind := range []parulel.EngineKind{parulel.Parulel, parulel.OPS5LEX} {
		prog, err := parulel.LoadBuiltin(parulel.Waltz)
		if err != nil {
			log.Fatal(err)
		}
		eng := parulel.NewEngine(prog, parulel.Config{
			Engine:    kind,
			MaxCycles: 100 + *cubes*40,
		})
		if err := workload.WaltzScene(eng, *cubes); err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		res, err := eng.Run()
		if err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(start)

		labeled := eng.FactCount("label")
		done := eng.FactCount("jdone")
		ok := "OK"
		if labeled != *cubes*9 || done != *cubes*7 {
			ok = "INCOMPLETE"
		}
		fmt.Printf("%-8s cycles=%-6d firings=%-7d labels=%-6d junctions-done=%-6d %s  (%v)\n",
			kind, res.Cycles, res.Firings, labeled, done, ok, elapsed.Round(time.Millisecond))
	}
}
