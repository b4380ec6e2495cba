// Parallel transitive closure of a layered DAG — set-oriented firing at
// its clearest: PARULEL derives every one-step path extension in a single
// cycle, so the cycle count tracks the graph's depth while the sequential
// baseline's tracks the (much larger) number of derived paths.
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
	layers := flag.Int("layers", 8, "DAG layers")
	width := flag.Int("width", 6, "nodes per layer")
	fanout := flag.Int("fanout", 3, "arcs per node to the next layer")
	seed := flag.Int64("seed", 1, "graph seed")
	flag.Parse()

	arcs := (*layers - 1) * *width * min(*fanout, *width)
	fmt.Printf("closing a %d×%d layered DAG (%d arcs, depth %d)\n\n",
		*layers, *width, arcs, *layers-1)

	var paths int
	for _, kind := range []parulel.EngineKind{parulel.Parulel, parulel.OPS5LEX} {
		prog, err := parulel.LoadBuiltin(parulel.Closure)
		if err != nil {
			log.Fatal(err)
		}
		eng := parulel.NewEngine(prog, parulel.Config{
			Engine:    kind,
			MaxCycles: 0,
		})
		if err := workload.LayeredDAG(eng, *layers, *width, *fanout, *seed); err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		res, err := eng.Run()
		if err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(start)
		n := eng.FactCount("path")
		if paths == 0 {
			paths = n
		} else if n != paths {
			log.Fatalf("engines disagree on closure size: %d vs %d", paths, n)
		}
		fmt.Printf("%-8s cycles=%-6d firings=%-7d paths=%-6d (%v)\n",
			kind, res.Cycles, res.Firings, n, elapsed.Round(time.Millisecond))
	}
	fmt.Printf("\nboth engines derive the same %d paths; PARULEL needs ~depth cycles,\n", paths)
	fmt.Println("the baseline needs one cycle per path.")
}
