// Conway's Game of Life written as PARULEL rules: every cell's next
// state is one rule instantiation, a whole generation fires in two
// engine cycles, and the engine's work tracks the number of *changing*
// cells, not the grid size. Run with -show to print each board.
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"parulel"
	"parulel/internal/workload"
)

func board(eng *parulel.Engine, w, h int) string {
	live := workload.LifeBoard(eng.Facts("cell"))
	var b strings.Builder
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if live[[2]int{x, y}] {
				b.WriteString("# ")
			} else {
				b.WriteString(". ")
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

func main() {
	log.SetFlags(0)
	w := flag.Int("w", 12, "grid width")
	h := flag.Int("h", 10, "grid height")
	gens := flag.Int("gens", 8, "generations to run")
	show := flag.Bool("show", true, "print each generation")
	pattern := flag.String("pattern", "glider", "glider, blinker or random")
	seed := flag.Int64("seed", 1, "seed for -pattern random")
	flag.Parse()

	var start [][2]int
	switch *pattern {
	case "glider":
		start = workload.LifeGlider(1, 1)
	case "blinker":
		start = workload.LifeBlinker(*w/2, *h/2)
	case "random":
		start = workload.LifeRandom(*w, *h, 0.3, *seed)
	default:
		log.Fatalf("unknown pattern %q", *pattern)
	}

	prog, err := parulel.LoadBuiltin(parulel.Life)
	if err != nil {
		log.Fatal(err)
	}

	// Step one generation at a time so each board can be printed: run a
	// fresh engine to generation g (the engine is deterministic, so this
	// is equivalent to snapshotting one long run).
	for g := 0; g <= *gens; g++ {
		eng := parulel.NewEngine(prog, parulel.Config{MaxCycles: 10 * (*gens + 2)})
		if err := workload.LifeGrid(eng, *w, *h, start, g); err != nil {
			log.Fatal(err)
		}
		res, err := eng.Run()
		if err != nil {
			log.Fatal(err)
		}
		if *show {
			fmt.Printf("generation %d  (cycles=%d firings=%d)\n%s\n", g, res.Cycles, res.Firings, board(eng, *w, *h))
		} else if g == *gens {
			fmt.Printf("after %d generations: cycles=%d firings=%d, %d live cells\n",
				g, res.Cycles, res.Firings, len(workload.LifeBoard(eng.Facts("cell"))))
		}
	}
}
