// Combinational circuit evaluation as PARULEL rules: every gate whose
// inputs are driven fires in the same cycle, so evaluation takes one
// cycle per circuit level; contended nets (two drivers on one wire) are
// arbitrated by a redaction meta-rule. The run is checked against a
// plain-Go reference evaluator.
package main

import (
	"flag"
	"fmt"
	"log"
	"reflect"
	"time"

	"parulel"
	"parulel/internal/workload"
)

func main() {
	log.SetFlags(0)
	width := flag.Int("width", 16, "wires per level")
	depth := flag.Int("depth", 24, "circuit levels")
	contended := flag.Bool("contended", true, "generate contended nets (bus arbitration)")
	seed := flag.Int64("seed", 1, "netlist seed")
	flag.Parse()

	c := workload.GenCircuit(*width, *depth, *contended, *seed)
	fmt.Printf("evaluating %v\n\n", c)

	for _, kind := range []parulel.EngineKind{parulel.Parulel, parulel.OPS5LEX} {
		prog, err := parulel.LoadBuiltin(parulel.Circuit)
		if err != nil {
			log.Fatal(err)
		}
		eng := parulel.NewEngine(prog, parulel.Config{
			Engine:    kind,
			MaxCycles: 100000,
		})
		if err := c.Insert(eng); err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		res, err := eng.Run()
		if err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(start)
		got := workload.Wires(eng.Facts("wire"))
		status := "MATCHES reference"
		if kind == parulel.Parulel {
			if !reflect.DeepEqual(got, c.Reference()) {
				status = "DIVERGED from reference"
			}
		} else {
			// OPS5 ignores the arbitration meta-rule; on contended nets its
			// first-come winners may differ, which is the point.
			status = fmt.Sprintf("%d wires driven", len(got))
		}
		fmt.Printf("%-8s cycles=%-6d firings=%-6d redactions=%-5d %s (%v)\n",
			kind, res.Cycles, res.Firings, res.Redactions, status, elapsed.Round(time.Millisecond))
	}
	fmt.Printf("\ncycles track circuit depth (%d) under PARULEL, gate count (%d) under OPS5.\n",
		c.Depth, len(c.Gates))
}
