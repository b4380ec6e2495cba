// ALEXSYS-style mortgage-pool allocation: the conflict-heavy workload
// PARULEL's redaction meta-rules were designed for. The example runs the
// allocation twice — with meta-rules (conflict-free parallel awards) and
// without (write conflicts and over-allocation) — and prints both
// outcomes.
package main

import (
	"flag"
	"fmt"
	"log"

	"parulel"
	"parulel/internal/workload"
)

func main() {
	log.SetFlags(0)
	pools := flag.Int("pools", 200, "number of mortgage pools")
	orders := flag.Int("orders", 150, "number of buy orders")
	seed := flag.Int64("seed", 1, "workload seed")
	flag.Parse()

	prog, err := parulel.LoadBuiltin(parulel.Alexsys)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("allocating %d pools to %d orders\n\n", *pools, *orders)

	run := func(label string, p *parulel.Program) {
		eng := parulel.NewEngine(p, parulel.Config{MaxCycles: 10000})
		if err := workload.Alexsys(eng, *pools, *orders, *seed); err != nil {
			log.Fatal(err)
		}
		res, err := eng.Run()
		if err != nil {
			log.Fatal(err)
		}
		sold, overAllocated := 0, 0
		orderPools := map[int64]int{}
		for _, w := range eng.Facts("pool") {
			if w.Fields[2] == parulel.Sym("sold") {
				sold++
				orderPools[w.Fields[3].I]++
			}
		}
		for _, n := range orderPools {
			if n > 1 {
				overAllocated++
			}
		}
		fmt.Printf("%-16s cycles=%-4d firings=%-5d redactions=%-5d conflicts=%-4d sold=%-4d over-allocated-orders=%d\n",
			label, res.Cycles, res.Firings, res.Redactions, res.WriteConflicts, sold, overAllocated)
	}

	run("with meta-rules", prog)
	noMeta, err := prog.WithoutMetaRules()
	if err != nil {
		log.Fatal(err)
	}
	run("without", noMeta)

	fmt.Println("\nwith meta-rules every award is conflict-free; without them parallel")
	fmt.Println("firing collides on shared pools/orders (the engine resolves collisions")
	fmt.Println("deterministically but counts them — PARULEL's case for programmable")
	fmt.Println("conflict resolution).")
}
