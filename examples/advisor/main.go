// Copy-and-constrain advisor workflow: run a program once to observe
// which rule dominates the conflict set, ask the advisor what to split,
// apply the split, and compare the match-work distribution before and
// after — the PARULEL tuning loop for programs whose parallelism is
// capped by a single hot rule.
package main

import (
	"flag"
	"fmt"
	"log"

	"parulel"
	"parulel/internal/workload"
)

const hotProgram = `
(literalize task id region cost)
(literalize res  id region cap)
(literalize hit  task res)
(rule assign
  (task ^id <t> ^region <r> ^cost <c>)
  (res  ^id <s> ^region <r> ^cap <k>)
  (test (>= <k> <c>))
-->
  (make hit ^task <t> ^res <s>))
(rule audit
  (hit ^task <t> ^res <s>)
-->
  (make task ^id <t>))
`

func main() {
	log.SetFlags(0)
	regions := flag.Int("regions", 16, "number of regions")
	per := flag.Int("per-region", 12, "tasks and resources per region")
	workers := flag.Int("workers", 8, "parallel workers")
	split := flag.Int("split", 8, "copy-and-constrain factor")
	flag.Parse()

	prog, err := parulel.Parse(hotProgram)
	if err != nil {
		log.Fatal(err)
	}

	// 1. Observe: run once and collect per-rule activity.
	probe := parulel.NewEngine(prog, parulel.Config{Workers: *workers, MaxCycles: 100})
	if err := workload.HotRuleFacts(probe, *regions, *per, 1); err != nil {
		log.Fatal(err)
	}
	if _, err := probe.Run(); err != nil {
		log.Fatal(err)
	}
	activity := probe.RuleActivity()
	fmt.Println("observed rule activity (instantiations entering the conflict set):")
	for _, r := range prog.Rules() {
		fmt.Printf("  %-8s %d\n", r, activity[r])
	}

	// 2. Advise.
	adv, err := prog.Advise(activity)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nadvice: split rule %q on variable <%s> (activity %d)\n\n", adv.Rule, adv.Variable, adv.Activity)

	// 3. Apply and compare.
	splitProg, err := prog.SplitRule(adv.Rule, adv.Variable, *split)
	if err != nil {
		log.Fatal(err)
	}
	for label, p := range map[string]*parulel.Program{"original": prog, "split": splitProg} {
		eng := parulel.NewEngine(p, parulel.Config{Workers: *workers, MaxCycles: 100})
		if err := workload.HotRuleFacts(eng, *regions, *per, 1); err != nil {
			log.Fatal(err)
		}
		if _, err := eng.Run(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-9s rules=%-3d hits=%-6d\n", label, len(p.Rules()), eng.FactCount("hit"))
	}
	fmt.Printf("\nthe split program distributes rule %q over %d workers; run\n", adv.Rule, *workers)
	fmt.Println("`go test -run '^$' -bench 'E3$' .` for the measured scaling by split factor.")
}
