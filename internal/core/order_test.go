package core

import (
	"math"
	"testing"

	"parulel/internal/programs"
	"parulel/internal/wm"
	"parulel/internal/workload"
)

// TestOrderNaNSettlesPairwise: Inf - Inf makes a NaN, which the relational
// operators find tied with every number while `=` finds it equal to none,
// so a group holding one is no preorder and is settled by evaluating the
// test on every pair. Under `<=` the NaN and 1 redact each other and 1
// redacts 2: nothing fires. Under `<` the NaN and 1 redact nothing and 1
// redacts 2: the NaN and 1 fire, then 2.
func TestOrderNaNSettlesPairwise(t *testing.T) {
	for _, tc := range []struct {
		op                          string
		firings, redactions, cycles int
	}{
		{"<=", 1, 3, 2},
		{"<", 4, 1, 3},
	} {
		prog := compileOK(t, `
(literalize seed x)
(literalize item k n)
(literalize out n)
(rule spawn (seed ^x <x>)
  -->
  (make item ^k 1 ^n (- (* <x> <x>) (* <x> <x>)))
  (make item ^k 1 ^n 1)
  (make item ^k 1 ^n 2)
  (remove 1))
(rule take (item ^k <k> ^n <n>) --> (make out ^n <n>) (remove 1))
(metarule lowest
  [<i> (take ^k <k> ^n <a>)]
  [<j> (take ^k <k> ^n <b>)]
  (test (`+tc.op+` <a> <b>))
-->
  (redact <j>))
(wm (seed ^x 1e200))
`)
		if len(prog.Meta.Orders) != 1 {
			t.Fatalf("%s: lowest compiled to %d orders", tc.op, len(prog.Meta.Orders))
		}
		for _, m := range redactionMatchers {
			e := New(prog, Options{Matcher: m.factory, MaxCycles: 16})
			sawNaN := false
			for cycle := 1; ; cycle++ {
				eligible, survivors, progress := observeStep(t, e)
				want, _, _ := newOracle(prog).run(eligible)
				if !sameInstantiations(want, survivors) {
					t.Fatalf("%s %s cycle %d: fired %v of %v, the oracle keeps %v", tc.op, m.name, cycle, survivors, eligible, want)
				}
				for _, in := range eligible {
					if in.Rule.Name == "take" {
						v := in.WMEs[0].Fields[1]
						sawNaN = sawNaN || v.Kind == wm.KindFloat && math.IsNaN(v.F)
					}
				}
				e.meta.sync() // the survivors' images leave
				checkMetaLevel(t, e.meta, checkTable(t, e))
				if !progress {
					break
				}
			}
			res := e.CurrentResult()
			if !sawNaN || res.Firings != tc.firings || res.Redactions != tc.redactions || res.Cycles != tc.cycles {
				t.Errorf("%s %s: NaN seen %v, %+v; want %d firings, %d redactions in %d cycles", tc.op, m.name, sawNaN, res, tc.firings, tc.redactions, tc.cycles)
			}
			for _, p := range e.RuleProfiles() {
				if p.Rule == "lowest" && (p.Probes == 0 || p.MatchNS <= 0) {
					t.Errorf("%s %s: the order's row %+v: no comparisons counted, or no time", tc.op, m.name, p)
				}
			}
		}
	}
}

// TestDominanceProgramsRunNoJoin: every meta-rule of alexsys, manners and
// quickstart is a dominance meta-rule, so their meta levels plan no join,
// hold no seeded memory, give no image a member to join with and extend
// no partial tuple, however long they run.
func TestDominanceProgramsRunNoJoin(t *testing.T) {
	for _, tc := range []struct {
		prog string
		load func(workload.Inserter) error
	}{
		{programs.Alexsys, func(i workload.Inserter) error { return workload.Alexsys(i, 20, 16, 1) }},
		{programs.Manners, func(i workload.Inserter) error { return workload.Manners(i, 16, 3, 8, 1) }},
		{programs.Quickstart, func(i workload.Inserter) error { return workload.People(i, 20) }},
	} {
		prog, err := programs.Load(tc.prog)
		if err != nil {
			t.Fatal(err)
		}
		if len(prog.Meta.Patterns) != 0 || len(prog.Meta.Orders) != len(prog.MetaRules) {
			t.Fatalf("%s: %d join patterns, %d orders of %d meta-rules", tc.prog, len(prog.Meta.Patterns), len(prog.Meta.Orders), len(prog.MetaRules))
		}
		e := New(prog, Options{MaxCycles: 1 << 12})
		if err := tc.load(e); err != nil {
			t.Fatal(err)
		}
		images := 0
		for progress := true; progress; {
			if progress, err = e.Step(); err != nil {
				t.Fatal(err)
			}
			for _, img := range checkTable(t, e) {
				images++
				if img.mb != nil {
					t.Fatalf("%s: image %v has a member of the join memories", tc.prog, img.in)
				}
			}
			if len(e.meta.w.Mems) != 0 {
				t.Fatalf("%s: the meta level holds %d seeded memories", tc.prog, len(e.meta.w.Mems))
			}
		}
		redacted := false
		for _, p := range e.meta.ruleProfiles() {
			if p.Tokens != 0 || p.Probes == 0 {
				t.Errorf("%s: meta row %+v: a partial tuple extended, or no comparison made", tc.prog, p)
			}
			redacted = redacted || p.Insts > 0
		}
		if images == 0 || !redacted || e.CurrentResult().Redactions == 0 {
			t.Errorf("%s: %d images, %+v: the test measures nothing", tc.prog, images, e.CurrentResult())
		}
	}
}
