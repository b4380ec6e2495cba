// Package bench implements the experiment harness that regenerates every
// table and figure of the reconstructed evaluation (DESIGN.md §3,
// EXPERIMENTS.md). Each experiment prints the same rows/series the paper
// format calls for; cmd/parbench drives them from the command line and
// the root bench_test.go wraps the same code paths in testing.B
// benchmarks.
package bench

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"parulel/internal/compile"
	"parulel/internal/copycon"
	"parulel/internal/core"
	"parulel/internal/lang"
	"parulel/internal/match"
	"parulel/internal/match/rete"
	"parulel/internal/match/treat"
	"parulel/internal/ops5"
	"parulel/internal/programs"
	"parulel/internal/reorder"
	"parulel/internal/wm"
	"parulel/internal/workload"
)

// Experiments maps experiment ids to their runners.
var Experiments = map[string]func(w io.Writer, quick bool) error{
	"e1":  E1,
	"e2":  E2,
	"e3":  E3,
	"e4":  E4,
	"e5":  E5,
	"e6":  E6,
	"e9":  E9,
	"e10": E10,
	"e11": E11,
	"e13": E13,
	"e14": E14,
}

// Order lists experiment ids in presentation order. (e12 is the serving
// benchmark, driven separately by `parbench -serve`; e7 and e8 ablated the
// per-cycle redaction joiner and were retired with it — EXPERIMENTS.md
// keeps their last numbers.)
var Order = []string{"e1", "e2", "e3", "e4", "e5", "e6", "e9", "e10", "e11", "e13", "e14"}

// loader populates an engine's working memory.
type loader func(ins workload.Inserter) error

// workloadSpec names one benchmark workload at a size.
type workloadSpec struct {
	name string
	prog string // embedded program name
	load loader
}

// suite returns the three standard workloads at full or quick size.
func suite(quick bool) []workloadSpec {
	if quick {
		return []workloadSpec{
			{"waltz(10)", programs.Waltz, func(i workload.Inserter) error { return workload.WaltzScene(i, 10) }},
			{"alexsys(40x30)", programs.Alexsys, func(i workload.Inserter) error { return workload.Alexsys(i, 40, 30, 1) }},
			{"closure(4x4x2)", programs.Closure, func(i workload.Inserter) error { return workload.LayeredDAG(i, 4, 4, 2, 1) }},
			{"manners(12)", programs.Manners, func(i workload.Inserter) error { return workload.Manners(i, 12, 2, 5, 1) }},
			{"circuit(8x10)", programs.Circuit, func(i workload.Inserter) error {
				return workload.GenCircuit(8, 10, true, 1).Insert(i)
			}},
		}
	}
	return []workloadSpec{
		{"waltz(60)", programs.Waltz, func(i workload.Inserter) error { return workload.WaltzScene(i, 60) }},
		{"alexsys(150x100)", programs.Alexsys, func(i workload.Inserter) error { return workload.Alexsys(i, 150, 100, 1) }},
		{"closure(7x5x3)", programs.Closure, func(i workload.Inserter) error { return workload.LayeredDAG(i, 7, 5, 3, 1) }},
		{"manners(32)", programs.Manners, func(i workload.Inserter) error { return workload.Manners(i, 32, 3, 8, 1) }},
		{"circuit(24x40)", programs.Circuit, func(i workload.Inserter) error {
			return workload.GenCircuit(24, 40, true, 1).Insert(i)
		}},
	}
}

// newCore builds a PARULEL engine over a loaded workload.
func newCore(progName string, load loader, workers int) (*core.Engine, error) {
	prog, err := programs.Load(progName)
	if err != nil {
		return nil, err
	}
	e := core.New(prog, core.Options{Workers: workers, MaxCycles: 1 << 20})
	if err := load(e); err != nil {
		return nil, err
	}
	return e, nil
}

// newOPS5 builds a baseline engine over a loaded workload.
func newOPS5(progName string, load loader) (*ops5.Engine, error) {
	prog, err := programs.Load(progName)
	if err != nil {
		return nil, err
	}
	e := ops5.New(prog, ops5.Options{MaxCycles: 1 << 24})
	if err := load(e); err != nil {
		return nil, err
	}
	return e, nil
}

// minTime runs setup+run `reps` times and returns the fastest run-phase
// duration (setup excluded).
func minTime(reps int, setup func() (func() error, error)) (time.Duration, error) {
	best := time.Duration(0)
	for i := 0; i < reps; i++ {
		run, err := setup()
		if err != nil {
			return 0, err
		}
		start := time.Now()
		if err := run(); err != nil {
			return 0, err
		}
		d := time.Since(start)
		if best == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

func reps(quick bool) int {
	if quick {
		return 1
	}
	return 3
}

// E1 — Table 1: PARULEL vs OPS5, cycles to quiescence and total firings.
// PARULEL's cycle count tracks the workload's dataflow depth; the
// baseline's tracks total firings, so the ratio grows with problem size.
func E1(w io.Writer, quick bool) error {
	fmt.Fprintln(w, "E1 (Table 1) — parallel vs sequential firing: cycles to quiescence")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tengine\tcycles\tfirings\tcycle-ratio")
	for _, spec := range suite(quick) {
		pe, err := newCore(spec.prog, spec.load, 4)
		if err != nil {
			return err
		}
		pres, err := pe.Run()
		if err != nil {
			return err
		}
		se, err := newOPS5(spec.prog, spec.load)
		if err != nil {
			return err
		}
		sres, err := se.Run()
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%s\tPARULEL\t%d\t%d\t\n", spec.name, pres.Cycles, pres.Firings)
		fmt.Fprintf(tw, "%s\tOPS5-LEX\t%d\t%d\t%.1fx\n", spec.name, sres.Cycles, sres.Firings,
			float64(sres.Cycles)/float64(pres.Cycles))
	}
	return tw.Flush()
}

// e2Workloads: E2 needs rule-level parallelism to distribute, so it uses
// the many-rule waltz program and a 16-way copy-and-constrained hot rule.
func e2Workloads(quick bool) ([]workloadSpec, error) {
	cubes, regions, per := 250, 64, 40
	if quick {
		cubes, regions, per = 30, 16, 10
	}
	specs := []workloadSpec{
		{fmt.Sprintf("waltz(%d)", cubes), programs.Waltz,
			func(i workload.Inserter) error { return workload.WaltzScene(i, cubes) }},
	}
	_ = regions
	_ = per
	return specs, nil
}

// splitHotRule compiles the hot-rule program split k ways on the region
// variable.
func splitHotRule(k int) (*compile.Program, error) {
	ast, err := lang.Parse(workload.HotRuleProgram)
	if err != nil {
		return nil, err
	}
	if k > 1 {
		ast, err = copycon.Split(ast, "assign", "r", k)
		if err != nil {
			return nil, err
		}
	}
	return compile.Compile(ast)
}

// timedRun constructs an engine `reps` times, runs it, and returns the
// fastest wall time plus the match/fire work-distribution potentials of
// the last run (sum of per-worker busy time over its maximum — the
// speedup a perfectly parallel host could extract from that phase).
func timedRun(reps int, mk func() (*core.Engine, error)) (wall time.Duration, matchPot, firePot float64, err error) {
	for i := 0; i < reps; i++ {
		var e *core.Engine
		e, err = mk()
		if err != nil {
			return
		}
		start := time.Now()
		if _, err = e.Run(); err != nil {
			return
		}
		d := time.Since(start)
		if wall == 0 || d < wall {
			wall = d
		}
		mWork, fWork := e.WorkerWork()
		matchPot = potential(mWork)
		firePot = potential(fWork)
	}
	return
}

// potential computes sum/max of per-worker busy times (1.0 = fully
// serial; k = perfectly balanced over k busy workers).
func potential(work []time.Duration) float64 {
	var sum, max time.Duration
	for _, d := range work {
		sum += d
		if d > max {
			max = d
		}
	}
	if max == 0 {
		return 1
	}
	return float64(sum) / float64(max)
}

// E2 — Figure 1: speedup vs worker count. On a multi-core host the wall
// column shows the Amdahl-shaped curve directly; the match-pot / fire-pot
// columns report the work-distribution potential (sum/max of per-worker
// busy time), which exposes the same shape even on a single-core host
// where wall-clock speedup physically cannot appear.
func E2(w io.Writer, quick bool) error {
	fmt.Fprintln(w, "E2 (Figure 1) — speedup vs workers (PARULEL engine)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tworkers\twall\twall-speedup\tmatch-pot\tfire-pot")

	workers := []int{1, 2, 4, 8}
	specs, err := e2Workloads(quick)
	if err != nil {
		return err
	}
	// Hot-rule split 16 ways: embarrassingly parallel match.
	regions, per := 64, 40
	if quick {
		regions, per = 16, 10
	}
	hotProg, err := splitHotRule(16)
	if err != nil {
		return err
	}

	type cfg struct {
		name string
		mk   func(workers int) (*core.Engine, error)
	}
	cfgs := []cfg{}
	for _, spec := range specs {
		spec := spec
		cfgs = append(cfgs, cfg{spec.name, func(workers int) (*core.Engine, error) {
			return newCore(spec.prog, spec.load, workers)
		}})
	}
	cfgs = append(cfgs, cfg{fmt.Sprintf("hotrule16(%dx%d)", regions, per), func(workers int) (*core.Engine, error) {
		e := core.New(hotProg, core.Options{Workers: workers, MaxCycles: 1 << 20})
		if err := workload.HotRuleFacts(e, regions, per, 1); err != nil {
			return nil, err
		}
		return e, nil
	}})

	for _, c := range cfgs {
		var base time.Duration
		for _, k := range workers {
			k := k
			wall, mPot, fPot, err := timedRun(reps(quick), func() (*core.Engine, error) { return c.mk(k) })
			if err != nil {
				return err
			}
			if k == 1 {
				base = wall
			}
			fmt.Fprintf(tw, "%s\t%d\t%v\t%.2fx\t%.2f\t%.2f\n",
				c.name, k, wall.Round(time.Microsecond), float64(base)/float64(wall), mPot, fPot)
		}
	}
	return tw.Flush()
}

// E3 — Table 2: copy-and-constrain. A single hot rule caps match
// parallelism at one worker-equivalent; splitting it k ways restores
// scaling at 8 workers.
func E3(w io.Writer, quick bool) error {
	fmt.Fprintln(w, "E3 (Table 2) — copy-and-constrain a hot rule (8 workers)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "split-k\trules\twall\twall-speedup\tmatch-pot")
	regions, per := 48, 48
	if quick {
		regions, per = 12, 12
	}
	var base time.Duration
	for _, k := range []int{1, 2, 4, 8} {
		prog, err := splitHotRule(k)
		if err != nil {
			return err
		}
		wall, mPot, _, err := timedRun(reps(quick), func() (*core.Engine, error) {
			e := core.New(prog, core.Options{Workers: 8, MaxCycles: 1 << 20})
			if err := workload.HotRuleFacts(e, regions, per, 1); err != nil {
				return nil, err
			}
			return e, nil
		})
		if err != nil {
			return err
		}
		if k == 1 {
			base = wall
		}
		fmt.Fprintf(tw, "%d\t%d\t%v\t%.2fx\t%.2f\n",
			k, len(prog.Rules), wall.Round(time.Microsecond), float64(base)/float64(wall), mPot)
	}
	return tw.Flush()
}

// E4 — Table 3: RETE vs TREAT on join-chain programs: additions-only
// build, then a churn phase of removals+re-additions, plus state sizes.
// RETE's beta memories pay off on deep chains; TREAT holds no beta state.
func E4(w io.Writer, quick bool) error {
	fmt.Fprintln(w, "E4 (Table 3) — RETE vs TREAT match cost and memory")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "depth\tmatcher\tbuild\tchurn\talpha\tbeta\tconflict-set")

	type shape struct{ depth, keys, copies int }
	shapes := []shape{{2, 150, 3}, {4, 40, 3}, {6, 14, 2}}
	if quick {
		shapes = []shape{{2, 40, 2}, {4, 12, 2}, {6, 6, 2}}
	}
	factories := []struct {
		name string
		f    match.Factory
	}{{"RETE", rete.New}, {"TREAT", treat.New}}

	for _, sh := range shapes {
		prog, err := compile.CompileSource(workload.JoinChainProgram(sh.depth))
		if err != nil {
			return err
		}
		facts := workload.JoinChainFacts(sh.keys, sh.depth, sh.copies, 1)
		tmpl := prog.Schema.MustLookup("rec")
		for _, f := range factories {
			var ms match.MemStats
			var build, churn time.Duration
			_, err := minTime(reps(quick), func() (func() error, error) {
				return func() error {
					m := f.f(prog.Rules)
					mem := wm.NewMemory(prog.Schema)
					start := time.Now()
					wmes := make([]*wm.WME, 0, len(facts))
					for _, fields := range facts {
						vec := make([]wm.Value, tmpl.Arity())
						for attr, v := range fields {
							idx, _ := tmpl.AttrIndex(attr)
							vec[idx] = v
						}
						wme := mem.InsertFields(tmpl, vec)
						wmes = append(wmes, wme)
						m.Apply(wm.Delta{Added: []*wm.WME{wme}})
					}
					b := time.Since(start)

					start = time.Now()
					// Churn: remove and re-add every 7th WME.
					for i := 0; i < len(wmes); i += 7 {
						old := wmes[i]
						mem.Remove(old.Time)
						nw := mem.InsertFields(old.Tmpl, old.Fields)
						m.Apply(wm.Delta{Removed: []*wm.WME{old}, Added: []*wm.WME{nw}})
						wmes[i] = nw
					}
					c := time.Since(start)
					if build == 0 || b < build {
						build = b
					}
					if churn == 0 || c < churn {
						churn = c
					}
					ms = m.MemStats()
					return nil
				}, nil
			})
			if err != nil {
				return err
			}
			fmt.Fprintf(tw, "%d\t%s\t%v\t%v\t%d\t%d\t%d\n",
				sh.depth, f.name, build.Round(time.Microsecond), churn.Round(time.Microsecond),
				ms.AlphaItems, ms.BetaTokens, ms.ConflictSet)
		}
	}
	return tw.Flush()
}

// E5 — Figure 2: cycle-phase breakdown (percent of wall time in match /
// redact / fire / apply) per workload on the PARULEL engine.
func E5(w io.Writer, quick bool) error {
	fmt.Fprintln(w, "E5 (Figure 2) — cycle-phase breakdown (PARULEL, 4 workers)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmatch%\tredact%\tfire%\tapply%\tcycles")
	for _, spec := range suite(quick) {
		e, err := newCore(spec.prog, spec.load, 4)
		if err != nil {
			return err
		}
		res, err := e.Run()
		if err != nil {
			return err
		}
		m, r, f, a := res.Stats.Breakdown()
		fmt.Fprintf(tw, "%s\t%.1f\t%.1f\t%.1f\t%.1f\t%d\n", spec.name, m, r, f, a, res.Cycles)
	}
	return tw.Flush()
}

// E9 — Table 7 (ablation): rule-to-worker partition strategy at 8
// workers. Results are identical by construction; what changes is the
// match load balance (match-pot = sum/max of per-worker busy time).
// Round-robin and LPT spread waltz's expensive propagation rules; block
// partitioning clusters them onto few workers.
func E9(w io.Writer, quick bool) error {
	fmt.Fprintln(w, "E9 (Table 7, ablation) — rule partition strategy (8 workers)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tstrategy\twall\tmatch-pot\tfire-pot")
	cubes := 120
	if quick {
		cubes = 20
	}
	for _, strategy := range []core.Partition{core.PartitionRoundRobin, core.PartitionBlock, core.PartitionLPT} {
		wall, mPot, fPot, err := timedRun(reps(quick), func() (*core.Engine, error) {
			prog, err := programs.Load(programs.Waltz)
			if err != nil {
				return nil, err
			}
			e := core.New(prog, core.Options{Workers: 8, MaxCycles: 1 << 20, Partition: strategy})
			if err := workload.WaltzScene(e, cubes); err != nil {
				return nil, err
			}
			return e, nil
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "waltz(%d)\t%v\t%v\t%.2f\t%.2f\n",
			cubes, strategy, wall.Round(time.Microsecond), mPot, fPot)
	}
	return tw.Flush()
}

// badJoinOrder is a deliberately badly ordered rule: the unselective
// item×item cross-product joins before the highly selective anchor.
const badJoinOrder = `
(literalize item   g v)
(literalize anchor id g h)
(literalize hit    x y)
(rule cross
  (item ^g <x>)
  (item ^g <y>)
  (anchor ^id 7 ^g <x> ^h <y>)
-->
  (make hit ^x <x> ^y <y>))
`

// E10 — Table 8 (ablation): static join-ordering (most-constrained-first
// condition-element reordering). The badly ordered source builds an
// item×item cross product in the beta network; the optimizer hoists the
// constant-constrained anchor element to the front.
func E10(w io.Writer, quick bool) error {
	fmt.Fprintln(w, "E10 (Table 8, ablation) — join-order optimization")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "variant\twall\tbeta-tokens")
	items := 400
	if quick {
		items = 120
	}
	for _, optimized := range []bool{false, true} {
		ast, err := lang.Parse(badJoinOrder)
		if err != nil {
			return err
		}
		if optimized {
			ast = reorder.Program(ast)
		}
		prog, err := compile.Compile(ast)
		if err != nil {
			return err
		}
		var beta int
		d, err := minTime(reps(quick), func() (func() error, error) {
			return func() error {
				m := rete.New(prog.Rules)
				mem := wm.NewMemory(prog.Schema)
				itemT := prog.Schema.MustLookup("item")
				for i := 0; i < items; i++ {
					wme := mem.InsertFields(itemT, []wm.Value{wm.Int(int64(i % 3)), wm.Int(int64(i))})
					m.Apply(wm.Delta{Added: []*wm.WME{wme}})
				}
				anchorT := prog.Schema.MustLookup("anchor")
				wme := mem.InsertFields(anchorT, []wm.Value{wm.Int(7), wm.Int(1), wm.Int(2)})
				m.Apply(wm.Delta{Added: []*wm.WME{wme}})
				beta = m.MemStats().BetaTokens
				return nil
			}, nil
		})
		if err != nil {
			return err
		}
		label := "source-order"
		if optimized {
			label = "reordered"
		}
		fmt.Fprintf(tw, "%s\t%v\t%d\n", label, d.Round(time.Microsecond), beta)
	}
	return tw.Flush()
}

// E11 — Table 9 (ablation): the match layer's equality hash-join indexes
// on/off, for both matchers. With the index, a join or negative node
// probes only the alpha/beta bucket holding its equality-test value;
// without it, every activation scans the whole opposite memory. The gap
// tracks memory sizes, so it is widest on the join-heavy workloads
// (waltz's edge propagation, circuit's wire fan-out under TREAT).
func E11(w io.Writer, quick bool) error {
	fmt.Fprintln(w, "E11 (Table 9, ablation) — match-layer hash-join index on/off")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmatcher\tindex\twall\tmatch-share\tspeedup")

	cubes, cw, cd := 60, 16, 24
	if quick {
		cubes, cw, cd = 10, 8, 10
	}
	specs := []workloadSpec{
		{fmt.Sprintf("waltz(%d)", cubes), programs.Waltz,
			func(i workload.Inserter) error { return workload.WaltzScene(i, cubes) }},
		{fmt.Sprintf("circuit(%dx%d)", cw, cd), programs.Circuit,
			func(i workload.Inserter) error { return workload.GenCircuit(cw, cd, true, 1).Insert(i) }},
	}
	factories := []struct {
		name string
		mk   func(disable bool) match.Factory
	}{
		{"RETE", func(disable bool) match.Factory { return rete.Factory(rete.Options{DisableJoinIndex: disable}) }},
		{"TREAT", func(disable bool) match.Factory { return treat.Factory(treat.Options{DisableJoinIndex: disable}) }},
	}
	for _, spec := range specs {
		for _, f := range factories {
			var off time.Duration
			for _, disable := range []bool{true, false} {
				prog, err := programs.Load(spec.prog)
				if err != nil {
					return err
				}
				var matchPct float64
				d, err := minTime(reps(quick), func() (func() error, error) {
					e := core.New(prog, core.Options{
						Workers: 4, MaxCycles: 1 << 20,
						Matcher: f.mk(disable),
					})
					if err := spec.load(e); err != nil {
						return nil, err
					}
					return func() error {
						res, err := e.Run()
						if err == nil {
							matchPct, _, _, _ = res.Stats.Breakdown()
						}
						return err
					}, nil
				})
				if err != nil {
					return err
				}
				label, speedup := "off", ""
				if disable {
					off = d
				} else {
					label = "on"
					speedup = fmt.Sprintf("%.2fx", float64(off)/float64(d))
				}
				fmt.Fprintf(tw, "%s\t%s\t%s\t%v\t%.1f%%\t%s\n",
					spec.name, f.name, label, d.Round(time.Microsecond), matchPct, speedup)
			}
		}
	}
	return tw.Flush()
}

// E6 — Table 4: meta-rules vs interference. The same allocation workload
// with and without redaction meta-rules: with them, zero write conflicts
// and a valid allocation; without, conflicts and over-allocated orders.
func E6(w io.Writer, quick bool) error {
	fmt.Fprintln(w, "E6 (Table 4) — redaction meta-rules vs write conflicts (alexsys)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "variant\tcycles\tfirings\tredactions\tconflicts\tover-allocated-orders")
	pools, orders := 150, 100
	if quick {
		pools, orders = 40, 30
	}
	for _, variant := range []string{"with-meta", "without-meta"} {
		var prog *compile.Program
		var err error
		if variant == "with-meta" {
			prog, err = programs.Load(programs.Alexsys)
		} else {
			prog, err = programs.LoadWithoutMetaRules(programs.Alexsys)
		}
		if err != nil {
			return err
		}
		e := core.New(prog, core.Options{Workers: 4, MaxCycles: 1 << 20})
		if err := workload.Alexsys(e, pools, orders, 1); err != nil {
			return err
		}
		res, err := e.Run()
		if err != nil {
			return err
		}
		over := 0
		perOrder := map[int64]int{}
		for _, p := range e.Memory().OfTemplate("pool") {
			if p.Fields[2] == wm.Sym("sold") {
				perOrder[p.Fields[3].I]++
			}
		}
		for _, n := range perOrder {
			if n > 1 {
				over++
			}
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\n",
			variant, res.Cycles, res.Firings, res.Redactions, res.WriteConflicts, over)
	}
	return tw.Flush()
}
