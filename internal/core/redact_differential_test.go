package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"parulel/internal/compile"
	"parulel/internal/match"
	"parulel/internal/match/rete"
	"parulel/internal/match/treat"
	"parulel/internal/programs"
	"parulel/internal/wm"
	"parulel/internal/workload"
)

// redactionMatchers is the matcher axis of the redaction grid: the meta
// level is the same under either, but what it is fed — the order
// instantiations enter and leave in — is the object-level matcher's.
var redactionMatchers = []struct {
	name    string
	factory match.Factory
}{
	{"rete", rete.New},
	{"treat", treat.New},
}

// TestRedactionDifferentialBuiltins is the redaction axis of the engine's
// differential grid: every builtin program, on both matchers, must fire
// per cycle exactly what the per-cycle joiner (the oracle) keeps from the
// same eligible set. The oracle here is the nested-loop one (E7's other
// arm); the indexed one is what newOracleEngine and the fuzz target run.
// The "w1" in the names is the engine's one fire loop.
func TestRedactionDifferentialBuiltins(t *testing.T) {
	cases := []struct {
		prog string
		load func(workload.Inserter) error
	}{
		{programs.Quickstart, func(i workload.Inserter) error { return workload.People(i, 12) }},
		{programs.Alexsys, func(i workload.Inserter) error { return workload.Alexsys(i, 25, 18, 1) }},
		{programs.Waltz, func(i workload.Inserter) error { return workload.WaltzScene(i, 6) }},
		{programs.Closure, func(i workload.Inserter) error { return workload.LayeredDAG(i, 4, 4, 2, 1) }},
		{programs.Manners, func(i workload.Inserter) error { return workload.Manners(i, 10, 2, 4, 1) }},
		{programs.Life, func(i workload.Inserter) error {
			return workload.LifeGrid(i, 6, 6, workload.LifeRandom(6, 6, 0.4, 3), 3)
		}},
		{programs.Circuit, func(i workload.Inserter) error { return workload.GenBusCircuit(6, 6, 3, 1).Insert(i) }},
	}
	for _, tc := range cases {
		prog, err := programs.Load(tc.prog)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range redactionMatchers {
			t.Run(fmt.Sprintf("%s/%s/w1", tc.prog, m.name), func(t *testing.T) {
				e := New(prog, Options{Matcher: m.factory, MaxCycles: 1 << 16})
				if err := tc.load(e); err != nil {
					t.Fatal(err)
				}
				oracle := newOracle(prog)
				oracle.noIndex = true
				runAgainstOracle(t, e, oracle)
			})
		}
	}
}

// genMetaProgram writes a random program whose meta-rules exercise every
// construct the lowering translates: two object rules over different
// templates (so `precedes` and `rulename` meet both their constant and
// their computed forms), and 2- and 3-pattern meta-rules with and without
// an equality join, constant, disjunction, predicate and intra-pattern
// tests, and `tag` / `precedes` / `rulename` in their test expressions.
// Then a dominance meta-rule (genDominance), which the meta level runs as
// an order, and a join-form meta-rule that redacts instantiations of the
// same rule, so that an image an order stops redacting must look for a
// witness. Facts hold ints, floats and symbols. Each firing consumes its
// element, so redacted instantiations come back in later cycles against a
// shrinking eligible set.
func genMetaProgram(rng *rand.Rand) string {
	var b strings.Builder
	b.WriteString("(literalize item k a b)\n(literalize part k a b)\n")
	b.WriteString("(rule take (item ^k <k> ^a <a> ^b <b>) --> (remove 1))\n")
	b.WriteString("(rule drop (part ^k <k> ^a <a> ^b <b>) --> (remove 1))\n")
	rules := []string{"take", "drop"}
	for m, metas := 0, 1+rng.Intn(3); m < metas; m++ {
		n := 2 + rng.Intn(2)
		fmt.Fprintf(&b, "(metarule m%d\n", m)
		var bound []string // meta value variables bound so far
		for p := 0; p < n; p++ {
			fmt.Fprintf(&b, "  [<i%d> (%s", p, rules[rng.Intn(2)])
			// ^k: join on an earlier variable, bind a new one, or test.
			switch r := rng.Intn(5); {
			case r == 0 && len(bound) > 0:
				fmt.Fprintf(&b, " ^k <%s>", bound[rng.Intn(len(bound))]) // equality join (indexable)
			case r <= 1:
				v := fmt.Sprintf("k%d", p)
				fmt.Fprintf(&b, " ^k <%s>", v)
				bound = append(bound, v)
			case r == 2:
				fmt.Fprintf(&b, " ^k %d", rng.Intn(3))
			case r == 3:
				fmt.Fprintf(&b, " ^k << %d %d >>", rng.Intn(3), rng.Intn(3))
			}
			// ^a binds, ^b maybe compares against it (intra) or an
			// earlier pattern's variable (non-equality join).
			va := fmt.Sprintf("a%d", p)
			fmt.Fprintf(&b, " ^a <%s>", va)
			switch r := rng.Intn(4); {
			case r == 0:
				fmt.Fprintf(&b, " ^b (>= <%s>)", va)
			case r == 1 && len(bound) > 0:
				fmt.Fprintf(&b, " ^b (<> <%s>)", bound[rng.Intn(len(bound))])
			case r == 2:
				fmt.Fprintf(&b, " ^b (< %d)", 1+rng.Intn(3))
			}
			bound = append(bound, va)
			b.WriteString(")]\n")
		}
		i, j := rng.Intn(n), rng.Intn(n)
		switch rng.Intn(6) {
		case 0:
			fmt.Fprintf(&b, "  (test (precedes <i%d> <i%d>))\n", i, j)
		case 1:
			fmt.Fprintf(&b, "  (test (< (tag <i%d>) (tag <i%d>)))\n", i, j)
		case 2:
			fmt.Fprintf(&b, "  (test (or (< <a%d> <a%d>) (and (= <a%d> <a%d>) (precedes <i%d> <i%d>))))\n", i, j, i, j, i, j)
		case 3:
			fmt.Fprintf(&b, "  (test (= (rulename <i%d>) take))\n  (test (<> <a%d> <a%d>))\n", i, i, j)
		case 4:
			fmt.Fprintf(&b, "  (test (<> (rulename <i%d>) (rulename <i%d>)))\n", i, j)
		}
		fmt.Fprintf(&b, "-->\n  (redact <i%d>", rng.Intn(n))
		if rng.Intn(3) == 0 {
			fmt.Fprintf(&b, " <i%d>", rng.Intn(n))
		}
		b.WriteString("))\n")
	}
	victim := rules[rng.Intn(2)]
	genDominance(&b, rng, victim)
	fmt.Fprintf(&b, "(metarule joined [<i> (%s ^a <a>)] [<j> (%s ^k <a> ^b (<> 2))] --> (redact <i>))\n", victim, rules[rng.Intn(2)])
	b.WriteString("(wm")
	values := []string{"0", "1", "2", "1.0", "1.5", "a", "b"}
	for f, facts := 0, 6+rng.Intn(14); f < facts; f++ {
		tmpl := []string{"item", "part"}[rng.Intn(2)]
		fmt.Fprintf(&b, "\n  (%s ^k %s ^a %s ^b %s)", tmpl, values[rng.Intn(len(values))], values[rng.Intn(len(values))], values[rng.Intn(len(values))])
	}
	b.WriteString(")\n")
	return b.String()
}

// genDominance writes a dominance meta-rule over rule in one of the forms
// the recogniser accepts: with a group (^k) or without; keyed on one or two
// of ^a and ^b, each by `<` or `>` written either way round, ending in a
// strict or non-strict comparison or in `precedes` either way round, or by
// `precedes` alone; or with no test at all, a mutual kill.
func genDominance(b *strings.Builder, rng *rand.Rand, rule string) {
	k := []string{"<k0>", "<k1>"}
	if rng.Intn(2) == 0 {
		k = []string{"<k>", "<k>"}
	}
	fmt.Fprintf(b, "(metarule dominates\n  [<i> (%s ^k %s ^a <a0> ^b <b0>)]\n  [<j> (%s ^k %s ^a <a1> ^b <b1>)]\n", rule, k[0], rule, k[1])
	pick := func(of ...string) string { return of[rng.Intn(len(of))] }
	compare := func(op, field string) string {
		if rng.Intn(2) == 0 {
			return fmt.Sprintf("(%s <%s0> <%s1>)", op, field, field)
		}
		mirror := map[string]string{"<": ">", ">": "<", "<=": ">=", ">=": "<=", "=": "="}[op]
		return fmt.Sprintf("(%s <%s1> <%s0>)", mirror, field, field)
	}
	fields := []string{"a", "b"}
	rng.Shuffle(len(fields), func(i, j int) { fields[i], fields[j] = fields[j], fields[i] })
	var test func(keys []string, tail int) string
	test = func(keys []string, tail int) string {
		switch {
		case len(keys) == 0:
			return pick("(precedes <i> <j>)", "(precedes <j> <i>)")
		case len(keys) == 1 && tail == 1:
			return compare(pick("<", ">"), keys[0])
		case len(keys) == 1 && tail == 2:
			return compare(pick("<=", ">="), keys[0])
		}
		return fmt.Sprintf("(or %s (and %s %s))", compare(pick("<", ">"), keys[0]), compare("=", keys[0]), test(keys[1:], tail))
	}
	switch tail := rng.Intn(4); tail {
	case 3:
		// No test: every pair of a group ties, and both die.
	case 0:
		fmt.Fprintf(b, "  (test %s)\n", test(fields[:rng.Intn(3)], tail))
	default:
		fmt.Fprintf(b, "  (test %s)\n", test(fields[:1+rng.Intn(2)], tail))
	}
	fmt.Fprintf(b, "-->\n  (redact %s))\n", pick("<i>", "<j>"))
}

// checkGenerated compiles one generated program and runs it against the
// oracle on both matchers. It returns how many redactions the run made.
func checkGenerated(t *testing.T, src string) (redactions int) {
	t.Helper()
	prog, err := compile.CompileSource(src)
	if err != nil {
		t.Fatalf("generated program does not compile: %v\n%s", err, src)
	}
	for _, m := range redactionMatchers {
		e := New(prog, Options{Matcher: m.factory, MaxCycles: 1 << 12})
		oracle := newOracle(prog)
		t.Run(m.name, func(t *testing.T) {
			defer func() {
				if t.Failed() {
					t.Logf("program:\n%s", src)
				}
			}()
			runAgainstOracle(t, e, oracle)
		})
		redactions = e.result.Redactions
	}
	return redactions
}

// TestRedactionGeneratedMetaRules property-tests the lowering and the join
// plans on generated meta-rule programs: the engine agrees with the oracle cycle by cycle, and
// (inside runAgainstOracle) one round is the fixpoint — re-running the
// oracle on the survivors redacts nothing.
func TestRedactionGeneratedMetaRules(t *testing.T) {
	const seeds = 150
	redacting := 0
	for seed := int64(1); seed <= seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			if checkGenerated(t, genMetaProgram(rand.New(rand.NewSource(seed)))) > 0 {
				redacting++
			}
		})
	}
	if redacting < seeds/2 {
		t.Errorf("only %d of %d generated programs redacted anything: the generator has gone vacuous", redacting, seeds)
	}
}

// FuzzRedactionDifferential lets the fuzzer pick the generator's seed.
func FuzzRedactionDifferential(f *testing.F) {
	for _, seed := range []int64{1, 7, 42, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkGenerated(t, genMetaProgram(rand.New(rand.NewSource(seed))))
	})
}

// TestRedactionMutualKill is the synchronous semantics' signature: under a
// symmetric meta-rule with no tie-breaker every instantiation that shares
// its key with another dies — both members of every pair — whatever the
// group sizes, and the lone ones fire.
func TestRedactionMutualKill(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var b strings.Builder
		b.WriteString(`
(literalize item k)
(literalize out k)
(rule take (item ^k <k>) --> (make out ^k <k>))
(metarule duel
  [<i> (take ^k <k>)]
  [<j> (take ^k <k>)]
-->
  (redact <j>))
(wm`)
		groups := make(map[int]int)
		for f, facts := 0, 3+rng.Intn(12); f < facts; f++ {
			k := rng.Intn(6)
			groups[k]++
			fmt.Fprintf(&b, " (item ^k %d)", k)
		}
		b.WriteString(")\n")
		prog := compileOK(t, b.String())
		lone, crowded := 0, 0
		for _, n := range groups {
			if n == 1 {
				lone++
			} else {
				crowded += n
			}
		}
		for _, m := range redactionMatchers {
			e := New(prog, Options{Matcher: m.factory, MaxCycles: 10})
			if _, err := e.Step(); err != nil {
				t.Fatal(err)
			}
			if res := e.CurrentResult(); res.Firings != lone || res.Redactions != crowded {
				t.Errorf("seed %d %s: fired %d redacted %d, want %d lone to fire and all %d crowded to die",
					seed, m.name, res.Firings, res.Redactions, lone, crowded)
			}
			// The crowded ones kill each other again every cycle: nothing
			// more ever fires.
			if res := runOK(t, e); res.Firings != lone {
				t.Errorf("seed %d %s: %d firings in the end, want %d", seed, m.name, res.Firings, lone)
			}
			for _, w := range e.Memory().OfTemplate("out") {
				if groups[int(w.Fields[0].I)] != 1 {
					t.Errorf("seed %d %s: an instantiation of group %v survived", seed, m.name, w.Fields[0])
				}
			}
		}
	}
}

// TestSequentialSparesWhatSynchronousOverKills keeps the finding of the
// retired E8 ablation as an assertion on the oracle, the only place the
// sequential semantics still exists. On alexsys synchronous redaction
// kills instantiations whose killers die in the same pass; sequential
// redaction spares them, so it redacts less and finishes in fewer cycles.
// On manners the meta-rules impose a total order, nothing is over-killed
// and the two agree exactly (E8 recorded 33 cycles and 694 redactions
// under both at 32 guests).
func TestSequentialSparesWhatSynchronousOverKills(t *testing.T) {
	run := func(name string, load func(workload.Inserter) error, sequential bool) Result {
		prog, err := programs.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		e := newOracleEngine(prog, Options{MaxCycles: 1 << 12})
		e.oracle.sequential = sequential
		if err := load(e); err != nil {
			t.Fatal(err)
		}
		res := e.run(t)
		// The engine itself is the synchronous one.
		if !sequential {
			eng := New(prog, Options{MaxCycles: 1 << 12})
			if err := load(eng); err != nil {
				t.Fatal(err)
			}
			if got := runOK(t, eng); got.Cycles != res.Cycles || got.Firings != res.Firings || got.Redactions != res.Redactions {
				t.Errorf("%s: engine ran %d cycles, %d firings, %d redactions; the synchronous oracle %d, %d, %d",
					name, got.Cycles, got.Firings, got.Redactions, res.Cycles, res.Firings, res.Redactions)
			}
		}
		return res
	}
	alexsys := func(i workload.Inserter) error { return workload.Alexsys(i, 40, 30, 1) }
	sync, seq := run(programs.Alexsys, alexsys, false), run(programs.Alexsys, alexsys, true)
	if seq.Redactions >= sync.Redactions || seq.Cycles >= sync.Cycles {
		t.Errorf("alexsys: sequential %d cycles, %d redactions; synchronous %d, %d: expected sequential to spare some",
			seq.Cycles, seq.Redactions, sync.Cycles, sync.Redactions)
	}
	manners := func(i workload.Inserter) error { return workload.Manners(i, 12, 3, 8, 1) }
	sync, seq = run(programs.Manners, manners, false), run(programs.Manners, manners, true)
	if seq.Redactions != sync.Redactions || seq.Cycles != sync.Cycles || seq.Firings != sync.Firings {
		t.Errorf("manners: sequential %+v, synchronous %+v: a total order leaves nothing to spare", seq, sync)
	}
}

// TestNoMetaRulesNoMetaLevel: a program without meta-rules gets no meta
// schema, no meta matcher and no per-instantiation work — running it
// allocates exactly what running it with the meta level forcibly absent
// does, which is nothing extra.
func TestNoMetaRulesNoMetaLevel(t *testing.T) {
	for _, name := range []string{programs.Life} {
		prog, err := programs.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		if prog.Meta != nil {
			t.Fatalf("%s: a program without meta-rules has a meta level", name)
		}
		if e := New(prog, Options{}); e.meta != nil {
			t.Fatalf("%s: engine built a meta level", name)
		}
	}
	// The same holds for what a program with meta-rules pays once they are
	// stripped: the stripped program runs without an image of anything.
	stripped, err := programs.LoadWithoutMetaRules(programs.Alexsys)
	if err != nil {
		t.Fatal(err)
	}
	full, err := programs.Load(programs.Alexsys)
	if err != nil {
		t.Fatal(err)
	}
	build := func(prog *compile.Program) float64 {
		return testing.AllocsPerRun(20, func() {
			e := New(prog, Options{})
			if err := workload.Alexsys(e, 6, 5, 1); err != nil {
				t.Fatal(err)
			}
			// One match phase and no more: what differs is the images.
			e.applyDelta(e.takePending())
			e.meta.sync()
		})
	}
	without, with := build(stripped), build(full)
	if with <= without {
		t.Fatalf("alexsys's images allocated %.0f, not more than the %.0f of the stripped program: the test measures nothing", with, without)
	}
	var noMeta *metaLevel
	if extra := testing.AllocsPerRun(100, func() {
		noMeta.leave(noMeta.enter(nil))
		noMeta.sync()
	}); extra != 0 {
		t.Errorf("an absent meta level allocated %.0f per cycle", extra)
	}
}

// TestOnlyNamedRulesAreReified: on waltz the meta-patterns name
// boundary-edge, tee-crossbar-* and spread-*; corner-pair — the hot rule,
// thousands of instantiations — and the rest must have no image (and
// boundary-edge, which only an order names, images that reify nothing).
// Image counts are checked exactly, and the images' allocations must scale
// with the named rules' instantiations only.
func TestOnlyNamedRulesAreReified(t *testing.T) {
	prog, err := programs.Load(programs.Waltz)
	if err != nil {
		t.Fatal(err)
	}
	named := map[string]bool{"boundary-edge": true, "tee-crossbar-1": true, "tee-crossbar-2": true,
		"spread-12": true, "spread-13": true, "spread-21": true, "spread-23": true, "spread-31": true, "spread-32": true}
	for _, r := range prog.Rules {
		if got := prog.Meta.Images[r.Index] != nil; got != named[r.Name] {
			t.Errorf("rule %s: reified=%v, want %v", r.Name, got, named[r.Name])
		}
	}
	e := New(prog, Options{MaxCycles: 1 << 12})
	if err := workload.WaltzScene(e, 6); err != nil {
		t.Fatal(err)
	}
	sawCornerPair := false
	for {
		// Queue lengths before the step's redact phase drains them are not
		// observable from here; the images after it are.
		progress, err := e.Step()
		if err != nil {
			t.Fatal(err)
		}
		eligibleNamed := 0
		for _, s := range e.cs {
			if s.in.Rule.Name == "corner-pair" {
				sawCornerPair = true
			}
			if named[s.in.Rule.Name] && !s.fired {
				eligibleNamed++
			}
		}
		// The survivors of this cycle were refracted after the redact
		// phase; their images go at the next sync, which leaves exactly
		// the eligible instantiations of named rules.
		e.meta.sync()
		images := checkTable(t, e)
		if len(images) != eligibleNamed {
			t.Fatalf("cycle %d: %d images for %d eligible instantiations of named rules",
				e.result.Cycles, len(images), eligibleNamed)
		}
		for _, img := range images {
			if !named[img.in.Rule.Name] {
				t.Fatalf("image of unnamed rule %s", img.in.Rule.Name)
			}
		}
		checkMetaLevel(t, e.meta, images)
		if !progress {
			break
		}
	}
	if !sawCornerPair {
		t.Fatal("corner-pair never matched: the test measures nothing")
	}
	if ms, images := e.meta.memStats(), checkTable(t, e); len(images) != 0 || ms.AlphaItems != 0 {
		t.Errorf("at quiescence %d images remain, %d in the pattern memories", len(images), ms.AlphaItems)
	}

	// Allocation: entering and leaving an instantiation of an unnamed rule
	// costs nothing, however many there are.
	var cornerPair *match.Instantiation
	mem := wm.NewMemory(prog.Schema)
	for _, r := range prog.Rules {
		if r.Name == "corner-pair" {
			wmes := make([]*wm.WME, r.NumPositive)
			for i := range wmes {
				wmes[i] = mem.InsertFields(r.CEs[0].Tmpl, make([]wm.Value, r.CEs[0].Tmpl.Arity()))
			}
			cornerPair = match.NewInstantiation(r, wmes)
		}
	}
	if extra := testing.AllocsPerRun(100, func() {
		e.meta.leave(e.meta.enter(cornerPair))
		e.meta.sync()
	}); extra != 0 {
		t.Errorf("an instantiation of an unnamed rule cost %.0f allocations at the meta level", extra)
	}
}
