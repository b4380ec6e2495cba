package core

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"parulel/internal/compile"
	"parulel/internal/match"
	"parulel/internal/match/rete"
	"parulel/internal/match/treat"
	"parulel/internal/programs"
	"parulel/internal/wm"
	"parulel/internal/workload"
)

func compileOK(t *testing.T, src string) *compile.Program {
	t.Helper()
	p, err := compile.CompileSource(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return p
}

func runOK(t *testing.T, e *Engine) Result {
	t.Helper()
	res, err := e.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

func TestEngineQuiescenceOnEmptyProgram(t *testing.T) {
	prog := compileOK(t, `(literalize a x)`)
	e := New(prog, Options{})
	res := runOK(t, e)
	if res.Cycles != 0 || res.Firings != 0 {
		t.Fatalf("empty program should do nothing: %+v", res)
	}
}

func TestEngineParallelFiringSetSemantics(t *testing.T) {
	// All matching instantiations fire in ONE cycle — the defining PARULEL
	// property. Ten sources each produce a sink in a single cycle.
	prog := compileOK(t, `
(literalize src id)
(literalize sink id)
(rule expand
  (src ^id <i>)
-->
  (make sink ^id <i>)
  (remove 1))
(wm
  (src ^id 1) (src ^id 2) (src ^id 3) (src ^id 4) (src ^id 5)
  (src ^id 6) (src ^id 7) (src ^id 8) (src ^id 9) (src ^id 10))
`)
	e := New(prog, Options{})
	res := runOK(t, e)
	if res.Cycles != 1 {
		t.Errorf("cycles = %d, want 1 (set-oriented firing)", res.Cycles)
	}
	if res.Firings != 10 {
		t.Errorf("firings = %d, want 10", res.Firings)
	}
	if n := e.Memory().CountOf("sink"); n != 10 {
		t.Errorf("sinks = %d, want 10", n)
	}
	if n := e.Memory().CountOf("src"); n != 0 {
		t.Errorf("srcs = %d, want 0", n)
	}
}

func TestEngineRefraction(t *testing.T) {
	// A rule that doesn't change its matched WME fires exactly once per
	// instantiation, not forever.
	prog := compileOK(t, `
(literalize a x)
(literalize out x)
(rule once (a ^x <v>) --> (make out ^x <v>))
(wm (a ^x 1))
`)
	e := New(prog, Options{MaxCycles: 10})
	res := runOK(t, e)
	if res.Firings != 1 {
		t.Errorf("firings = %d, want 1 (refraction)", res.Firings)
	}
	if n := e.Memory().CountOf("out"); n != 1 {
		t.Errorf("outs = %d, want 1", n)
	}
}

func TestEngineModifySemantics(t *testing.T) {
	// modify = remove + make with a fresh time tag; chain of modifies
	// counts down to zero.
	prog := compileOK(t, `
(literalize counter n)
(rule dec
  <c> <- (counter ^n <n>)
  (test (> <n> 0))
-->
  (modify <c> ^n (- <n> 1)))
(wm (counter ^n 5))
`)
	e := New(prog, Options{MaxCycles: 20})
	res := runOK(t, e)
	if res.Firings != 5 {
		t.Errorf("firings = %d, want 5", res.Firings)
	}
	counters := e.Memory().OfTemplate("counter")
	if len(counters) != 1 || counters[0].Fields[0] != wm.Int(0) {
		t.Errorf("final counter: %v", counters)
	}
}

func TestEngineHalt(t *testing.T) {
	prog := compileOK(t, `
(literalize a x)
(rule stop (a ^x <v>) --> (make a ^x (+ <v> 1)) (halt))
(wm (a ^x 1))
`)
	e := New(prog, Options{MaxCycles: 100})
	res := runOK(t, e)
	if !res.Halted {
		t.Error("engine should report halted")
	}
	if res.Cycles != 1 {
		t.Errorf("cycles = %d, want 1", res.Cycles)
	}
	// The halting cycle's effects still apply.
	if n := e.Memory().CountOf("a"); n != 2 {
		t.Errorf("a count = %d, want 2", n)
	}
}

func TestEngineMaxCycles(t *testing.T) {
	// A deliberately diverging program.
	prog := compileOK(t, `
(literalize a x)
(rule grow (a ^x <v>) --> (make a ^x (+ <v> 1)))
(wm (a ^x 0))
`)
	e := New(prog, Options{MaxCycles: 5})
	_, err := e.Run()
	if !errors.Is(err, ErrMaxCycles) {
		t.Fatalf("err = %v, want ErrMaxCycles", err)
	}
}

func TestEngineWriteOutput(t *testing.T) {
	prog := compileOK(t, `
(literalize a x)
(rule greet (a ^x <v>) --> (write "value=" <v> (crlf)))
(wm (a ^x 42))
`)
	var buf bytes.Buffer
	e := New(prog, Options{Output: &buf})
	runOK(t, e)
	if got := buf.String(); got != "value=42\n" {
		t.Errorf("output = %q", got)
	}
}

func TestEngineMetaRuleRedaction(t *testing.T) {
	// Two pools, one order: both allocations are proposed, the meta-rule
	// keeps only the lowest pool id, so exactly one allocation fires.
	prog := compileOK(t, `
(literalize pool id)
(literalize order id)
(literalize alloc pool order)
(rule propose
  (pool ^id <p>)
  (order ^id <o>)
-->
  (make alloc ^pool <p> ^order <o>)
  (remove 2))
(metarule one-per-order
  [<i> (propose ^o <o> ^p <p1>)]
  [<j> (propose ^o <o> ^p <p2>)]
  (test (< <p1> <p2>))
-->
  (redact <j>))
(wm (pool ^id 1) (pool ^id 2) (order ^id 7))
`)
	e := New(prog, Options{MaxCycles: 10})
	res := runOK(t, e)
	if res.Firings != 1 {
		t.Errorf("firings = %d, want 1 (redaction)", res.Firings)
	}
	if res.Redactions != 1 {
		t.Errorf("redactions = %d, want 1", res.Redactions)
	}
	allocs := e.Memory().OfTemplate("alloc")
	if len(allocs) != 1 || allocs[0].Fields[0] != wm.Int(1) {
		t.Fatalf("allocs: %v", allocs)
	}
	if res.WriteConflicts != 0 {
		t.Errorf("write conflicts = %d, want 0", res.WriteConflicts)
	}
}

func TestEngineWithoutMetaRulesWriteConflicts(t *testing.T) {
	// The same program WITHOUT the meta-rule: both instantiations fire,
	// both remove the same order WME — a write conflict is not counted for
	// remove+remove (removes commute) but both allocs are made. To force a
	// genuine conflict, both modify the same WME.
	prog := compileOK(t, `
(literalize order id state)
(literalize pool id)
(rule claim
  (pool ^id <p>)
  <o> <- (order ^id <oid> ^state free)
-->
  (modify <o> ^state <p>))
(wm (pool ^id 1) (pool ^id 2) (order ^id 7 ^state free))
`)
	e := New(prog, Options{MaxCycles: 10})
	res := runOK(t, e)
	if res.WriteConflicts != 1 {
		t.Errorf("write conflicts = %d, want 1", res.WriteConflicts)
	}
	// Deterministic winner: the first instantiation in the total order
	// (pool 1, the earlier time tag).
	orders := e.Memory().OfTemplate("order")
	if len(orders) != 1 || orders[0].Fields[1] != wm.Int(1) {
		t.Fatalf("orders: %v", orders)
	}
}

func TestEngineRemoveRemoveIsBenign(t *testing.T) {
	prog := compileOK(t, `
(literalize a x)
(literalize b x)
(rule r1 (a ^x <v>) (b ^x <v>) --> (remove 2))
(rule r2 (b ^x <v>) --> (remove 1))
(wm (a ^x 1) (b ^x 1))
`)
	e := New(prog, Options{MaxCycles: 10})
	res := runOK(t, e)
	if res.WriteConflicts != 0 {
		t.Errorf("remove+remove should be benign, conflicts = %d", res.WriteConflicts)
	}
	if n := e.Memory().CountOf("b"); n != 0 {
		t.Errorf("b should be removed: %d", n)
	}
}

func TestEngineMutualRedactionBothDie(t *testing.T) {
	// Synchronous-round semantics: two instantiations that each redact the
	// other both die in one round, so nothing fires.
	prog := compileOK(t, `
(literalize a x)
(literalize out x)
(rule r (a ^x <v>) --> (make out ^x <v>))
(metarule duel
  [<i> (r ^v <v1>)]
  [<j> (r ^v <v2>)]
  (test (<> <v1> <v2>))
-->
  (redact <j>))
(wm (a ^x 1) (a ^x 2))
`)
	e := New(prog, Options{MaxCycles: 10})
	res := runOK(t, e)
	if res.Firings != 0 {
		t.Errorf("firings = %d, want 0 (mutual redaction)", res.Firings)
	}
	if res.Redactions != 2 {
		t.Errorf("redactions = %d, want 2", res.Redactions)
	}
	if n := e.Memory().CountOf("out"); n != 0 {
		t.Errorf("outs = %d, want 0", n)
	}
}

func TestEngineTagTieBreak(t *testing.T) {
	// precedes-based tie-break: two instantiations compete for one token;
	// the earlier one in the total order wins and consumes it, so the
	// loser is retracted by the matcher and never fires.
	prog := compileOK(t, `
(literalize tok n)
(literalize a x)
(literalize out x)
(rule r
  <tk> <- (tok ^n <n>)
  (a ^x <v>)
-->
  (make out ^x <v>)
  (remove <tk>))
(metarule keep-first
  [<i> (r ^v <v1>)]
  [<j> (r ^v <v2>)]
  (test (precedes <i> <j>))
-->
  (redact <j>))
(wm (tok ^n 0) (a ^x 1) (a ^x 2))
`)
	e := New(prog, Options{MaxCycles: 10})
	res := runOK(t, e)
	if res.Firings != 1 {
		t.Fatalf("firings = %d, want 1", res.Firings)
	}
	if res.Redactions != 1 {
		t.Errorf("redactions = %d, want 1", res.Redactions)
	}
	outs := e.Memory().OfTemplate("out")
	if len(outs) != 1 || outs[0].Fields[0] != wm.Int(1) {
		t.Fatalf("outs: %v (the earliest instantiation should survive)", outs)
	}
}

func TestEngineNegationDrivenLoop(t *testing.T) {
	// Sequential dependency through negation: items are consumed lowest-id
	// first because the rule requires no smaller item to exist.
	prog := compileOK(t, `
(literalize item id)
(literalize log id)
(rule take-smallest
  <it> <- (item ^id <i>)
  - (item ^id (< <i>))
-->
  (make log ^id <i>)
  (remove <it>))
(wm (item ^id 3) (item ^id 1) (item ^id 2))
`)
	var buf bytes.Buffer
	e := New(prog, Options{MaxCycles: 10, Output: &buf})
	res := runOK(t, e)
	if res.Cycles != 3 || res.Firings != 3 {
		t.Errorf("cycles=%d firings=%d, want 3/3 (inherently serial)", res.Cycles, res.Firings)
	}
	logs := e.Memory().OfTemplate("log")
	if len(logs) != 3 {
		t.Fatalf("logs: %v", logs)
	}
	for i, want := range []int64{1, 2, 3} {
		if logs[i].Fields[0] != wm.Int(want) {
			t.Errorf("log %d = %v, want %d", i, logs[i].Fields[0], want)
		}
	}
}

// finalState runs a program and returns a canonical string of the final
// working memory.
func finalState(t *testing.T, prog *compile.Program, opts Options) string {
	t.Helper()
	e := New(prog, opts)
	if _, err := e.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	return wmText(e)
}

// wmText lists an engine's working memory, one WME a line.
func wmText(e *Engine) string {
	var b strings.Builder
	for _, w := range e.Memory().Snapshot() {
		b.WriteString(w.String())
		b.WriteString("\n")
	}
	return b.String()
}

const determinismProgram = `
(literalize pool  id amount status)
(literalize order id lo hi filled)
(literalize alloc pool order)
(rule propose
  (pool  ^id <p> ^amount <a> ^status free)
  (order ^id <o> ^lo <lo> ^hi <hi> ^filled no)
  (test (and (>= <a> <lo>) (<= <a> <hi>)))
-->
  (make alloc ^pool <p> ^order <o>))
(rule award
  (alloc ^pool <p> ^order <o>)
  <pl> <- (pool ^id <p> ^status free)
  <or> <- (order ^id <o> ^filled no)
-->
  (modify <pl> ^status sold)
  (modify <or> ^filled yes))
(metarule one-bid-per-pool
  [<i> (propose ^p <p> ^o <o1>)]
  [<j> (propose ^p <p> ^o <o2>)]
  (test (< <o1> <o2>))
-->
  (redact <j>))
(metarule one-award-per-pool
  [<i> (award ^p <p>)]
  [<j> (award ^p <p>)]
  (test (precedes <i> <j>))
-->
  (redact <j>))
(metarule one-award-per-order
  [<i> (award ^o <o>)]
  [<j> (award ^o <o>)]
  (test (precedes <i> <j>))
-->
  (redact <j>))
(wm
  (pool ^id 1 ^amount 50 ^status free)
  (pool ^id 2 ^amount 70 ^status free)
  (pool ^id 3 ^amount 90 ^status free)
  (pool ^id 4 ^amount 90 ^status free)
  (order ^id 1 ^lo 40 ^hi 80 ^filled no)
  (order ^id 2 ^lo 60 ^hi 95 ^filled no)
  (order ^id 3 ^lo 85 ^hi 95 ^filled no))
`

// TestEngineBuildsOneNetwork holds the engine to one matcher over every
// object rule.
func TestEngineBuildsOneNetwork(t *testing.T) {
	prog, err := programs.Load(programs.Waltz)
	if err != nil {
		t.Fatal(err)
	}
	built := 0
	e := New(prog, Options{MaxCycles: 50, Matcher: func(rules []*compile.Rule) match.Matcher {
		if len(rules) != len(prog.Rules) {
			t.Fatalf("matcher over %d rules, want all %d", len(rules), len(prog.Rules))
		}
		built++
		return rete.New(rules)
	}})
	if err := workload.WaltzScene(e, 20); err != nil {
		t.Fatal(err)
	}
	runOK(t, e)
	if built != 1 {
		t.Fatalf("built %d matchers, want one", built)
	}
}

func TestEngineDeterministicAcrossMatchers(t *testing.T) {
	ref := finalState(t, compileOK(t, determinismProgram), Options{Matcher: rete.New, MaxCycles: 50})
	got := finalState(t, compileOK(t, determinismProgram), Options{Matcher: treat.New, MaxCycles: 50})
	if got != ref {
		t.Errorf("matchers diverged:\nrete:\n%s\ntreat:\n%s", ref, got)
	}
}

func TestEngineInsertProgrammatic(t *testing.T) {
	prog := compileOK(t, `
(literalize a x)
(literalize out x)
(rule r (a ^x <v>) --> (make out ^x (* <v> 2)))
`)
	e := New(prog, Options{})
	if _, err := e.Insert("a", map[string]wm.Value{"x": wm.Int(21)}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Insert("ghost", nil); err == nil {
		t.Fatal("insert of unknown template should fail")
	}
	runOK(t, e)
	outs := e.Memory().OfTemplate("out")
	if len(outs) != 1 || outs[0].Fields[0] != wm.Int(42) {
		t.Fatalf("outs: %v", outs)
	}
}

func TestEngineRHSEvalErrorSurfaces(t *testing.T) {
	prog := compileOK(t, `
(literalize a x)
(rule bad (a ^x <v>) --> (make a ^x (div <v> 0)))
(wm (a ^x 1))
`)
	e := New(prog, Options{MaxCycles: 5})
	_, err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("err = %v, want division by zero", err)
	}
}

// sumTracer adds up what the engine reports of the cycles it commits; a
// quiescence probe's match time, like the engine's own, counts for nothing.
type sumTracer struct {
	open, phases                              [4]time.Duration
	cycles, fired, redacted, rounds, conflict int
	maxEligible                               int
}

func (s *sumTracer) CycleStart(int)                    { s.open = [4]time.Duration{} }
func (s *sumTracer) PhaseEnd(p Phase, d time.Duration) { s.open[p] = d }
func (s *sumTracer) InstantiationsFound(_, eligible int) {
	s.maxEligible = max(s.maxEligible, eligible)
}
func (s *sumTracer) Redacted(n, rounds, _ int) { s.redacted += n; s.rounds += rounds }
func (s *sumTracer) RuleFired(_ string, n int) { s.fired += n }
func (s *sumTracer) Commit(_, conflicts int, _ bool) {
	s.cycles++
	s.conflict += conflicts
	for p, d := range s.open {
		s.phases[p] += d
	}
}

// TestEngineStatsRecorded: the engine keeps no per-cycle record, so the
// totals in its Result must be exactly what its tracer was told cycle by
// cycle.
func TestEngineStatsRecorded(t *testing.T) {
	prog := compileOK(t, determinismProgram)
	tr := &sumTracer{}
	e := New(prog, Options{MaxCycles: 50, Tracer: tr})
	res := runOK(t, e)
	want := Result{Cycles: tr.cycles, Firings: tr.fired, Redactions: tr.redacted, RedactionRounds: tr.rounds,
		WriteConflicts: tr.conflict, Halted: res.Halted, Phases: tr.phases}
	if res != want {
		t.Errorf("result %+v, tracer events sum to %+v", res, want)
	}
	if res.Cycles == 0 || res.Firings == 0 || res.Redactions == 0 || res.Phases[PhaseMatch] <= 0 {
		t.Errorf("result records nothing: %+v", res)
	}
	if tr.maxEligible == 0 {
		t.Error("max conflict size should be > 0")
	}
}

// nopTracer is an attached tracer that does nothing with what it is told.
type nopTracer struct{}

func (nopTracer) CycleStart(int)                {}
func (nopTracer) PhaseEnd(Phase, time.Duration) {}
func (nopTracer) InstantiationsFound(int, int)  {}
func (nopTracer) Redacted(int, int, int)        {}
func (nopTracer) RuleFired(string, int)         {}
func (nopTracer) Commit(int, int, bool)         {}

// counterProgram commits one cycle per Step for as long as it is stepped.
const counterProgram = `
(literalize c n)
(rule tick <c> <- (c ^n <n>) --> (modify <c> ^n (+ <n> 1)))
(wm (c ^n 0))
`

// TestTracerBlockAllocatesNothing: reporting a committed cycle to a tracer
// costs the engine no allocation beyond the cycle's own.
func TestTracerBlockAllocatesNothing(t *testing.T) {
	perCycle := func(tr Tracer) float64 {
		e := New(compileOK(t, counterProgram), Options{Tracer: tr})
		step := func() {
			if more, err := e.Step(); err != nil || !more {
				t.Fatalf("step: more=%v err=%v", more, err)
			}
		}
		step() // the first cycle builds the match state
		return testing.AllocsPerRun(200, step)
	}
	if bare, traced := perCycle(nil), perCycle(nopTracer{}); traced > bare {
		t.Errorf("a cycle allocates %.1f times with a no-op tracer, %.1f with none", traced, bare)
	}
}

func TestEngineGensymBind(t *testing.T) {
	prog := compileOK(t, `
(literalize a x)
(literalize node id src)
(rule tag-it
  (a ^x <v>)
-->
  (bind <id>)
  (make node ^id <id> ^src <v>)
  (make node ^id <id> ^src (+ <v> 100)))
(wm (a ^x 1) (a ^x 2))
`)
	e := New(prog, Options{MaxCycles: 5})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	nodes := e.Memory().OfTemplate("node")
	if len(nodes) != 4 {
		t.Fatalf("nodes: %v", nodes)
	}
	// Each instantiation's two nodes share the gensym; the two
	// instantiations' gensyms differ.
	ids := map[string][]int64{}
	for _, n := range nodes {
		ids[n.Fields[0].S] = append(ids[n.Fields[0].S], n.Fields[1].AsInt())
	}
	if len(ids) != 2 {
		t.Fatalf("expected 2 distinct gensyms, got %v", ids)
	}
	for id, srcs := range ids {
		if len(srcs) != 2 {
			t.Errorf("gensym %s used %d times, want 2", id, len(srcs))
		}
	}
}

func TestEngineGensymDeterministic(t *testing.T) {
	run := func() string {
		prog := compileOK(t, `
(literalize a x)
(literalize node id)
(rule r (a ^x <v>) --> (bind <id>) (make node ^id <id>))
(wm (a ^x 1) (a ^x 2) (a ^x 3))
`)
		e := New(prog, Options{MaxCycles: 5})
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		out := ""
		for _, n := range e.Memory().OfTemplate("node") {
			out += n.String() + "\n"
		}
		return out
	}
	if run() != run() {
		t.Error("gensym values must be deterministic across runs")
	}
}

func TestExplainConflictSet(t *testing.T) {
	prog := compileOK(t, `
(literalize a x)
(literalize out x)
(rule once (a ^x <v>) --> (make out ^x <v>))
(wm (a ^x 7) (a ^x 9))
`)
	e := New(prog, Options{MaxCycles: 10})
	runOK(t, e)
	var buf bytes.Buffer
	if err := e.ExplainConflictSet(&buf); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	for _, want := range []string{
		"conflict set: 2 instantiation(s)",
		"fired (refracted)",
		"<v> = 7",
		"<v> = 9",
		"(a ^x 7)",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("explain output missing %q:\n%s", want, s)
		}
	}
}

// TestCommitOfMakesAllocatesNoClaims: commit's table of the WMEs a cycle
// removes or modifies is made when the first of them is claimed, so a cycle
// that only makes — every cycle of waltz — allocates its WMEs and its delta
// and nothing else, while one removal costs the table.
func TestCommitOfMakesAllocatesNoClaims(t *testing.T) {
	prog, err := compile.CompileSource(`(literalize item n)`)
	if err != nil {
		t.Fatal(err)
	}
	e := New(prog, Options{})
	item := prog.Schema.MustLookup("item")
	makes := make([]pendingMake, 8)
	for i := range makes {
		makes[i] = pendingMake{tmpl: item, fields: []wm.Value{wm.Int(int64(i))}}
	}
	inserts := testing.AllocsPerRun(50, func() {
		var delta wm.Delta
		for _, mk := range makes {
			delta.Added = append(delta.Added, e.mem.InsertFields(mk.tmpl, mk.fields))
		}
	})
	commit := func(eff effect) float64 {
		return testing.AllocsPerRun(50, func() {
			if _, _, _, err := e.commit([]effect{eff}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if got := commit(effect{makes: makes}); got > inserts {
		t.Errorf("a commit of %d makes allocates %.0f times, the inserts alone %.0f", len(makes), got, inserts)
	}
	gone := e.mem.InsertFields(item, []wm.Value{wm.Int(-1)})
	if got := commit(effect{makes: makes, removes: []*wm.WME{gone}}); got <= inserts {
		t.Errorf("a commit with a removal allocates %.0f times, no more than the inserts alone (%.0f): the test measures nothing", got, inserts)
	}
}

// TestStepAllocationBudget holds a run to what it may allocate for each
// instantiation entering the conflict set: the instantiation (the
// matcher's), its meta-level image — and, where a join-form meta-rule names
// its rule, its member and field vector — its share of the network's and the
// meta level's growth and of the firings' effects. The
// conflict-set table, the survivors and the effects are scratch the engine
// keeps, so a fresh engine's run to quiescence pays for them once, in its
// first cycles. A map keyed by instantiation on the cycle path grows with
// what it holds, and with it the bytes an entry: on alexsys_run's instance
// the conflict set is large and little of it is refracted at a time; on
// the second program everything that fires stays, refracted, to the end.
// The budgets are the figures measured with go1.24 plus 6-7%. Keying the
// conflict set, the refraction set and the images by instantiation cost
// 322 bytes an entry more on the first, the images alone 162; a
// refraction set so keyed, 255 on the second.
func TestStepAllocationBudget(t *testing.T) {
	alexsys, err := programs.Load(programs.Alexsys)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name          string
		prog          *compile.Program
		load          func(workload.Inserter) error
		allocs, bytes float64
	}{
		{"alexsys", alexsys, func(i workload.Inserter) error { return workload.Alexsys(i, 40, 32, 1) }, 4.7, 562},
		{"refracted", compileOK(t, `
(literalize item n)
(literalize out n)
(rule emit (item ^n <n>) --> (make out ^n <n>))
(metarule one-at-a-time [<i> (emit ^n <a>)] [<j> (emit ^n <b>)] (test (< <a> <b>)) --> (redact <j>))
`), func(i workload.Inserter) error {
			for n := int64(0); n < 256; n++ {
				if _, err := i.Insert("item", map[string]wm.Value{"n": wm.Int(n)}); err != nil {
					return err
				}
			}
			return nil
		}, 6.9, 846},
	} {
		e := New(tc.prog, Options{MaxCycles: 1 << 12})
		if err := tc.load(e); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := runOK(t, e)
		runtime.ReadMemStats(&after)
		entries := 0
		for _, p := range e.matcher.(match.RuleProfiler).RuleProfiles() {
			entries += int(p.Insts)
		}
		if res.Redactions == 0 || res.Firings == 0 {
			t.Fatalf("%s: %+v, want firings and redactions", tc.name, res)
		}
		perAlloc := float64(after.Mallocs-before.Mallocs) / float64(entries)
		perByte := float64(after.TotalAlloc-before.TotalAlloc) / float64(entries)
		t.Logf("%s: %d entries, %d cycles, %d refracted at the end: %.2f allocations and %.0f bytes an entry", tc.name, entries, res.Cycles, e.refracted, perAlloc, perByte)
		if perAlloc > tc.allocs || perByte > tc.bytes {
			t.Errorf("%s: %.2f allocations and %.0f bytes for each of %d instantiations entering the conflict set, budget %.1f and %.0f",
				tc.name, perAlloc, perByte, entries, tc.allocs, tc.bytes)
		}
	}
}

// TestMetaLevelByteBudget holds the meta level's resident state to a budget
// per image on alexsys_run's instance, MemStats().Bytes over the images held
// after the cycle that holds the most. Both of alexsys's meta-rules are
// orders, so an image is itself and its ranks, plus its share of the groups;
// a join-form meta-rule's would add its member, field vector, overflowing
// links and witness links, and its share of the index tables. Anything kept
// per tuple, or per dependent beside the dependent's own links, shows here.
// The budget is the figure measured with go1.24 plus 7%.
func TestMetaLevelByteBudget(t *testing.T) {
	const budget = 123.0
	alexsys, err := programs.Load(programs.Alexsys)
	if err != nil {
		t.Fatal(err)
	}
	e := New(alexsys, Options{MaxCycles: 1 << 12})
	if err := workload.Alexsys(e, 40, 32, 1); err != nil {
		t.Fatal(err)
	}
	peak, perImage := 0, 0.0
	for progress := true; progress; {
		if progress, err = e.Step(); err != nil {
			t.Fatal(err)
		}
		e.meta.sync() // the survivors' images leave
		if images := len(checkTable(t, e)); images > peak {
			_, meta := e.MemStats()
			peak, perImage = images, float64(meta.Bytes)/float64(images)
		}
	}
	t.Logf("%d images at the peak, %.0f bytes an image", peak, perImage)
	if peak == 0 || perImage > budget {
		t.Errorf("the meta level holds %.0f bytes for each of %d images, budget %.0f", perImage, peak, budget)
	}
}
