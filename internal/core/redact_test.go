package core

import (
	"testing"

	"parulel/internal/compile"
	"parulel/internal/match"
	"parulel/internal/match/rete"
	"parulel/internal/match/treat"
	"parulel/internal/wm"
)

// The chain program distinguishes the engine's synchronous redaction from
// the sequential semantics only the test oracle still implements: with
// tokens 1, 2, 3 the meta-rule justifies "1 kills 2" and "2 kills 3".
//
//   - synchronous: both matches apply at once → 2 and 3 die, only 1 fires;
//   - sequential:  1 kills 2 first; the (2,3) tuple now has a dead member
//     and is skipped → 1 and 3 fire.
const chainRedactionProgram = `
(literalize item n)
(literalize out n)
(rule emit (item ^n <n>) --> (make out ^n <n>))
(metarule kill-successor
  [<i> (emit ^n <a>)]
  [<j> (emit ^n <b>)]
  (test (= <b> (+ <a> 1)))
-->
  (redact <j>))
(wm (item ^n 1) (item ^n 2) (item ^n 3))
`

// sequentialEngine runs prog under the oracle's sequential semantics.
func sequentialEngine(prog *compile.Program, opts Options) *oracleEngine {
	e := newOracleEngine(prog, opts)
	e.oracle.sequential = true
	return e
}

func outValues(t *testing.T, e *Engine) []int64 {
	t.Helper()
	var out []int64
	for _, w := range e.Memory().OfTemplate("out") {
		out = append(out, w.Fields[0].I)
	}
	return out
}

func TestSynchronousRedactionOverKills(t *testing.T) {
	prog := compileOK(t, chainRedactionProgram)
	e := New(prog, Options{MaxCycles: 10})
	res := runOK(t, e)
	// First cycle: 2 and 3 redacted, 1 fires. Second cycle: 2 and 3 are
	// still eligible (unfired, WM unchanged for them); 2 is killed by 1?
	// No — 1 already fired, so it is refracted and not eligible; the
	// remaining set {2,3} re-redacts 3, fires 2; then 3 fires alone.
	got := outValues(t, e)
	if len(got) != 3 {
		t.Fatalf("outs: %v", got)
	}
	// The interesting signal is the shape: synchronous redaction spreads
	// the firings over three cycles.
	if res.Cycles != 3 {
		t.Errorf("cycles = %d, want 3 (over-kill serializes the chain)", res.Cycles)
	}
	if res.Redactions != 3 { // 2 and 3 in cycle 1, 3 again in cycle 2
		t.Errorf("redactions = %d, want 3", res.Redactions)
	}
}

func TestSequentialRedactionSparesTransitiveVictims(t *testing.T) {
	prog := compileOK(t, chainRedactionProgram)
	e := sequentialEngine(prog, Options{MaxCycles: 10})
	res := e.run(t)
	got := outValues(t, e.Engine)
	if len(got) != 3 {
		t.Fatalf("outs: %v", got)
	}
	// Cycle 1: 1 kills 2; tuple (2,3) is skipped (2 dead) → 1 AND 3 fire
	// together. Cycle 2: 2 fires alone (1 and 3 refracted; (1,2) still
	// kills? 1 is not eligible anymore, so no).
	if res.Cycles != 2 {
		t.Errorf("cycles = %d, want 2 (sequential spares 3)", res.Cycles)
	}
	if res.Redactions != 1 {
		t.Errorf("redactions = %d, want 1 (only 2 dies)", res.Redactions)
	}
}

func TestSequentialRedactionMutualKeepsFirst(t *testing.T) {
	// Mutual redaction: synchronous kills both; sequential keeps the
	// tuple visited first (deterministic order).
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
	e := sequentialEngine(prog, Options{MaxCycles: 10})
	res := e.run(t)
	// Cycle 1: tuple (1,2) kills 2; tuple (2,1) skipped (2 dead) → 1
	// fires. Cycle 2: 2 fires alone.
	if res.Firings != 2 || res.Redactions != 1 {
		t.Errorf("firings=%d redactions=%d, want 2/1", res.Firings, res.Redactions)
	}
	outs := e.Memory().OfTemplate("out")
	if len(outs) != 2 || outs[0].Fields[0] != wm.Int(1) {
		t.Errorf("outs: %v (1 must fire first)", outs)
	}
}

// TestSequentialRedactionDeterministicAcrossWorkers: the sequential oracle
// applies meta-rules in declaration order, so what survives must not
// depend on the order the object level reports instantiations in.
func TestSequentialRedactionDeterministicAcrossWorkers(t *testing.T) {
	run := func(f match.Factory) string {
		prog := compileOK(t, chainRedactionProgram)
		e := sequentialEngine(prog, Options{Matcher: f, MaxCycles: 10})
		e.run(t)
		s := ""
		for _, w := range e.Memory().Snapshot() {
			s += w.String() + "\n"
		}
		return s
	}
	if run(rete.New) != run(treat.New) {
		t.Error("sequential redaction must not depend on the object-level matcher")
	}
}

func TestRedactionConflictFreedomBothSemantics(t *testing.T) {
	// Under either semantics, the surviving set must be conflict-free:
	// alexsys-style competition for one resource must never fire two
	// awards of the same pool in a cycle.
	src := `
(literalize pool id state)
(literalize order id)
(rule award
  <p> <- (pool ^id <pid> ^state free)
  (order ^id <o>)
-->
  (modify <p> ^state <o>))
(metarule one-per-pool
  [<i> (award ^pid <p> ^o <o1>)]
  [<j> (award ^pid <p> ^o <o2>)]
  (test (< <o1> <o2>))
-->
  (redact <j>))
(wm (pool ^id 1 ^state free) (order ^id 1) (order ^id 2) (order ^id 3))
`
	runs := map[string]func() (*Engine, Result){
		"synchronous (the engine)": func() (*Engine, Result) {
			e := New(compileOK(t, src), Options{MaxCycles: 10})
			return e, runOK(t, e)
		},
		"sequential (the oracle)": func() (*Engine, Result) {
			e := sequentialEngine(compileOK(t, src), Options{MaxCycles: 10})
			return e.Engine, e.run(t)
		},
	}
	for name, run := range runs {
		e, res := run()
		if res.WriteConflicts != 0 {
			t.Errorf("%s: write conflicts = %d, want 0", name, res.WriteConflicts)
		}
		pools := e.Memory().OfTemplate("pool")
		if len(pools) != 1 || pools[0].Fields[1] != wm.Int(1) {
			t.Errorf("%s: pool state %v, want order 1", name, pools)
		}
	}
}

func TestRedactionIdenticalAcrossWorkers(t *testing.T) {
	// The meta level sees the same eligible set whatever order the object
	// level reports it in, so a conflict-heavy workload must redact
	// identically under either matcher.
	load := func(e *Engine) {
		for p := int64(0); p < 30; p++ {
			if _, err := e.Insert("pool", map[string]wm.Value{"id": wm.Int(p), "state": wm.Sym("free")}); err != nil {
				t.Fatal(err)
			}
		}
		for o := int64(0); o < 20; o++ {
			if _, err := e.Insert("order", map[string]wm.Value{"id": wm.Int(o)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	state := func(f match.Factory) (string, Result) {
		prog := compileOK(t, `
(literalize pool id state)
(literalize order id)
(literalize award pool order)
(rule propose
  (pool ^id <p> ^state free)
  (order ^id <o>)
-->
  (make award ^pool <p> ^order <o>)
  (remove 1))
(metarule one-per-pool
  [<i> (propose ^p <p> ^o <o1>)]
  [<j> (propose ^p <p> ^o <o2>)]
  (test (< <o1> <o2>))
-->
  (redact <j>))
`)
		e := New(prog, Options{Matcher: f, MaxCycles: 1000})
		load(e)
		res := runOK(t, e)
		s := ""
		for _, w := range e.Memory().Snapshot() {
			s += w.String() + "\n"
		}
		return s, res
	}
	ref, refRes := state(rete.New)
	got, res := state(treat.New)
	if got != ref {
		t.Error("treat: redaction diverged from rete")
	}
	if res.Redactions != refRes.Redactions || res.Firings != refRes.Firings {
		t.Errorf("treat: counters differ from rete: %+v vs %+v", res, refRes)
	}
	if refRes.Redactions == 0 {
		t.Fatal("workload produced no redactions; the test is vacuous")
	}
}
