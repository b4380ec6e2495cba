package core

import (
	"testing"
	"time"

	"parulel/internal/compile"
	"parulel/internal/match"
	"parulel/internal/wm"
)

// oracleRedactor is the per-cycle redaction joiner the engine used before
// meta-rules were lowered and matched incrementally (redact.go), kept as
// the differential oracle: it re-derives every meta-match from scratch from
// the eligible set and the unlowered compile.MetaRule, sharing nothing
// with the lowering, the join plans or the witnesses.
//
// Semantics (synchronous): every meta-rule is matched against the eligible
// set; all redactions justified by those matches apply simultaneously, so
// the outcome is independent of meta-rule ordering and tuple enumeration
// order, and two instantiations that each justify redacting the other both
// die.
//
// It also keeps the two ablations it carried: the nested-loop path without
// the equality index (E7) and the sequential semantics (E8) — meta-rules
// apply in declaration order with immediate effect, so a redacted
// instantiation cannot justify later redactions.
type oracleRedactor struct {
	metas []*compile.MetaRule
	// noIndex disables the equality-join hash index (ablation experiment
	// E7) and forces nested-loop tuple enumeration.
	noIndex bool
	// sequential switches to the alternative semantics explored by E8:
	// meta-rules apply in declaration order with immediate effect, so a
	// redacted instantiation can no longer justify later redactions.
	// Synchronous semantics can over-kill (two instantiations that each
	// justify redacting the other both die); sequential semantics keeps
	// the first and spares everything it dominates transitively.
	sequential bool
}

// newOracle builds the synchronous, indexed oracle for a program; tests
// flip noIndex and sequential on the result.
func newOracle(prog *compile.Program) *oracleRedactor {
	return &oracleRedactor{metas: prog.MetaRules}
}

// run computes the surviving instantiations, the number of rounds (0 or
// 1), and the number of redacted instantiations.
func (r *oracleRedactor) run(eligible []*match.Instantiation) ([]*match.Instantiation, int, int) {
	if len(r.metas) == 0 || len(eligible) == 0 {
		return eligible, 0, 0
	}
	dead := r.kills(eligible)
	if len(dead) == 0 {
		return eligible, 0, 0
	}
	survivors := eligible[:0:0]
	for _, in := range eligible {
		if dead[in.Key()] == 0 {
			survivors = append(survivors, in)
		}
	}
	return survivors, 1, len(eligible) - len(survivors)
}

// kills counts, per redacted instantiation, the matching tuples that redact
// it, once per mention in the meta-rule's redact list: what the meta level
// must keep a witness for exactly when it is not zero.
func (r *oracleRedactor) kills(eligible []*match.Instantiation) map[match.Key]int {
	dead := make(map[match.Key]int)
	byRule := make(map[*compile.Rule][]*match.Instantiation)
	for _, in := range eligible {
		byRule[in.Rule] = append(byRule[in.Rule], in)
	}
	for _, m := range r.metas {
		r.matchMeta(m, r.buildStates(m, byRule), dead)
	}
	return dead
}

// patState holds one pattern's pre-filtered candidates and optional
// equality-join index. States are built once per meta-rule.
type patState struct {
	cands   []*match.Instantiation
	eqTest  *compile.MetaJoinTest
	index   map[wm.Value][]*match.Instantiation
	restIdx int // index of eqTest within JoinTests, -1 if none
}

// buildStates pre-filters each pattern's candidates by its constant,
// disjunction and intra-instantiation tests, and builds a hash index on
// the pattern's first equality join test (the common case — e.g. "same
// pool") to avoid quadratic blowup on large conflict sets.
func (r *oracleRedactor) buildStates(m *compile.MetaRule, byRule map[*compile.Rule][]*match.Instantiation) []patState {
	states := make([]patState, len(m.Patterns))
	for i, p := range m.Patterns {
		var cands []*match.Instantiation
		for _, in := range byRule[p.Rule] {
			if metaAlphaPasses(p, in) {
				cands = append(cands, in)
			}
		}
		st := patState{cands: cands, restIdx: -1}
		if !r.noIndex {
			for j := range p.JoinTests {
				if p.JoinTests[j].Op == compile.OpEq {
					st.eqTest = &p.JoinTests[j]
					st.restIdx = j
					break
				}
			}
		}
		if st.eqTest != nil {
			st.index = make(map[wm.Value][]*match.Instantiation, len(cands))
			for _, in := range cands {
				k := in.Binding(st.eqTest.Ref)
				st.index[k] = append(st.index[k], in)
			}
		}
		states[i] = st
	}
	return states
}

// matchMeta enumerates the tuples of distinct instantiations matching the
// meta-rule's patterns, counting redaction targets in dead. Under
// synchronous semantics every match's targets are recorded but matching
// keeps using the full set; under sequential semantics dead instantiations
// are skipped and a completed match kills its targets immediately.
func (r *oracleRedactor) matchMeta(m *compile.MetaRule, states []patState, dead map[match.Key]int) {
	tuple := make([]*match.Instantiation, len(m.Patterns))
	used := make(map[match.Key]bool, len(m.Patterns))
	var choose func(i int)
	choose = func(i int) {
		if i == len(m.Patterns) {
			if r.sequential {
				// Immediate effect: a tuple only matches if all its
				// members are still alive at this point.
				for _, in := range tuple {
					if dead[in.Key()] > 0 {
						return
					}
				}
			}
			env := metaEnv{tuple: tuple}
			for _, t := range m.Tests {
				v, err := t.Eval(env)
				if err != nil || !v.Truthy() {
					return
				}
			}
			for _, pi := range m.Redacts {
				dead[tuple[pi].Key()]++
			}
			return
		}
		st := &states[i]
		p := m.Patterns[i]
		cands := st.cands
		if st.eqTest != nil {
			probe := tuple[st.eqTest.OtherPat].Binding(st.eqTest.OtherRef)
			cands = st.index[probe]
		}
	cand:
		for _, in := range cands {
			if used[in.Key()] {
				continue // patterns bind distinct instantiations
			}
			if r.sequential && dead[in.Key()] > 0 {
				continue
			}
			for j, jt := range p.JoinTests {
				if j == st.restIdx {
					continue // satisfied by the index probe
				}
				if !jt.Op.Apply(in.Binding(jt.Ref), tuple[jt.OtherPat].Binding(jt.OtherRef)) {
					continue cand
				}
			}
			tuple[i] = in
			used[in.Key()] = true
			choose(i + 1)
			delete(used, in.Key())
			tuple[i] = nil
		}
	}
	choose(0)
}

// redacts reports whether tuple, one instantiation per pattern, matches the
// meta-rule m and names victim among those it redacts: the oracle's check
// of one witness the meta level keeps.
func (r *oracleRedactor) redacts(m *compile.MetaRule, tuple []*match.Instantiation, victim *match.Instantiation) bool {
	if len(tuple) != len(m.Patterns) {
		return false
	}
	for i, p := range m.Patterns {
		in := tuple[i]
		if in.Rule != p.Rule || !metaAlphaPasses(p, in) {
			return false
		}
		for _, other := range tuple[:i] {
			if other.Key() == in.Key() {
				return false // patterns bind distinct instantiations
			}
		}
		for _, jt := range p.JoinTests {
			if !jt.Op.Apply(in.Binding(jt.Ref), tuple[jt.OtherPat].Binding(jt.OtherRef)) {
				return false
			}
		}
	}
	for _, t := range m.Tests {
		if v, err := t.Eval(metaEnv{tuple: tuple}); err != nil || !v.Truthy() {
			return false
		}
	}
	for _, pi := range m.Redacts {
		if tuple[pi] == victim {
			return true
		}
	}
	return false
}

// metaAlphaPasses checks a pattern's per-instantiation tests.
func metaAlphaPasses(p *compile.InstPattern, in *match.Instantiation) bool {
	for _, t := range p.ConstTests {
		if !t.Op.Apply(in.Binding(t.Ref), t.Val) {
			return false
		}
	}
	for _, t := range p.DisjTests {
		if !t.Matches(in.Binding(t.Ref)) {
			return false
		}
	}
	for _, t := range p.IntraTests {
		if !t.Op.Apply(in.Binding(t.Ref), in.Binding(t.OtherRef)) {
			return false
		}
	}
	return true
}

// metaEnv implements compile.MetaEnv for meta-rule test evaluation.
type metaEnv struct {
	tuple []*match.Instantiation
}

func (m metaEnv) Ref(compile.VarRef) wm.Value { panic("core: meta test has no object context") }
func (m metaEnv) Local(int) wm.Value          { panic("core: meta test has no object context") }
func (m metaEnv) MetaVal(pat int, ref compile.VarRef) wm.Value {
	return m.tuple[pat].Binding(ref)
}
func (m metaEnv) MetaTag(pat int) int64       { return m.tuple[pat].Tag() }
func (m metaEnv) MetaRuleName(pat int) string { return m.tuple[pat].Rule.Name }
func (m metaEnv) MetaPrecedes(pat, pat2 int) bool {
	return m.tuple[pat].Compare(m.tuple[pat2]) < 0
}

// observeStep runs one engine cycle and reconstructs, from the refraction
// set before it and the engine's state after it, the eligible set the
// cycle's redact phase saw and the survivors it let fire: eligible is the
// conflict set minus what was refracted going in (a match phase only ever
// removes refraction entries), and the survivors are the eligible
// instantiations refracted coming out.
func observeStep(t testing.TB, e *Engine) (eligible, survivors []*match.Instantiation, progress bool) {
	t.Helper()
	before := make(map[*match.Instantiation]bool, e.refracted)
	for _, s := range e.cs {
		if s.fired {
			before[s.in] = true
		}
	}
	progress, err := e.Step()
	if err != nil {
		t.Fatalf("step: %v", err)
	}
	checkTable(t, e)
	for _, s := range e.cs {
		if before[s.in] {
			continue
		}
		eligible = append(eligible, s.in)
		if s.fired {
			survivors = append(survivors, s.in)
		}
	}
	match.SortInstantiations(eligible)
	match.SortInstantiations(survivors)
	return eligible, survivors, progress
}

// checkTable checks the engine's conflict-set table between cycles: each
// entry sits at the index its instantiation carries, the refraction count
// counts, the restored refraction set is gone, and an entry holds an image,
// its own instantiation's, exactly while it is eligible and a meta-pattern
// names its rule. It returns those images.
func checkTable(t testing.TB, e *Engine) (images []*image) {
	t.Helper()
	refracted := 0
	for i, s := range e.cs {
		if s.in.Slot != i {
			t.Fatalf("entry %d holds %v, which says it is at %d", i, s.in, s.in.Slot)
		}
		if s.fired {
			refracted++
		}
		if want := !s.fired && e.meta.reifies(s.in); (s.img != nil) != want || s.img != nil && s.img.in != s.in {
			t.Fatalf("entry %d (%v, fired=%v): image %v, want one of its own: %v", i, s.in, s.fired, s.img, want)
		}
		if s.img != nil {
			images = append(images, s.img)
		}
	}
	if refracted != e.refracted || e.restored != nil {
		t.Fatalf("%d entries have fired, the engine counts %d; restored set left: %v", refracted, e.refracted, e.restored != nil)
	}
	return images
}

// sameInstantiations reports whether two sorted instantiation lists hold
// the same keys.
func sameInstantiations(a, b []*match.Instantiation) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Key() != b[i].Key() {
			return false
		}
	}
	return true
}

// runAgainstOracle runs e to quiescence, checking every cycle that the
// engine fired exactly the instantiations the oracle keeps from the same
// eligible set (and redacted as many), and that one round is the oracle's
// fixpoint: redacting the survivors again removes nothing.
func runAgainstOracle(t *testing.T, e *Engine, oracle *oracleRedactor) {
	t.Helper()
	for cycle := 1; ; cycle++ {
		redactedBefore := e.result.Redactions
		eligible, survivors, progress := observeStep(t, e)
		want, _, redacted := oracle.run(eligible)
		if !sameInstantiations(want, survivors) {
			t.Fatalf("cycle %d: engine fired %v of eligible %v, oracle keeps %v", cycle, survivors, eligible, want)
		}
		if got := e.result.Redactions - redactedBefore; got != redacted {
			t.Fatalf("cycle %d: engine counted %d redactions, oracle %d", cycle, got, redacted)
		}
		if again, _, n := oracle.run(want); n != 0 || !sameInstantiations(again, want) {
			t.Fatalf("cycle %d: a second round redacted %d more of %v", cycle, n, want)
		}
		if !progress {
			return
		}
		if cycle > 1<<16 {
			t.Fatal("no quiescence")
		}
	}
}

// oracleEngine is an Engine whose redact phase is the oracle's: the cycle
// skeleton of Engine.Step over the same match, fire and commit code, with
// the meta level switched off. It exists to run whole programs under the
// sequential semantics, which the engine no longer offers.
type oracleEngine struct {
	*Engine
	oracle *oracleRedactor
	// redactTime accumulates the time spent in the oracle (benchmarks).
	redactTime time.Duration
}

func newOracleEngine(prog *compile.Program, opts Options) *oracleEngine {
	e := New(prog, opts)
	e.meta = nil
	return &oracleEngine{Engine: e, oracle: newOracle(prog)}
}

func (e *oracleEngine) run(t testing.TB) Result {
	t.Helper()
	for !e.halted {
		e.applyDelta(e.takePending())
		var eligible []*match.Instantiation
		for _, s := range e.cs {
			if !s.fired {
				eligible = append(eligible, s.in)
			}
		}
		if len(eligible) == 0 {
			break
		}
		match.SortInstantiations(eligible)
		t0 := time.Now()
		survivors, rounds, redacted := e.oracle.run(eligible)
		e.redactTime += time.Since(t0)
		e.result.Redactions += redacted
		e.result.RedactionRounds += rounds
		e.result.Cycles++
		if len(survivors) == 0 {
			break
		}
		effects, err := e.fireAll(survivors)
		if err != nil {
			t.Fatalf("fire: %v", err)
		}
		for _, in := range survivors {
			e.cs[in.Slot].fired = true
		}
		e.refracted += len(survivors)
		e.result.Firings += len(survivors)
		delta, conflicts, halted, err := e.commit(effects)
		clear(effects)
		if err != nil {
			t.Fatalf("commit: %v", err)
		}
		e.result.WriteConflicts += conflicts
		e.pending, e.halted, e.result.Halted = delta, halted, halted
		if e.result.Cycles > 1<<16 {
			t.Fatal("no quiescence")
		}
	}
	return e.result
}
