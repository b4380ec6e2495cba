// Package treat implements the TREAT match algorithm (Miranker, "TREAT: A
// Better Match Algorithm for AI Production Systems", 1987) as the
// alternative incremental matcher studied alongside RETE in the parallel
// production-system literature PARULEL belongs to.
//
// TREAT retains only the alpha memories and the conflict set — no beta
// (partial-match) state. On each working-memory change it re-derives the
// affected instantiations by seeded joins across the alpha memories:
//
//   - adding a WME that matches a positive CE seeds a join with that WME
//     fixed at the CE;
//   - removing such a WME deletes the conflict-set entries containing it;
//   - adding a WME that matches a negated CE deletes the instantiations it
//     now blocks;
//   - removing one re-derives the combinations it alone was blocking.
//
// Alpha memories of CEs with an equality join test carry a hash index by
// the tested field's value, so seeded joins probe one bucket per level
// instead of scanning the whole memory (Options.DisableJoinIndex restores
// the scan, as the differential tests' reference).
//
// The classic trade-off reproduced by experiment E4: cheaper memory and
// cheap removals, but join work is repeated on every addition, which loses
// to RETE on deep join chains with small deltas.
package treat

import (
	"time"

	"parulel/internal/compile"
	"parulel/internal/match"
	"parulel/internal/wm"
)

// Options configures a Treat matcher.
type Options struct {
	// DisableJoinIndex turns off the per-CE alpha-memory value indexes,
	// forcing seeded joins to scan whole alpha memories: the reference arm
	// of the differential grid (internal/core/differential_test.go). No
	// binary and no facade field sets it.
	DisableJoinIndex bool
	// Profile attributes match time per rule: each rule's slice of every
	// addWME/removeWME pass is timed and charged to the rule's profile.
	// The activity counters (tokens, probes, instantiations) are
	// maintained regardless; Profile only gates the timing.
	Profile bool
}

// ruleProf accumulates one rule's match-layer activity.
type ruleProf struct {
	matchNS int64
	tokens  uint64
	probes  uint64
	insts   uint64
}

// wmeSet is an alpha memory or one of its hash-index buckets.
type wmeSet = map[*wm.WME]struct{}

// Treat is a TREAT matcher over a partition of rules. It implements
// match.Matcher and must be used by a single goroutine.
type Treat struct {
	rules []*ruleState
	// conflictSet holds all current instantiations by key.
	conflictSet map[match.Key]*match.Instantiation
	// byWME indexes instantiations by the WMEs they contain, for O(1)
	// removal.
	byWME map[*wm.WME]map[match.Key]*match.Instantiation
	coll  *match.ChangeCollector
	// profile gates per-rule match-time attribution (the counters inside
	// each ruleState's prof are always maintained).
	profile bool
	// env is the reused environment filters are evaluated in.
	env compile.VecEnv
}

var _ match.Matcher = (*Treat)(nil)

type ruleState struct {
	rule *compile.Rule
	// alphas holds one alpha memory per condition element, in source
	// order (negated CEs included).
	alphas []wmeSet
	// eqTest[i] is the index within CEs[i].JoinTests of the equality test
	// alphaIdx[i] is keyed on, or -1 when the CE has no equality join test
	// (or indexing is disabled).
	eqTest []int
	// alphaIdx[i], when eqTest[i] >= 0, indexes alphas[i] by the tested
	// field's value so seeded joins probe a bucket instead of scanning.
	alphaIdx []map[wm.Value]wmeSet
	// insts holds this rule's current instantiations by key, for
	// negated-CE violation checks.
	insts map[match.Key]*match.Instantiation
	prof  ruleProf
}

// New builds a TREAT matcher with default options for the given rules. It
// satisfies match.Factory.
func New(rules []*compile.Rule) match.Matcher { return NewWithOptions(rules, Options{}) }

// Factory returns a match.Factory that builds matchers with fixed options.
func Factory(opts Options) match.Factory {
	return func(rules []*compile.Rule) match.Matcher { return NewWithOptions(rules, opts) }
}

// NewWithOptions builds a TREAT matcher for the given rules.
func NewWithOptions(rules []*compile.Rule, opts Options) match.Matcher {
	t := &Treat{
		conflictSet: make(map[match.Key]*match.Instantiation),
		byWME:       make(map[*wm.WME]map[match.Key]*match.Instantiation),
		coll:        match.NewChangeCollector(),
		profile:     opts.Profile,
	}
	for _, r := range rules {
		rs := &ruleState{
			rule:     r,
			alphas:   make([]wmeSet, len(r.CEs)),
			eqTest:   make([]int, len(r.CEs)),
			alphaIdx: make([]map[wm.Value]wmeSet, len(r.CEs)),
			insts:    make(map[match.Key]*match.Instantiation),
		}
		for i, ce := range r.CEs {
			rs.alphas[i] = make(wmeSet)
			rs.eqTest[i] = -1
			if opts.DisableJoinIndex {
				continue
			}
			for j := range ce.JoinTests {
				if ce.JoinTests[j].Op == compile.OpEq {
					rs.eqTest[i] = j
					rs.alphaIdx[i] = make(map[wm.Value]wmeSet)
					break
				}
			}
		}
		t.rules = append(t.rules, rs)
	}
	return t
}

// alphaInsert adds w to the CE's alpha memory and its value index.
func (rs *ruleState) alphaInsert(i int, w *wm.WME) {
	rs.alphas[i][w] = struct{}{}
	if j := rs.eqTest[i]; j >= 0 {
		v := w.Fields[rs.rule.CEs[i].JoinTests[j].Field]
		b := rs.alphaIdx[i][v]
		if b == nil {
			b = make(wmeSet)
			rs.alphaIdx[i][v] = b
		}
		b[w] = struct{}{}
	}
}

// alphaRemove removes w from the CE's alpha memory and its value index.
func (rs *ruleState) alphaRemove(i int, w *wm.WME) {
	delete(rs.alphas[i], w)
	if j := rs.eqTest[i]; j >= 0 {
		v := w.Fields[rs.rule.CEs[i].JoinTests[j].Field]
		if b := rs.alphaIdx[i][v]; b != nil {
			delete(b, w)
			if len(b) == 0 {
				delete(rs.alphaIdx[i], v)
			}
		}
	}
}

// candidates returns the alpha-memory subset worth joining at CE i given
// the bindings in vec: the index bucket for the joined value when the CE
// is indexed, the whole memory otherwise. skip reports which join test the
// bucket already guarantees (-1 when none).
func (rs *ruleState) candidates(i int, vec []*wm.WME) (cands wmeSet, skip int) {
	if j := rs.eqTest[i]; j >= 0 {
		jt := &rs.rule.CEs[i].JoinTests[j]
		return rs.alphaIdx[i][vec[jt.OtherCE].Fields[jt.OtherField]], j
	}
	return rs.alphas[i], -1
}

// Apply feeds a working-memory delta and returns conflict-set changes.
func (t *Treat) Apply(delta wm.Delta) match.Changes {
	for _, w := range delta.Removed {
		t.removeWME(w)
	}
	for _, w := range delta.Added {
		t.addWME(w)
	}
	return t.coll.Take()
}

func (t *Treat) addInst(rs *ruleState, in *match.Instantiation) {
	key := in.Key()
	if _, dup := t.conflictSet[key]; dup {
		return
	}
	rs.prof.insts++
	t.conflictSet[key] = in
	rs.insts[key] = in
	for _, w := range in.WMEs {
		idx := t.byWME[w]
		if idx == nil {
			idx = make(map[match.Key]*match.Instantiation)
			t.byWME[w] = idx
		}
		idx[key] = in
	}
	t.coll.Add(in)
}

func (t *Treat) dropInst(rs *ruleState, in *match.Instantiation) {
	key := in.Key()
	if _, ok := t.conflictSet[key]; !ok {
		return
	}
	delete(t.conflictSet, key)
	delete(rs.insts, key)
	for _, w := range in.WMEs {
		if idx := t.byWME[w]; idx != nil {
			delete(idx, key)
			if len(idx) == 0 {
				delete(t.byWME, w)
			}
		}
	}
	t.coll.Remove(in)
}

func (t *Treat) ruleStateOf(in *match.Instantiation) *ruleState {
	for _, rs := range t.rules {
		if rs.rule == in.Rule {
			return rs
		}
	}
	panic("treat: instantiation of unknown rule")
}

func (t *Treat) addWME(w *wm.WME) {
	for _, rs := range t.rules {
		if t.profile {
			start := time.Now()
			t.addWMERule(rs, w)
			rs.prof.matchNS += time.Since(start).Nanoseconds()
		} else {
			t.addWMERule(rs, w)
		}
	}
}

// addWMERule is one rule's slice of an addition: alpha maintenance plus
// the seeded joins. Split out so profiling can time it per rule.
func (t *Treat) addWMERule(rs *ruleState, w *wm.WME) {
	// First pass: insert into every matching alpha memory so joins see
	// a consistent state.
	matched := make([]int, 0, 4)
	for i, ce := range rs.rule.CEs {
		if ce.MatchesAlpha(w) {
			rs.alphaInsert(i, w)
			matched = append(matched, i)
		}
	}
	if len(matched) == 0 {
		return
	}
	// Negated matches first: they can only retract, and retracting
	// before seeding keeps the additions consistent with the new WM.
	for _, i := range matched {
		ce := rs.rule.CEs[i]
		if !ce.Negated {
			continue
		}
		for _, in := range instList(rs.insts) {
			rs.prof.probes++
			if negMatches(ce, w, in.WMEs, -1) {
				t.dropInst(rs, in)
			}
		}
	}
	for _, i := range matched {
		ce := rs.rule.CEs[i]
		if ce.Negated {
			continue
		}
		t.seedJoin(rs, ce.PosIndex, w, nil)
	}
}

func (t *Treat) removeWME(w *wm.WME) {
	// Retract instantiations containing w (positive usages) across all
	// rules.
	if idx := t.byWME[w]; idx != nil {
		for _, in := range instList(idx) {
			rs := t.ruleStateOf(in)
			if t.profile {
				start := time.Now()
				t.dropInst(rs, in)
				rs.prof.matchNS += time.Since(start).Nanoseconds()
			} else {
				t.dropInst(rs, in)
			}
		}
	}
	for _, rs := range t.rules {
		if t.profile {
			start := time.Now()
			t.removeWMERule(rs, w)
			rs.prof.matchNS += time.Since(start).Nanoseconds()
		} else {
			t.removeWMERule(rs, w)
		}
	}
}

// removeWMERule is one rule's slice of a removal: alpha maintenance plus
// removal-enablement joins for negated CEs that held the WME.
func (t *Treat) removeWMERule(rs *ruleState, w *wm.WME) {
	// Remove from the rule's alpha memories, remembering which negated
	// CEs held it.
	var negHits []int
	for i, ce := range rs.rule.CEs {
		if _, ok := rs.alphas[i][w]; !ok {
			continue
		}
		rs.alphaRemove(i, w)
		if ce.Negated {
			negHits = append(negHits, i)
		}
	}
	// Combinations that only w was blocking are now live.
	for _, i := range negHits {
		t.seedJoin(rs, -1, w, rs.rule.CEs[i])
	}
}

// instList snapshots a map of instantiations so the caller can mutate the
// map while iterating.
func instList(m map[match.Key]*match.Instantiation) []*match.Instantiation {
	out := make([]*match.Instantiation, 0, len(m))
	for _, in := range m {
		out = append(out, in)
	}
	return out
}

// negMatches reports whether WME w satisfies the negated CE's join tests
// against the positive vector vec (alpha tests are already guaranteed by
// alpha membership). skip names a join test already guaranteed by an index
// probe, or -1.
func negMatches(ce *compile.CondElem, w *wm.WME, vec []*wm.WME, skip int) bool {
	for i, jt := range ce.JoinTests {
		if i == skip {
			continue
		}
		if !jt.Op.Apply(w.Fields[jt.Field], vec[jt.OtherCE].Fields[jt.OtherField]) {
			return false
		}
	}
	return true
}

// seedJoin enumerates complete matches of rs.rule and adds them.
//
// With seedPos >= 0, the WME seed is fixed at positive CE seedPos, and to
// avoid generating the same combination from two seed positions when the
// seed matches several CEs, positions before seedPos exclude the seed.
//
// With seedPos < 0, negSeed names a negated CE and seed the WME just
// removed from its alpha memory: only combinations that seed *would have
// blocked* are enumerated (removal-enablement).
func (t *Treat) seedJoin(rs *ruleState, seedPos int, seed *wm.WME, negSeed *compile.CondElem) {
	vec := make([]*wm.WME, rs.rule.NumPositive)
	t.joinFrom(rs, 0, vec, seedPos, seed, negSeed)
}

func (t *Treat) joinFrom(rs *ruleState, ceIdx int, vec []*wm.WME, seedPos int, seed *wm.WME, negSeed *compile.CondElem) {
	if ceIdx == len(rs.rule.CEs) {
		t.addInst(rs, match.NewInstantiation(rs.rule, vec))
		return
	}
	ce := rs.rule.CEs[ceIdx]
	if ce.Negated {
		// The negation must hold over the bindings established so far
		// (all its join tests reference earlier positive CEs). Indexed
		// CEs only need to check the bucket of the joined value.
		cands, skip := rs.candidates(ceIdx, vec)
		for w := range cands {
			rs.prof.probes++
			if negMatches(ce, w, vec, skip) {
				return
			}
		}
		// Removal-enablement: the removed WME must have been blocking this
		// combination.
		if ce == negSeed && !negMatches(ce, seed, vec, -1) {
			return
		}
		t.joinFrom(rs, ceIdx+1, vec, seedPos, seed, negSeed)
		return
	}
	p := ce.PosIndex
	tryWME := func(w *wm.WME, skip int) {
		rs.prof.probes++
		for i, jt := range ce.JoinTests {
			if i == skip {
				continue
			}
			if !jt.Op.Apply(w.Fields[jt.Field], vec[jt.OtherCE].Fields[jt.OtherField]) {
				return
			}
		}
		vec[p] = w
		t.env.Vec = vec[:p+1]
		if match.EvalFilters(ce, &t.env) {
			rs.prof.tokens++
			t.joinFrom(rs, ceIdx+1, vec, seedPos, seed, negSeed)
		}
		vec[p] = nil
	}
	if p == seedPos {
		tryWME(seed, -1)
		return
	}
	cands, skip := rs.candidates(ceIdx, vec)
	for w := range cands {
		if seedPos >= 0 && w == seed && p < seedPos {
			continue // dedup: earlier positions exclude the seed
		}
		tryWME(w, skip)
	}
}

// ConflictSet returns the current instantiations in deterministic order.
func (t *Treat) ConflictSet() []*match.Instantiation {
	out := make([]*match.Instantiation, 0, len(t.conflictSet))
	for _, in := range t.conflictSet {
		out = append(out, in)
	}
	match.SortInstantiations(out)
	return out
}

// RuleProfiles returns per-rule match activity in declaration order.
// MatchNS is populated only when the matcher was built with
// Options.Profile; counters are always live.
func (t *Treat) RuleProfiles() []match.RuleProfile {
	out := make([]match.RuleProfile, len(t.rules))
	for i, rs := range t.rules {
		out[i] = match.RuleProfile{
			Rule:    rs.rule.Name,
			MatchNS: rs.prof.matchNS,
			Tokens:  rs.prof.tokens,
			Probes:  rs.prof.probes,
			Insts:   rs.prof.insts,
		}
	}
	return out
}

var _ match.RuleProfiler = (*Treat)(nil)

// MemStats reports current state sizes. TREAT holds no beta tokens.
func (t *Treat) MemStats() match.MemStats {
	var ms match.MemStats
	for _, rs := range t.rules {
		for _, a := range rs.alphas {
			ms.AlphaItems += len(a)
		}
	}
	ms.ConflictSet = len(t.conflictSet)
	return ms
}
