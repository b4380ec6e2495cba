// Package treat implements the TREAT match algorithm (Miranker, "TREAT: A
// Better Match Algorithm for AI Production Systems", 1987) as the
// alternative incremental matcher studied alongside RETE in the parallel
// production-system literature PARULEL belongs to.
//
// TREAT retains only the alpha memories and the conflict set — no beta
// (partial-match) state. It is the seeded-join engine of
// internal/match/seeded, which the meta level runs too, plus a conflict
// set: each CE's memory holds a record of every WME passing its alpha
// tests, and compile.PlanJoins plans the join a record entering or leaving
// it runs — positive CEs bound through an index wherever an equality test
// allows, each negated CE an absence check once what it reads is bound. A
// WME's record enters or leaves all its memories at once, and:
//
//   - at a positive CE, an added WME adds each tuple it completes, and a
//     removed one drops its tuples by key before its record leaves;
//   - at a negated CE, an added WME drops the tuples it now blocks before
//     its record enters, and a removed one adds the tuples it alone
//     blocked after its record has left.
//
// The classic trade-off reproduced by experiment E4: cheaper memory and
// cheap removals, but join work is repeated on every addition, which loses
// to RETE on deep join chains with small deltas.
package treat

import (
	"time"
	"unsafe"

	"parulel/internal/compile"
	"parulel/internal/match"
	"parulel/internal/match/seeded"
	"parulel/internal/wm"
)

// Options configures a Treat matcher.
type Options struct {
	// Profile attributes match time per rule: every seeded join is timed
	// and charged to its rule's profile. The activity counters (tokens,
	// probes, instantiations) are maintained regardless; Profile only
	// gates the timing.
	Profile bool
}

// ruleProf accumulates one rule's match-layer activity.
type ruleProf struct {
	seeded.Counts
	matchNS int64
	insts   uint64
}

// Treat is a TREAT matcher over a set of rules. It implements
// match.Matcher and must be used by a single goroutine.
type Treat struct {
	rules []*compile.Rule
	// layouts lists, per template the rules match, the patterns over it,
	// and w runs the joins over their memories.
	layouts []*compile.Layout
	w       seeded.Walker
	// conflictSet holds all current instantiations by key, and adding says
	// whether the joins in progress add what they find to it or drop it.
	conflictSet map[match.Key]*match.Instantiation
	adding      bool
	// recs[h] is the record of handle h and wmes[h] its WME; table finds
	// the handle of a WME, and free lists the handles to reuse.
	recs  []*seeded.Member
	wmes  []*wm.WME
	table match.WMETable
	free  []int32
	// pats and vec are scratch: the memories a record enters or leaves, and
	// the elements of the tuple found.
	pats    []*compile.Pattern
	vec     []*wm.WME
	coll    *match.ChangeCollector
	profs   []ruleProf
	profile bool
}

var _ match.RuleProfiler = (*Treat)(nil)

// New builds a TREAT matcher with default options for the given rules. It
// satisfies match.Factory.
func New(rules []*compile.Rule) match.Matcher { return NewWithOptions(rules, Options{}) }

// Factory returns a match.Factory that builds matchers with fixed options.
func Factory(opts Options) match.Factory {
	return func(rules []*compile.Rule) match.Matcher { return NewWithOptions(rules, opts) }
}

// NewWithOptions builds a TREAT matcher for the given rules.
func NewWithOptions(rules []*compile.Rule, opts Options) match.Matcher {
	pats, layouts := compile.PlanJoins(rules)
	t := &Treat{
		rules:       rules,
		layouts:     layouts,
		conflictSet: make(map[match.Key]*match.Instantiation),
		coll:        match.NewChangeCollector(),
		profs:       make([]ruleProf, len(rules)),
		profile:     opts.Profile,
	}
	t.w = seeded.New(pats, t.found)
	return t
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

func (t *Treat) addWME(w *wm.WME) {
	l := t.layout(w.Tmpl)
	if l == nil {
		return
	}
	pats := t.pats[:0]
	for _, p := range l.Patterns {
		if p.CE.MatchesAlpha(w) {
			pats = append(pats, p)
		}
	}
	if t.pats = pats; len(pats) == 0 {
		return
	}
	rec := &seeded.Member{W: *w, Ref: w}
	rec.Lay(l)
	t.file(rec)
	t.joins(pats, rec, true, false) // negated CEs: drop what it blocks
	for _, p := range pats {
		t.w.Mems[p.ID].Add(rec)
	}
	t.joins(pats, rec, false, true) // positive CEs: add what it completes
}

func (t *Treat) removeWME(w *wm.WME) {
	h := t.table.Remove(w, t.wmes)
	if h == 0 {
		return
	}
	rec := t.recs[h]
	t.release(h)
	pats := t.pats[:0]
	for _, p := range t.layout(w.Tmpl).Patterns {
		if rec.Held(p) {
			pats = append(pats, p)
		}
	}
	t.pats = pats
	t.joins(pats, rec, false, false) // positive CEs: drop its tuples
	for _, p := range pats {
		t.w.Mems[p.ID].Remove(rec)
	}
	t.joins(pats, rec, true, true) // negated CEs: add what it alone blocked
}

// joins runs the joins seeded at rec in those of pats whose CEs are
// negated, or not, as neg says, adding or dropping what they find.
func (t *Treat) joins(pats []*compile.Pattern, rec *seeded.Member, neg, add bool) {
	t.adding = add
	for _, p := range pats {
		if p.CE.Negated != neg {
			continue
		}
		prof := &t.profs[p.Rule]
		if !t.profile {
			t.w.Join(p, rec, &prof.Counts, true)
			continue
		}
		start := time.Now()
		t.w.Join(p, rec, &prof.Counts, true)
		prof.matchNS += time.Since(start).Nanoseconds()
	}
}

// found adds the instantiation the walker has completed to the conflict
// set, or drops it from there, as t.adding says. An object rule redacts
// nothing, so it settles no tuple.
func (t *Treat) found() bool {
	p := t.w.Seed
	r := t.rules[p.Rule]
	vec := t.vec[:0]
	for _, rec := range t.w.Tuple[:r.NumPositive] {
		vec = append(vec, rec.Ref)
	}
	t.vec = vec
	key := match.KeyOf(r, vec)
	in, held := t.conflictSet[key]
	switch {
	case t.adding && !held:
		in = match.NewInstantiation(r, vec)
		t.conflictSet[key] = in
		t.profs[p.Rule].insts++
		t.coll.Add(in)
	case !t.adding && held:
		delete(t.conflictSet, key)
		t.coll.Remove(in)
	}
	return false
}

// layout returns tmpl's layout, or nil when no CE matches it.
func (t *Treat) layout(tmpl *wm.Template) *compile.Layout {
	for _, l := range t.layouts {
		if l.Tmpl == tmpl {
			return l
		}
	}
	return nil
}

// file gives rec a handle, a freed one if there is one, and enters it in
// the table. There is no handle zero.
func (t *Treat) file(rec *seeded.Member) {
	var h int32
	if n := len(t.free); n > 0 {
		h, t.free = t.free[n-1], t.free[:n-1]
	} else {
		if len(t.recs) == 0 {
			t.recs, t.wmes = make([]*seeded.Member, 1), make([]*wm.WME, 1)
		}
		h = int32(len(t.recs))
		t.recs, t.wmes = append(t.recs, nil), append(t.wmes, nil)
	}
	t.recs[h], t.wmes[h] = rec, rec.Ref
	t.table.Put(h, t.wmes)
}

// release frees handle h, which the table no longer holds. The last record
// out releases them all.
func (t *Treat) release(h int32) {
	t.recs[h], t.wmes[h] = nil, nil
	if t.table.Len() == 0 {
		t.recs, t.wmes, t.free = nil, nil, nil
		return
	}
	t.free = append(t.free, h)
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
	for i, r := range t.rules {
		p := &t.profs[i]
		out[i] = match.RuleProfile{Rule: r.Name, MatchNS: p.matchNS, Tokens: p.Tokens, Probes: p.Probes, Insts: p.insts}
	}
	return out
}

// MemStats reports current state sizes: no beta tokens, and as Bytes the
// records, their handle tables and the memories' index tables.
func (t *Treat) MemStats() match.MemStats {
	ms := match.MemStats{ConflictSet: len(t.conflictSet), Bytes: t.table.Bytes() +
		(cap(t.recs)+cap(t.wmes))*int(unsafe.Sizeof(t.wmes[0])) + cap(t.free)*int(unsafe.Sizeof(t.free[0]))}
	for i := range t.w.Mems {
		ms.AlphaItems += t.w.Mems[i].N
		ms.Bytes += t.w.Mems[i].Bytes()
	}
	for _, rec := range t.recs {
		if rec != nil {
			ms.Bytes += rec.Bytes()
		}
	}
	return ms
}
