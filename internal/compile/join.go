package compile

import (
	"slices"

	"parulel/internal/wm"
)

// Pattern is one condition element as a seeded join runs it: the memory of
// the members passing its alpha tests, and the join a member entering or
// leaving it runs (internal/match/seeded). The meta level runs those of its
// lowered meta-rules, TREAT those PlanJoins makes of object rules.
type Pattern struct {
	ID int
	// Rule is the position of CE's rule among the rules planned together —
	// for the meta level MetaLevel.Rules, where it is the rule's Index — and
	// Pat the CE's slot in a tuple: its PosIndex when it is positive,
	// NumPositive plus its rank among the rule's negated CEs when it is not.
	Rule, Pat int
	CE        *CondElem
	// Indexed lists the fields the memory is hash-indexed on: the fields
	// OpEq join tests read here that some seeded join probes. An index is
	// built on both sides of such a test, so a seed at either pattern can
	// probe the other.
	Indexed []int
	// Pos is where this memory's positions start in a member's link vector
	// (Layout.NumPos): the member's place in the memory's list, then its
	// place in its bucket of each index.
	Pos int
	// Seed is the join a member entering or leaving this memory runs, and
	// Victim reports that a match of the pattern's meta-rule redacts the
	// member held here.
	Seed   Join
	Victim bool
}

// Layout lists the patterns over one template — the memories a member may
// be held in — and NumPos the length of its link vector (Pattern.Pos).
type Layout struct {
	Tmpl     *wm.Template
	Patterns []*Pattern
	NumPos   int
}

// Join enumerates the tuples of a rule that hold a given member at one
// pattern, the seed: the other positive patterns are bound one per step,
// each from its memory, and each negated one is an absence check.
type Join struct {
	// Filters and Absent are the filters and absence checks that read the
	// seed alone; they run before the first step.
	Filters []*CondElem
	Absent  []Step
	Steps   []Step
}

// Step binds one more pattern of the tuple or, as an absence check,
// requires that no member of a negated pattern's memory pass its tests.
type Step struct {
	Pat *Pattern
	// Index says which of Pat.Indexed the step probes, with the value at
	// From in the tuple so far; -1 scans the whole memory.
	Index int
	From  VarRef
	// Tests are the join tests between Pat and the patterns bound before
	// it, whichever of the two they were written on, less the one the
	// probe has already satisfied.
	Tests []Test
	// Distinct lists the patterns of a meta-rule bound before Pat over the
	// same object rule, which bind distinct instantiations: the member bound
	// here must be none of theirs. An object rule may bind one WME twice;
	// NotSeed says instead that the member bound here, at a positive CE
	// before a positive seed's, is not the seed, so a tuple holding the seed
	// at several CEs is found at the first of them only.
	Distinct []int
	NotSeed  bool
	// Filters and Absent list the filters and absence checks that read
	// nothing unbound once Pat is bound.
	Filters []*CondElem
	Absent  []Step
	// Victim reports that a match of a meta-rule redacts the member bound
	// here, and LastVictim that no later step binds one a match redacts.
	Victim, LastVictim bool
}

// Test is a join test over a partial tuple: Op applied to the fields at Ref
// and Other, where a VarRef's CE is a slot.
type Test struct {
	Ref   VarRef
	Op    PredOp
	Other VarRef
}

// PlanJoins compiles the seeded joins of object rules (for
// internal/match/treat): patterns in rule then condition-element order,
// and a layout per template the rules match.
func PlanJoins(rules []*Rule) (pats []*Pattern, layouts []*Layout) {
	for i, r := range rules {
		planJoins(r, newPatterns(r, i, &pats, func(ce int) *Layout {
			for _, l := range layouts {
				if l.Tmpl == r.CEs[ce].Tmpl {
					return l
				}
			}
			layouts = append(layouts, &Layout{Tmpl: r.CEs[ce].Tmpl})
			return layouts[len(layouts)-1]
		}), nil)
	}
	for _, l := range layouts {
		l.lay()
	}
	return pats, layouts
}

// newPatterns makes a pattern of each condition element of r, the rule at
// position rule, and files it in *all and in the layout of its template.
func newPatterns(r *Rule, rule int, all *[]*Pattern, layout func(ce int) *Layout) []*Pattern {
	pats := make([]*Pattern, len(r.CEs))
	neg := r.NumPositive
	for i, ce := range r.CEs {
		slot := ce.PosIndex
		if ce.Negated {
			slot, neg = neg, neg+1
		}
		pats[i] = &Pattern{ID: len(*all), Rule: rule, Pat: slot, CE: ce}
		*all = append(*all, pats[i])
		l := layout(i)
		l.Patterns = append(l.Patterns, pats[i])
	}
	return pats
}

// lay gives each pattern of l its positions in a member's link vector.
func (l *Layout) lay() {
	for _, p := range l.Patterns {
		p.Pos = l.NumPos
		l.NumPos += 1 + len(p.Indexed)
	}
}

// planJoins compiles, for each pattern of r (pats, by condition element),
// the join seeded there. From the seed the positive patterns left are bound
// one per step: the lowest-numbered one an OpEq join test connects to a
// pattern already bound, probed through an index on that test's field, or
// failing that the lowest-numbered one left, scanned. A join test is
// checked at the step that binds the second of its two patterns; a
// condition element's filters, and a negated one's absence check, at the
// step that binds the last slot they read. meta is the meta-rule r lowers,
// whose patterns bind distinct instantiations and some of which it
// redacts; nil for an object rule.
func planJoins(r *Rule, pats []*Pattern, meta *MetaRule) {
	// reads[i] lists the slots the filters on condition element i, or its
	// tests if it is negated, read.
	reads := make([][]int, len(r.CEs))
	for i, ce := range r.CEs {
		for _, f := range ce.Filters {
			markRead(f, &reads[i])
		}
		for _, t := range ce.JoinTests {
			if ce.Negated {
				reads[i] = append(reads[i], t.OtherCE)
			}
		}
	}
	for _, seed := range pats {
		bound := make([]bool, len(r.CEs)) // by slot
		bound[seed.Pat] = true
		unbound := func(s int) bool { return !bound[s] }
		placed := make([]bool, len(r.CEs)) // by condition element
		// ready returns the filters and absence checks that have just
		// become runnable.
		ready := func() (filters []*CondElem, absent []Step) {
			for i, ce := range r.CEs {
				if placed[i] || len(ce.Filters) == 0 && !ce.Negated || slices.ContainsFunc(reads[i], unbound) {
					continue
				}
				if placed[i] = true; ce.Negated {
					absent = append(absent, probe(r, pats, bound, i))
				} else {
					filters = append(filters, ce)
				}
			}
			return filters, absent
		}
		seed.Victim = meta != nil && slices.Contains(meta.Redacts, seed.Pat)
		j := &seed.Seed
		j.Filters, j.Absent = ready()
		for step, ok := nextStep(r, pats, bound); ok; step, ok = nextStep(r, pats, bound) {
			for _, p := range pats {
				if meta != nil && bound[p.Pat] && p.CE.Tmpl == step.Pat.CE.Tmpl {
					step.Distinct = append(step.Distinct, p.Pat)
				}
			}
			step.NotSeed = meta == nil && !seed.CE.Negated && step.Pat.Pat < seed.Pat
			step.Victim = meta != nil && slices.Contains(meta.Redacts, step.Pat.Pat)
			bound[step.Pat.Pat] = true
			step.Filters, step.Absent = ready()
			j.Steps = append(j.Steps, step)
		}
		last := meta != nil
		for i := len(j.Steps) - 1; i >= 0; i-- {
			j.Steps[i].LastVictim = last
			last = last && !j.Steps[i].Victim
		}
	}
}

// markRead adds to *read every slot the lowered expression reads.
func markRead(e *Expr, read *[]int) {
	switch e.Kind {
	case ERef:
		*read = append(*read, e.Ref.CE)
	case ERefPrec:
		*read = append(*read, e.Ref.CE, e.MetaVar.CE)
	}
	for _, a := range e.Args {
		markRead(a, read)
	}
}

// nextStep picks the positive pattern a join binds next, given the slots
// bound, and gathers its tests; false when every one is bound.
func nextStep(r *Rule, pats []*Pattern, bound []bool) (Step, bool) {
	next := -1
	for q, p := range pats {
		if bound[p.Pat] || p.CE.Negated {
			continue
		}
		if next < 0 {
			next = q
		}
		probed := false
		links(r, pats, bound, q, func(t Test, _ int, _ VarRef) { probed = probed || t.Op == OpEq })
		if probed {
			next = q
			break
		}
	}
	if next < 0 {
		return Step{}, false
	}
	return probe(r, pats, bound, next), true
}

// probe builds the step that binds pattern q, or checks its absence, given
// the slots bound: the join tests between them, the first OpEq one probed
// through an index on q's field.
func probe(r *Rule, pats []*Pattern, bound []bool, q int) Step {
	step := Step{Pat: pats[q], Index: -1}
	links(r, pats, bound, q, func(t Test, field int, from VarRef) {
		if t.Op == OpEq && step.Index < 0 {
			step.Index, step.From = pats[q].indexOn(field), from
			return
		}
		step.Tests = append(step.Tests, t)
	})
	return step
}

// links calls f for every join test between pattern q and a bound slot, as
// a Test and as the field it reads on q's side and the ref on the other.
func links(r *Rule, pats []*Pattern, bound []bool, q int, f func(t Test, field int, from VarRef)) {
	self := pats[q].Pat
	for _, t := range r.CEs[q].JoinTests {
		if bound[t.OtherCE] {
			from := VarRef{CE: t.OtherCE, Field: t.OtherField}
			f(Test{Ref: VarRef{CE: self, Field: t.Field}, Op: t.Op, Other: from}, t.Field, from)
		}
	}
	for b := q + 1; b < len(r.CEs); b++ {
		if !bound[pats[b].Pat] {
			continue
		}
		for _, t := range r.CEs[b].JoinTests {
			if t.OtherCE == self {
				from := VarRef{CE: pats[b].Pat, Field: t.Field}
				f(Test{Ref: from, Op: t.Op, Other: VarRef{CE: self, Field: t.OtherField}}, t.OtherField, from)
			}
		}
	}
}

// indexOn returns the position in Indexed of the index on field f, adding
// it if it is new.
func (p *Pattern) indexOn(f int) int {
	for i, g := range p.Indexed {
		if g == f {
			return i
		}
	}
	p.Indexed = append(p.Indexed, f)
	return len(p.Indexed) - 1
}
