package compile

import (
	"fmt"
	"slices"
	"sort"

	"parulel/internal/wm"
)

// MetaRule is a compiled PARULEL redaction meta-rule. Meta-rules match
// tuples of *distinct* instantiations in the conflict set and name which of
// them to redact.
type MetaRule struct {
	Name  string
	Index int
	// Patterns are the instantiation patterns in source order.
	Patterns []*InstPattern
	// Tests are additional filters over the full tuple.
	Tests []*Expr
	// Redacts indexes Patterns: the instantiations deleted when the
	// meta-rule matches.
	Redacts []int
}

// InstPattern is a compiled instantiation pattern `[<i> (rule ^var term …)]`.
// Slot tests are split the same way object patterns are: constant tests
// evaluable on a single instantiation, intra-pattern tests between two
// variables of the same instantiation, and join tests against
// earlier patterns of the meta-rule.
type InstPattern struct {
	// Rule is the object rule whose instantiations this pattern matches.
	Rule *Rule
	// ConstTests compare an object-rule variable of the instantiation with
	// a constant.
	ConstTests []MetaConstTest
	// DisjTests require an object-rule variable to take one of a set of
	// constant values.
	DisjTests []MetaDisjTest
	// IntraTests compare two object-rule variables of the same
	// instantiation.
	IntraTests []MetaIntraTest
	// JoinTests compare an object-rule variable with one of an
	// instantiation matched by an earlier pattern.
	JoinTests []MetaJoinTest
}

// MetaConstTest compares instantiation value at Ref with a constant.
type MetaConstTest struct {
	Ref VarRef
	Op  PredOp
	Val wm.Value
}

// MetaDisjTest requires the instantiation value at Ref to equal one of
// the constants (`<< a b c >>` in an instantiation pattern).
type MetaDisjTest struct {
	Ref  VarRef
	Vals []wm.Value
}

// Matches reports whether v equals one of the disjunction's values.
func (t MetaDisjTest) Matches(v wm.Value) bool { return slices.Contains(t.Vals, v) }

// MetaIntraTest compares two values of the same instantiation.
type MetaIntraTest struct {
	Ref      VarRef
	Op       PredOp
	OtherRef VarRef
}

// MetaJoinTest compares a value of this pattern's instantiation with a
// value of the instantiation matched by pattern OtherPat (< this pattern's
// index).
type MetaJoinTest struct {
	Ref      VarRef
	Op       PredOp
	OtherPat int
	OtherRef VarRef
}

// MetaLevel is the program's meta-rules lowered to what the engine's meta
// level (internal/core/redact.go) runs. Every eligible instantiation of an
// object rule that some meta-pattern names is reified as a WME of that
// rule's image template, and every MetaRule becomes a Rule over those
// templates: one condition element per instantiation pattern, carrying the
// pattern's tests over image fields. The meta level matches them lazily —
// each pattern owns a memory of the images passing its alpha tests, and an
// image that enters or leaves is joined against the other patterns'
// memories by the plan compiled here (Pattern.Seed, join.go). The image
// templates live in a schema of their own: image WMEs never enter the
// program's working memory.
//
// A MetaLevel is immutable after Compile, like the Program that owns it;
// the per-session memories are the engine's.
type MetaLevel struct {
	Schema *wm.Schema
	// Rules[i] is MetaRules[i] lowered: one positive condition element per
	// instantiation pattern, same Name and Index, no actions. Which of its
	// elements a match redacts stays on MetaRules[i].Redacts.
	Rules []*Rule
	// Images is indexed by object-rule Index; nil for rules no
	// meta-pattern names, whose instantiations are never reified.
	Images []*Image
	// Patterns lists every pattern of every rule, in rule then pattern
	// order; Patterns[i].ID == i.
	Patterns []*Pattern
}

// Image is the reified form of one object rule's instantiations: a
// template with one field per rule variable some meta-rule reads (in name
// order), then, if some meta-rule reads them, the hidden fields `.tag` (the
// instantiation's recency tag, which `(tag …)` reads) and `.t0 … .tn` (its
// time-tag vector, which `precedes` reads to order instantiations of one
// rule). Variable names cannot start with a dot. Its layout lists the
// patterns over the template.
type Image struct {
	Layout
	// vars[f] is the binding copied into field f.
	vars       []VarRef
	tag, times bool
}

// imageReads is what the meta-rules read of one rule's instantiations.
type imageReads struct {
	vars       map[VarRef]bool
	tag, times bool
}

func newImage(schema *wm.Schema, r *Rule, read *imageReads) *Image {
	names := make([]string, 0, len(r.Bindings))
	for name, ref := range r.Bindings {
		if read.vars[ref] {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	im := &Image{vars: make([]VarRef, len(names)), tag: read.tag, times: read.times}
	for i, name := range names {
		im.vars[i] = r.Bindings[name]
	}
	attrs := names
	if im.tag {
		attrs = append(attrs, ".tag")
	}
	for ce := 0; im.times && ce < r.NumPositive; ce++ {
		attrs = append(attrs, fmt.Sprintf(".t%d", ce))
	}
	tmpl, err := schema.Declare(r.Name, attrs...)
	if err != nil {
		panic("compile: image template: " + err.Error()) // rule and variable names are already unique
	}
	im.Tmpl = tmpl
	return im
}

func (im *Image) tagField() int { return len(im.vars) }
func (im *Image) timeField(ce int) int {
	if im.tag {
		ce++
	}
	return len(im.vars) + ce
}

// field returns the image field holding the binding at ref.
func (im *Image) field(ref VarRef) int {
	for f, v := range im.vars {
		if v == ref {
			return f
		}
	}
	panic("compile: meta-rule references a binding its rule does not have")
}

// Reify builds the image of one instantiation, given its matched WME
// vector. The image's own time tag is the instantiation's recency tag.
func (im *Image) Reify(vec []*wm.WME) wm.WME {
	fields := make([]wm.Value, im.Tmpl.Arity())
	for f, ref := range im.vars {
		fields[f] = vec[ref.CE].Fields[ref.Field]
	}
	var tag int64
	for ce, w := range vec {
		if im.times {
			fields[im.timeField(ce)] = wm.Int(w.Time)
		}
		tag = max(tag, w.Time)
	}
	if im.tag {
		fields[im.tagField()] = wm.Int(tag)
	}
	return wm.WME{Time: tag, Tmpl: im.Tmpl, Fields: fields}
}

// lowerMetaRules builds the program's MetaLevel (nil without meta-rules).
func lowerMetaRules(p *Program) *MetaLevel {
	if len(p.MetaRules) == 0 {
		return nil
	}
	ml := &MetaLevel{Schema: wm.NewSchema(), Images: make([]*Image, len(p.Rules))}
	read := metaReads(p.MetaRules)
	for _, m := range p.MetaRules {
		for _, pat := range m.Patterns {
			if ml.Images[pat.Rule.Index] == nil {
				ml.Images[pat.Rule.Index] = newImage(ml.Schema, pat.Rule, read[pat.Rule])
			}
		}
	}
	for _, m := range p.MetaRules {
		r := ml.lowerMetaRule(m)
		ml.Rules = append(ml.Rules, r)
		planJoins(r, newPatterns(r, r.Index, &ml.Patterns, func(i int) *Layout { return &ml.image(m, i).Layout }), m)
	}
	for _, im := range ml.Images {
		if im != nil {
			im.lay()
		}
	}
	return ml
}

// metaReads returns, per object rule a meta-pattern names, what some
// meta-rule's tests read of its instantiations: only that is reified.
func metaReads(metas []*MetaRule) map[*Rule]*imageReads {
	read := make(map[*Rule]*imageReads)
	mark := func(r *Rule, ref VarRef) { read[r].vars[ref] = true }
	for _, m := range metas {
		for _, pat := range m.Patterns {
			if read[pat.Rule] == nil {
				read[pat.Rule] = &imageReads{vars: make(map[VarRef]bool)}
			}
			for _, t := range pat.ConstTests {
				mark(pat.Rule, t.Ref)
			}
			for _, t := range pat.DisjTests {
				mark(pat.Rule, t.Ref)
			}
			for _, t := range pat.IntraTests {
				mark(pat.Rule, t.Ref)
				mark(pat.Rule, t.OtherRef)
			}
			for _, t := range pat.JoinTests {
				mark(pat.Rule, t.Ref)
				mark(m.Patterns[t.OtherPat].Rule, t.OtherRef)
			}
		}
		var walk func(e *Expr)
		walk = func(e *Expr) {
			switch e.Kind {
			case EMetaRef:
				mark(m.Patterns[e.Pat].Rule, e.MetaVar)
			case EMetaTag:
				read[m.Patterns[e.Pat].Rule].tag = true
			case EMetaPrec: // between two rules a constant
				if r := m.Patterns[e.Pat].Rule; r == m.Patterns[e.Pat2].Rule {
					read[r].times = true
				}
			}
			for _, a := range e.Args {
				walk(a)
			}
		}
		for _, t := range m.Tests {
			walk(t)
		}
	}
	return read
}

// image returns the image of the rule that pattern pat of m names.
func (ml *MetaLevel) image(m *MetaRule, pat int) *Image {
	return ml.Images[m.Patterns[pat].Rule.Index]
}

// lowerMetaRule translates one meta-rule. Pattern tests map one to one
// onto condition-element tests over image fields and `(test …)`
// expressions become filters on the last pattern they mention. That
// patterns bind distinct instantiations is not a test: the join plans skip
// an image already in the tuple (Step.Distinct).
func (ml *MetaLevel) lowerMetaRule(m *MetaRule) *Rule {
	r := &Rule{Name: m.Name, Index: m.Index, NumPositive: len(m.Patterns), Bindings: map[string]VarRef{}}
	for i, pat := range m.Patterns {
		im := ml.image(m, i)
		ce := &CondElem{Tmpl: im.Tmpl, PosIndex: i, BetaLevel: i}
		for _, t := range pat.ConstTests {
			ce.ConstTests = append(ce.ConstTests, ConstTest{Field: im.field(t.Ref), Op: t.Op, Val: t.Val})
		}
		for _, t := range ce.ConstTests {
			if t.Op == OpEq {
				ce.EqConsts = append(ce.EqConsts, t)
			}
		}
		for _, t := range pat.DisjTests {
			ce.DisjTests = append(ce.DisjTests, DisjTest{Field: im.field(t.Ref), Vals: t.Vals})
		}
		for _, t := range pat.IntraTests {
			ce.IntraTests = append(ce.IntraTests, IntraTest{Field: im.field(t.Ref), Op: t.Op, OtherField: im.field(t.OtherRef)})
		}
		for _, t := range pat.JoinTests {
			ce.JoinTests = append(ce.JoinTests, JoinTest{
				Field: im.field(t.Ref), Op: t.Op, OtherCE: t.OtherPat, OtherField: ml.image(m, t.OtherPat).field(t.OtherRef)})
		}
		r.CEs = append(r.CEs, ce)
	}
	for _, t := range m.Tests {
		level := 0
		attachFilter(r, ml.lowerMetaExpr(m, t, &level), level)
	}
	return r
}

// lowerMetaExpr rewrites a meta-rule test over image fields and raises
// *level to the last pattern it reads. `(rulename <i>)` is a constant;
// `(precedes <i> <j>)` is a constant between different rules (the rule
// index decides the instantiation order) and one lexicographic comparison
// of the two images' time-tag fields within one.
func (ml *MetaLevel) lowerMetaExpr(m *MetaRule, e *Expr, level *int) *Expr {
	ref := func(pat, field int) *Expr {
		if pat > *level {
			*level = pat
		}
		return &Expr{Kind: ERef, Ref: VarRef{CE: pat, Field: field}}
	}
	switch e.Kind {
	case EMetaRef:
		return ref(e.Pat, ml.image(m, e.Pat).field(e.MetaVar))
	case EMetaTag:
		return ref(e.Pat, ml.image(m, e.Pat).tagField())
	case EMetaRule:
		return &Expr{Kind: EConst, Val: wm.Sym(m.Patterns[e.Pat].Rule.Name)}
	case EMetaPrec:
		a, b := m.Patterns[e.Pat].Rule, m.Patterns[e.Pat2].Rule
		if a != b {
			return &Expr{Kind: EConst, Val: wm.Bool(a.Index < b.Index)}
		}
		// One node: meta-rules that order instantiations evaluate this for
		// every candidate pair.
		t0 := ml.image(m, e.Pat).timeField(0)
		return &Expr{Kind: ERefPrec, Ref: ref(e.Pat, t0).Ref, MetaVar: ref(e.Pat2, t0).Ref, Len: a.NumPositive}
	case ECall:
		out := &Expr{Kind: ECall, Op: e.Op, Args: make([]*Expr, len(e.Args))}
		for i, a := range e.Args {
			out.Args[i] = ml.lowerMetaExpr(m, a, level)
		}
		return out
	default:
		return e
	}
}
