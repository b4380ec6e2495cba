package compile

import (
	"fmt"
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
func (t MetaDisjTest) Matches(v wm.Value) bool {
	for _, x := range t.Vals {
		if v == x {
			return true
		}
	}
	return false
}

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

// MetaLevel is the program's meta-rules lowered onto the ordinary match
// machinery. Every eligible instantiation of an object rule that some
// meta-pattern names is reified as a WME of that rule's image template,
// and every MetaRule becomes an ordinary Rule over those templates, so a
// RETE or TREAT network maintains the meta-matches incrementally from
// conflict-set deltas. The image templates live in a schema of their own:
// image WMEs never enter the program's working memory.
//
// A MetaLevel is immutable after Compile, like the Program that owns it;
// the per-session match state is the engine's.
type MetaLevel struct {
	Schema *wm.Schema
	// Rules[i] is MetaRules[i] lowered: one positive condition element per
	// instantiation pattern, same Name and Index, no actions. Which of its
	// elements a match redacts stays on MetaRules[i].Redacts.
	Rules []*Rule
	// Images is indexed by object-rule Index; nil for rules no
	// meta-pattern names, whose instantiations are never reified.
	Images []*Image
}

// Image is the reified form of one object rule's instantiations: a
// template with one field per rule variable (in name order), then the
// hidden fields `.id` (the image's own identity, so that patterns can be
// told to bind distinct instantiations), `.tag` (the instantiation's
// recency tag) and `.t0 … .tn` (its time-tag vector, which orders
// instantiations of one rule). Variable names cannot start with a dot.
type Image struct {
	Tmpl *wm.Template
	// vars[f] is the binding copied into field f.
	vars []VarRef
}

func newImage(schema *wm.Schema, r *Rule) *Image {
	names := make([]string, 0, len(r.Bindings))
	for name := range r.Bindings {
		names = append(names, name)
	}
	sort.Strings(names)
	im := &Image{vars: make([]VarRef, len(names))}
	for i, name := range names {
		im.vars[i] = r.Bindings[name]
	}
	attrs := append(names, ".id", ".tag")
	for ce := 0; ce < r.NumPositive; ce++ {
		attrs = append(attrs, fmt.Sprintf(".t%d", ce))
	}
	tmpl, err := schema.Declare(r.Name, attrs...)
	if err != nil {
		panic("compile: image template: " + err.Error()) // rule and variable names are already unique
	}
	im.Tmpl = tmpl
	return im
}

func (im *Image) idField() int         { return len(im.vars) }
func (im *Image) tagField() int        { return len(im.vars) + 1 }
func (im *Image) timeField(ce int) int { return len(im.vars) + 2 + ce }

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
// vector. id must be unique among the images alive at one time; it is
// also the image WME's time tag.
func (im *Image) Reify(id int64, vec []*wm.WME) *wm.WME {
	fields := make([]wm.Value, im.Tmpl.Arity())
	for f, ref := range im.vars {
		fields[f] = vec[ref.CE].Fields[ref.Field]
	}
	fields[im.idField()] = wm.Int(id)
	var tag int64
	for ce, w := range vec {
		fields[im.timeField(ce)] = wm.Int(w.Time)
		if w.Time > tag {
			tag = w.Time
		}
	}
	fields[im.tagField()] = wm.Int(tag)
	return &wm.WME{Time: id, Tmpl: im.Tmpl, Fields: fields}
}

// lowerMetaRules builds the program's MetaLevel (nil without meta-rules).
func lowerMetaRules(p *Program) *MetaLevel {
	if len(p.MetaRules) == 0 {
		return nil
	}
	ml := &MetaLevel{Schema: wm.NewSchema(), Images: make([]*Image, len(p.Rules))}
	for _, m := range p.MetaRules {
		for _, pat := range m.Patterns {
			if ml.Images[pat.Rule.Index] == nil {
				ml.Images[pat.Rule.Index] = newImage(ml.Schema, pat.Rule)
			}
		}
	}
	for _, m := range p.MetaRules {
		ml.Rules = append(ml.Rules, ml.lowerMetaRule(m))
	}
	return ml
}

// image returns the image of the rule that pattern pat of m names.
func (ml *MetaLevel) image(m *MetaRule, pat int) *Image {
	return ml.Images[m.Patterns[pat].Rule.Index]
}

// lowerMetaRule translates one meta-rule. Pattern tests map one to one
// onto condition-element tests over image fields; "patterns bind distinct
// instantiations" becomes an inequality on `.id` between every two
// patterns of the same rule; `(test …)` expressions become filters on the
// last pattern they mention.
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
		for j := 0; j < i; j++ {
			if m.Patterns[j].Rule == pat.Rule {
				ce.JoinTests = append(ce.JoinTests, JoinTest{Field: im.idField(), Op: OpNe, OtherCE: j, OtherField: im.idField()})
			}
		}
		r.Specificity += 1 + len(ce.ConstTests) + len(ce.DisjTests) + len(ce.IntraTests) + len(ce.JoinTests)
		r.CEs = append(r.CEs, ce)
	}
	for _, t := range m.Tests {
		level := 0
		attachFilter(r, ml.lowerMetaExpr(m, t, &level), level)
		r.Specificity++
	}
	return r
}

// lowerMetaExpr rewrites a meta-rule test over image fields and raises
// *level to the last pattern it reads. `(rulename <i>)` is a constant;
// `(precedes <i> <j>)` is a constant between different rules (the rule
// index decides the instantiation order) and a lexicographic comparison of
// the two time-tag vectors within one.
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
		im := ml.image(m, e.Pat)
		call := func(op Builtin, args ...*Expr) *Expr { return &Expr{Kind: ECall, Op: op, Args: args} }
		var out *Expr
		for ce := a.NumPositive - 1; ce >= 0; ce-- {
			f := im.timeField(ce)
			lt := call(BLt, ref(e.Pat, f), ref(e.Pat2, f))
			if out == nil {
				out = lt
			} else {
				out = call(BOr, lt, call(BAnd, call(BEq, ref(e.Pat, f), ref(e.Pat2, f)), out))
			}
		}
		return out
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
