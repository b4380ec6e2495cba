package compile

import (
	"cmp"
	"fmt"
	"math"
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
// level (internal/core/redact.go) runs. Every MetaRule becomes a Rule over
// per-rule image templates: one condition element per instantiation
// pattern, carrying the pattern's tests over image fields. A dominance
// meta-rule (recogniseOrder) compiles to an Order as well, and the meta
// level runs that instead: its lowered Rule has no patterns and no plans.
// Every other one is a join-form meta-rule, which the meta level matches
// lazily: every eligible instantiation of an object rule some join-form
// meta-pattern names is reified as a WME of that rule's image template,
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
	// meta-pattern names. Only a rule some join-form meta-rule names has
	// its instantiations reified (Image.Patterns is not empty).
	Images []*Image
	// Patterns lists every pattern of every join-form rule, in rule then
	// pattern order; Patterns[i].ID == i.
	Patterns []*Pattern
	// Orders lists the dominance meta-rules' orders in declaration order.
	Orders []*Order
}

// Image is the reified form of one object rule's instantiations: a
// template with one field per rule variable some meta-rule reads (in name
// order), then, if some meta-rule reads them, the hidden fields `.tag` (the
// instantiation's recency tag, which `(tag …)` reads) and `.t0 … .tn` (its
// time-tag vector, which `precedes` reads to order instantiations of one
// rule). Variable names cannot start with a dot. Its layout lists the
// join-form patterns over the template, and Orders the orders over the
// rule, in declaration order (Order.Rank).
type Image struct {
	Layout
	Orders []*Order
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
		if o := recogniseOrder(m); o != nil {
			im := ml.Images[o.Rule.Index]
			o.Rank = len(im.Orders)
			im.Orders = append(im.Orders, o)
			ml.Orders = append(ml.Orders, o)
			continue
		}
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

// Order is a dominance meta-rule compiled to the order it imposes on its
// rule's instantiations: within a group — the instantiations that agree on
// Group — one redacts another when it comes first by Keys, compared in
// turn, or ties at every key and the order is not Strict. Under one-round
// semantics the survivors of a group are therefore its minimum class when
// the order is strict, and its minimum when that is alone otherwise.
type Order struct {
	// Meta is the meta-rule's index in MetaRules and MetaLevel.Rules, Rule
	// the object rule both its patterns name and Rank the order's place in
	// that rule's Image.Orders.
	Meta, Rank int
	Rule       *Rule
	// Group lists the rule variables the meta-rule's join tests equate
	// across the two instantiations, strictly (OpEq), once each.
	Group []VarRef
	// Keys are what the test compares, outermost first; none when the
	// meta-rule has no test, and every pair ties.
	Keys []OrderKey
	// Strict says that a tie at every key redacts neither side: the test's
	// last comparison is `<`, `>` or precedes, not `<=` or `>=`.
	Strict bool
	// victim is the pattern the meta-rule redacts.
	victim int
}

// OrderKey is one comparison of an Order: the value of the rule variable
// at Ref in each instantiation, or, for (precedes <i> <j>), their time-tag
// vectors. Desc says the redactor is the greater.
type OrderKey struct {
	Ref        VarRef
	Time, Desc bool
}

// recogniseOrder returns the order m imposes, or nil when m is not a
// dominance meta-rule, which is exactly when one of these fails: it has
// two patterns over one object rule; neither has a constant, disjunction or
// intra-pattern test; its only join tests are OpEq between one rule
// variable on both sides; it redacts one side; and its test is absent or
// one test that is, or nests to, (or (< x_i x_j) (and (= x_i x_j) REST)),
// or the `>` mirror of that, REST ending in `<`, `>`, `<=`, `>=` or
// (precedes <i> <j>) between the two. Anything else stays a join-form
// meta-rule.
func recogniseOrder(m *MetaRule) *Order {
	if len(m.Patterns) != 2 || m.Patterns[0].Rule != m.Patterns[1].Rule || len(m.Redacts) != 1 || len(m.Tests) > 1 {
		return nil
	}
	o := &Order{Meta: m.Index, Rule: m.Patterns[0].Rule, victim: m.Redacts[0]}
	for _, p := range m.Patterns {
		if len(p.ConstTests)+len(p.DisjTests)+len(p.IntraTests) != 0 {
			return nil
		}
		for _, t := range p.JoinTests {
			if t.Op != OpEq || t.Ref != t.OtherRef {
				return nil
			}
			if !slices.Contains(o.Group, t.Ref) {
				o.Group = append(o.Group, t.Ref)
			}
		}
	}
	if len(m.Tests) == 1 && !o.nest(m.Tests[0]) {
		return nil
	}
	return o
}

// nest reads e, the test from the next key on, into Keys and Strict.
func (o *Order) nest(e *Expr) bool {
	if e.Kind == ECall && e.Op == BOr && len(e.Args) == 2 {
		k, op, ok := o.pair(e.Args[0])
		and := e.Args[1]
		if !ok || op != OpLt && op != OpGt || and.Kind != ECall || and.Op != BAnd || len(and.Args) != 2 {
			return false
		}
		if eq, op, ok := o.pair(and.Args[0]); !ok || op != OpNumEq || eq.Ref != k.Ref {
			return false
		}
		o.Keys = append(o.Keys, k)
		return o.nest(and.Args[1])
	}
	if e.Kind == EMetaPrec && e.Pat != e.Pat2 {
		o.Keys = append(o.Keys, OrderKey{Time: true, Desc: e.Pat == o.victim})
		o.Strict = true
		return true
	}
	k, op, ok := o.pair(e)
	if !ok || op == OpNumEq {
		return false
	}
	o.Keys = append(o.Keys, k)
	o.Strict = op == OpLt || op == OpGt
	return true
}

// pair reads e as a comparison of one rule variable across the two
// instantiations, turned round to hold the redactor's value on the left:
// the key and the operator then.
func (o *Order) pair(e *Expr) (OrderKey, PredOp, bool) {
	if e.Kind != ECall || len(e.Args) != 2 {
		return OrderKey{}, 0, false
	}
	a, b := e.Args[0], e.Args[1]
	if a.Kind != EMetaRef || b.Kind != EMetaRef || a.MetaVar != b.MetaVar || a.Pat == b.Pat {
		return OrderKey{}, 0, false
	}
	switch e.Op {
	case BEq, BLt, BGt, BLe, BGe:
	default:
		return OrderKey{}, 0, false
	}
	op := cmpPred(e.Op)
	if a.Pat == o.victim {
		switch op {
		case OpLt:
			op = OpGt
		case OpGt:
			op = OpLt
		case OpLe:
			op = OpGe
		case OpGe:
			op = OpLe
		}
	}
	return OrderKey{Ref: a.MetaVar, Desc: op == OpGt || op == OpGe}, op, true
}

// Compare orders two instantiations of the rule, given their matched WME
// vectors, lexicographically by Keys: each value pair in the relational
// operators' order (predCompare, under which an int and a float compare
// numerically), each time-tag vector pair as precedes compares them. It is
// a total preorder while no key value is a float NaN (Regular), and then a
// redacts b exactly when Compare(a, b) < 0, or == 0 and the order is not
// Strict.
func (o *Order) Compare(a, b []*wm.WME) int {
	for _, k := range o.Keys {
		var c int
		if k.Time {
			c = timeCompare(a, b)
		} else if x, y := a[k.Ref.CE].Fields[k.Ref.Field], b[k.Ref.CE].Fields[k.Ref.Field]; x.Kind == wm.KindInt && y.Kind == wm.KindInt && exactInt(x.I) && exactInt(y.I) {
			c = cmp.Compare(x.I, y.I) // what predCompare finds, without converting
		} else {
			c = predCompare(x, y)
		}
		if c != 0 {
			if k.Desc {
				return -c
			}
			return c
		}
	}
	return 0
}

// Regular reports whether no key value of the instantiation is a float
// NaN, which the relational operators find equal to every number while `=`
// finds it equal to none.
func (o *Order) Regular(vec []*wm.WME) bool {
	for _, k := range o.Keys {
		if v := vec[k.Ref.CE].Fields[k.Ref.Field]; !k.Time && v.Kind == wm.KindFloat && math.IsNaN(v.F) {
			return false
		}
	}
	return true
}

// Redacts evaluates the meta-rule's test on a pair of the rule's
// instantiations, a the redactor's side and b the victim's, the way the
// compiled test does: comparison by comparison, with the operators it
// names. It is what settles a group holding a NaN key, and what explain
// counts.
func (o *Order) Redacts(a, b []*wm.WME) bool {
	for i, k := range o.Keys {
		if k.Time && k.Desc {
			return timeCompare(b, a) < 0
		} else if k.Time {
			return timeCompare(a, b) < 0
		}
		x, y := a[k.Ref.CE].Fields[k.Ref.Field], b[k.Ref.CE].Fields[k.Ref.Field]
		lt, le := OpLt, OpLe
		if k.Desc {
			lt, le = OpGt, OpGe
		}
		switch {
		case i == len(o.Keys)-1 && !o.Strict:
			return le.Apply(x, y)
		case lt.Apply(x, y):
			return true
		case i == len(o.Keys)-1 || !OpNumEq.Apply(x, y):
			return false
		}
	}
	return !o.Strict
}

// timeCompare orders two instantiations of one rule as precedes does:
// lexicographically by the time tags of their matched WMEs.
func timeCompare(a, b []*wm.WME) int {
	for i := range a {
		if c := cmp.Compare(a[i].Time, b[i].Time); c != 0 {
			return c
		}
	}
	return 0
}
