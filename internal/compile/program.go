// Package compile performs semantic analysis of parsed PARULEL programs
// and produces the compiled representation shared by the match networks
// (RETE, TREAT) and the execution engines (the PARULEL parallel-firing
// engine and the OPS5 baseline).
//
// Compilation resolves attribute names to field positions, rule variables
// to (condition-element, field) references, splits pattern tests into
// alpha-level constant tests, intra-element tests and beta-level join
// tests, compiles expressions to a small evaluable form, and checks the
// static rules of the language (boundness, designator validity, meta-rule
// references).
package compile

import (
	"cmp"
	"fmt"

	"parulel/internal/lang"
	"parulel/internal/wm"
)

// Program is a compiled PARULEL program, immutable after Compile and safe
// to share across engines and matchers on any goroutines.
type Program struct {
	Schema    *wm.Schema
	Rules     []*Rule
	MetaRules []*MetaRule
	// Meta is MetaRules lowered onto the match network — what the engine
	// runs. nil when the program has no meta-rules.
	Meta  *MetaLevel
	Facts []InitialFact
	// Temporal is the compiled temporal specification (nil when the
	// program declares no ttl or window forms).
	Temporal *Temporal
	byName   map[string]*Rule
}

// RuleByName returns the compiled object rule with the given name.
func (p *Program) RuleByName(name string) (*Rule, bool) {
	r, ok := p.byName[name]
	return r, ok
}

// InitialFact is one WME to insert before the first cycle.
type InitialFact struct {
	Tmpl   *wm.Template
	Fields []wm.Value
}

// Temporal is the compiled temporal specification: per-template TTL
// defaults and sliding-window aggregate declarations, in source order.
// The temporal clock (internal/temporal) interprets it at run time; the
// matchers never see it — window aggregates are ordinary WMEs of the
// auto-declared aggregate templates, matched by ordinary join tests.
type Temporal struct {
	TTLs    []TTLSpec
	Windows []WindowSpec
	agg     map[string]bool
}

// IsAggregate reports whether the named template is a window aggregate
// (maintained exclusively by the temporal clock).
func (t *Temporal) IsAggregate(name string) bool {
	return t != nil && t.agg[name]
}

// TTLSpec is a compiled `(ttl …)` declaration: facts of Tmpl expire
// Ticks logical ticks after absorption.
type TTLSpec struct {
	Tmpl  *wm.Template
	Ticks int64
}

// WindowSpec is a compiled `(window …)` declaration. Agg is the
// auto-declared aggregate template `(literalize name key count sum min
// max)`: one WME per distinct key value with facts in the window, with
// sum/min/max nil unless ^val named a source attribute. Exactly one of
// Ticks (facts born within the last Ticks logical ticks) and Last (the
// last Last facts per key) is positive.
type WindowSpec struct {
	Name     string
	Agg      *wm.Template
	Source   *wm.Template
	KeyField int
	ValField int // -1 when the window only counts
	Ticks    int64
	Last     int64
}

// Rule is a compiled object-level production.
type Rule struct {
	Name  string
	Index int // declaration order; part of the deterministic instantiation order
	// CEs holds the pattern condition elements (positive and negated) in
	// source order; `(test …)` elements are compiled into Filters on the
	// latest CE whose bindings they need.
	CEs []*CondElem
	// NumPositive is the number of positive CEs, which is the length of
	// every instantiation's WME vector for this rule.
	NumPositive int
	// Bindings maps each rule variable to its defining occurrence in a
	// positive CE.
	Bindings map[string]VarRef
	// Actions is the compiled RHS.
	Actions []*Action
	// NumLocals is the number of `(bind …)` slots the RHS needs.
	NumLocals int
	// Specificity counts LHS tests, for OPS5 conflict resolution.
	Specificity int
	// Source retains the AST for tools (copy-and-constrain re-printing).
	Source *lang.Rule
}

// VarRef locates a variable's value within an instantiation: field Field
// of the WME matched by positive condition element CE.
type VarRef struct {
	CE    int // index among *positive* CEs
	Field int
}

// PredOp is a compiled comparison operator.
type PredOp uint8

// Comparison operators. OpEq/OpNe on pattern constants written bare
// (`^a 5`) use strict value equality so they can be hash-indexed; the
// explicit forms and all relational operators compare numerically across
// int/float and fall back to the deterministic total order otherwise.
const (
	OpEq    PredOp = iota // strict equality (hash-indexable)
	OpNumEq               // numeric-tolerant equality: (= …)
	OpNe                  // negation of OpNumEq: (<> …)
	OpLt
	OpLe
	OpGt
	OpGe
)

func (op PredOp) String() string {
	switch op {
	case OpEq:
		return "=="
	case OpNumEq:
		return "="
	case OpNe:
		return "<>"
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	default:
		return fmt.Sprintf("PredOp(%d)", uint8(op))
	}
}

// Apply evaluates the comparison on two values. Two ints a float64 holds
// exactly compare as ints: the answer converting them gives, without the
// conversion.
func (op PredOp) Apply(a, b wm.Value) bool {
	if op == OpEq {
		return a == b
	}
	if a.Kind == wm.KindInt && b.Kind == wm.KindInt && exactInt(a.I) && exactInt(b.I) {
		return op.test(cmp.Compare(a.I, b.I))
	}
	switch op {
	case OpNumEq:
		return a.NumEqual(b)
	case OpNe:
		return !a.NumEqual(b)
	}
	return op.test(predCompare(a, b))
}

// test reports whether op holds between two values that compare as c.
func (op PredOp) test(c int) bool {
	switch op {
	case OpNumEq:
		return c == 0
	case OpNe:
		return c != 0
	case OpLt:
		return c < 0
	case OpLe:
		return c <= 0
	case OpGt:
		return c > 0
	case OpGe:
		return c >= 0
	default:
		return false
	}
}

// exactInt reports whether float64 represents i exactly, as it does every
// int within ±2^53.
func exactInt(i int64) bool { return -1<<53 <= i && i <= 1<<53 }

// predCompare orders two values for relational operators: numerically when
// both are numeric (ints and floats compare equal when numerically equal),
// otherwise by the deterministic total order.
func predCompare(a, b wm.Value) int {
	if a.IsNumeric() && b.IsNumeric() {
		x, y := a.AsFloat(), b.AsFloat()
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		default:
			return 0
		}
	}
	return a.Compare(b)
}

// ConstTest is an alpha-level test: a field compared with a constant.
type ConstTest struct {
	Field int
	Op    PredOp
	Val   wm.Value
}

// DisjTest is an alpha-level disjunction test (`<< a b c >>`): the field
// must strictly equal one of the values.
type DisjTest struct {
	Field int
	Vals  []wm.Value
}

// Matches reports whether v equals one of the disjunction's values.
func (t DisjTest) Matches(v wm.Value) bool {
	for _, x := range t.Vals {
		if v == x {
			return true
		}
	}
	return false
}

// IntraTest compares two fields of the same WME (the same variable bound
// twice within one pattern, or a predicate against an earlier field of the
// same element).
type IntraTest struct {
	Field      int
	Op         PredOp
	OtherField int
}

// JoinTest compares a field of this CE's candidate WME with a field of a
// WME already matched by an earlier positive CE.
type JoinTest struct {
	Field      int
	Op         PredOp
	OtherCE    int // index among positive CEs, < this CE's PosIndex
	OtherField int
}

// CondElem is a compiled pattern condition element.
type CondElem struct {
	Tmpl    *wm.Template
	Negated bool
	// PosIndex is the index among positive CEs, or -1 for negated CEs.
	PosIndex int
	// BetaLevel is the number of positive CEs joined *before* this element;
	// for a positive CE this equals PosIndex.
	BetaLevel  int
	ConstTests []ConstTest
	DisjTests  []DisjTest
	IntraTests []IntraTest
	JoinTests  []JoinTest
	// Filters are compiled `(test …)` expressions evaluated once this CE
	// (and everything before it) has matched. Only attached to positive
	// CEs.
	Filters []*Expr
	// EqConsts lists the subset of ConstTests with OpEq, which alpha
	// networks may hash on. It aliases entries of ConstTests.
	EqConsts []ConstTest
}

// MatchesAlpha reports whether a WME passes this CE's template, constant
// and intra-element tests (everything checkable without a join context).
func (ce *CondElem) MatchesAlpha(w *wm.WME) bool {
	if w.Tmpl != ce.Tmpl {
		return false
	}
	for _, t := range ce.ConstTests {
		if !t.Op.Apply(w.Fields[t.Field], t.Val) {
			return false
		}
	}
	for _, t := range ce.DisjTests {
		if !t.Matches(w.Fields[t.Field]) {
			return false
		}
	}
	for _, t := range ce.IntraTests {
		if !t.Op.Apply(w.Fields[t.Field], w.Fields[t.OtherField]) {
			return false
		}
	}
	return true
}

// ActionKind discriminates compiled RHS actions.
type ActionKind uint8

// Action kinds.
const (
	ActMake ActionKind = iota
	ActModify
	ActRemove
	ActBind
	ActWrite
	ActHalt
)

// SlotAssign assigns an expression result to a field.
type SlotAssign struct {
	Field int
	Expr  *Expr
}

// Action is one compiled RHS action.
type Action struct {
	Kind    ActionKind
	Tmpl    *wm.Template // ActMake
	Slots   []SlotAssign // ActMake, ActModify
	Target  int          // ActModify: positive CE index
	Targets []int        // ActRemove: positive CE indexes
	Local   int          // ActBind: local slot
	Exprs   []*Expr      // ActWrite arguments
}
