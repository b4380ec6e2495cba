// Package reorder implements the classic production-system join-ordering
// optimization: condition elements of a rule are rearranged
// most-constrained-first so that beta-level joins see small intermediate
// results. OPS5 programmers did this by hand; PARULEL-era compilers did
// it statically, which is what this pass reproduces (BenchmarkReorder
// measures the effect on a deliberately badly ordered program).
//
// The pass is source-to-source: it permutes a rule's LHS and remaps
// numeric designators in the RHS, then the ordinary compiler re-derives
// binding sites and join tests for the new order.
//
// Constraints preserved:
//   - negated elements and (test …) filters are placed only after every
//     variable they reference is bound by an earlier positive element;
//   - relative order of (test …) filters and negated elements among
//     themselves is kept stable;
//   - element variables keep working unchanged; numeric (modify 2 …) /
//     (remove 1 …) designators are rewritten to the new positions.
//
// Note on semantics: reordering changes each instantiation's WME vector
// order, which `(tag …)`-free programs never observe, but programs whose
// meta-rules break ties with `(precedes <i> <j>)` may prefer different
// (equally conflict-free) winners, and OPS5-MEA's first-element recency
// refers to the new first element. The optimization is therefore opt-in.
package reorder

import (
	"fmt"

	"parulel/internal/lang"
)

// Program returns a copy of the program with every rule's LHS reordered
// most-constrained-first. Rules that cannot be safely reordered are left
// unchanged.
func Program(prog *lang.Program) *lang.Program {
	out := &lang.Program{
		Templates: prog.Templates,
		MetaRules: prog.MetaRules,
		Facts:     prog.Facts,
	}
	for _, r := range prog.Rules {
		out.Rules = append(out.Rules, Rule(r))
	}
	return out
}

// Rule returns the rule with its LHS reordered, or the original rule if
// reordering is impossible (it never is for compile-valid rules) or a
// no-op.
func Rule(r *lang.Rule) *lang.Rule {
	order := planOrder(r.LHS)
	if order == nil {
		return r
	}
	identity := true
	for i, j := range order {
		if i != j {
			identity = false
			break
		}
	}
	if identity {
		return r
	}
	lhs := make([]*lang.CondElem, len(order))
	// oldToNew maps original 1-based positions to new 1-based positions.
	oldToNew := make(map[int]int, len(order))
	for newIdx, oldIdx := range order {
		lhs[newIdx] = r.LHS[oldIdx]
		oldToNew[oldIdx+1] = newIdx + 1
	}
	rhs := make([]lang.Action, len(r.RHS))
	for i, a := range r.RHS {
		rhs[i] = remapAction(a, oldToNew)
	}
	return &lang.Rule{Pos: r.Pos, Name: r.Name, LHS: lhs, RHS: rhs}
}

// score rates how constraining a positive pattern is when placed next:
// higher is better. Constant-ish tests narrow the candidate set; variables
// already bound become joins (also narrowing); free variables widen.
func score(ce *lang.CondElem, bound map[string]bool) int {
	s := 0
	for _, slot := range ce.Pattern.Slots {
		switch t := slot.Term.(type) {
		case lang.ConstTerm:
			s += 3
		case lang.DisjTerm:
			s += 2
		case lang.VarTerm:
			if bound[t.Name] {
				s += 2
			} else {
				s--
			}
		case lang.PredTerm:
			if v, ok := t.Arg.(lang.VarTerm); ok {
				if bound[v.Name] {
					s += 1
				}
			} else {
				s += 2
			}
		}
	}
	return s
}

// vars collects the variables a condition element references.
func vars(ce *lang.CondElem) map[string]bool {
	out := make(map[string]bool)
	if ce.Test != nil {
		exprVars(ce.Test, out)
		return out
	}
	for _, slot := range ce.Pattern.Slots {
		switch t := slot.Term.(type) {
		case lang.VarTerm:
			out[t.Name] = true
		case lang.PredTerm:
			if v, ok := t.Arg.(lang.VarTerm); ok {
				out[v.Name] = true
			}
		}
	}
	return out
}

func exprVars(e lang.Expr, out map[string]bool) {
	switch e := e.(type) {
	case *lang.VarExpr:
		out[e.Name] = true
	case *lang.CallExpr:
		for _, a := range e.Args {
			exprVars(a, out)
		}
	}
}

// binds collects the variables a positive element can bind (bare
// occurrences).
func binds(ce *lang.CondElem) map[string]bool {
	out := make(map[string]bool)
	for _, slot := range ce.Pattern.Slots {
		if v, ok := slot.Term.(lang.VarTerm); ok {
			out[v.Name] = true
		}
	}
	return out
}

// planOrder computes the new order as indexes into the original LHS, or
// nil when no valid order exists.
func planOrder(lhs []*lang.CondElem) []int {
	placed := make([]bool, len(lhs))
	bound := make(map[string]bool)
	var order []int
	for len(order) < len(lhs) {
		best := -1
		bestScore := 0
		for i, ce := range lhs {
			if placed[i] {
				continue
			}
			if ce.Test != nil || ce.Negated {
				// Guards become placeable once their variables are bound;
				// place them eagerly (they only narrow). Variables local
				// to a negated element (bound nowhere else) are allowed.
				ok := true
				for v := range vars(ce) {
					if bound[v] {
						continue
					}
					if ce.Negated && !boundAnywhereOutside(lhs, i, v) {
						continue // local to the negation
					}
					ok = false
					break
				}
				if ok {
					best = i
					break
				}
				continue
			}
			if !predDepsSatisfied(ce, bound) {
				continue // e.g. (b ^x (<> <v>)) before <v> is bound
			}
			if s := score(ce, bound); best == -1 || s > bestScore {
				best = i
				bestScore = s
			}
		}
		if best == -1 {
			return nil // should not happen for compile-valid rules
		}
		placed[best] = true
		order = append(order, best)
		if ce := lhs[best]; ce.Pattern != nil && !ce.Negated {
			for v := range binds(ce) {
				bound[v] = true
			}
		}
	}
	return order
}

// predDepsSatisfied reports whether a positive element's predicate
// variable arguments are bound, either by earlier elements or by earlier
// slots of the same element (the compiler's boundness rule).
func predDepsSatisfied(ce *lang.CondElem, bound map[string]bool) bool {
	local := make(map[string]bool)
	for _, slot := range ce.Pattern.Slots {
		switch t := slot.Term.(type) {
		case lang.VarTerm:
			local[t.Name] = true
		case lang.PredTerm:
			if v, ok := t.Arg.(lang.VarTerm); ok && !bound[v.Name] && !local[v.Name] {
				return false
			}
		}
	}
	return true
}

// boundAnywhereOutside reports whether variable v occurs as a bare
// (bindable) occurrence in any positive element other than index self.
func boundAnywhereOutside(lhs []*lang.CondElem, self int, v string) bool {
	for i, ce := range lhs {
		if i == self || ce.Pattern == nil || ce.Negated {
			continue
		}
		if binds(ce)[v] {
			return true
		}
	}
	return false
}

func remapAction(a lang.Action, oldToNew map[int]int) lang.Action {
	remap := func(d lang.Designator) lang.Designator {
		if d.Var != "" || d.Index == 0 {
			return d
		}
		n, ok := oldToNew[d.Index]
		if !ok {
			// Compile-invalid designator; leave it for the compiler to
			// reject with its usual message.
			return d
		}
		return lang.Designator{Pos: d.Pos, Index: n}
	}
	switch a := a.(type) {
	case *lang.ModifyAction:
		return &lang.ModifyAction{Pos: a.Pos, Target: remap(a.Target), Slots: a.Slots}
	case *lang.RemoveAction:
		targets := make([]lang.Designator, len(a.Targets))
		for i, d := range a.Targets {
			targets[i] = remap(d)
		}
		return &lang.RemoveAction{Pos: a.Pos, Targets: targets}
	default:
		return a
	}
}

// Describe renders the new LHS order of a rule for tooling output.
func Describe(r *lang.Rule) string {
	s := ""
	for i, ce := range r.LHS {
		if i > 0 {
			s += " "
		}
		switch {
		case ce.Test != nil:
			s += "(test)"
		case ce.Negated:
			s += fmt.Sprintf("-(%s)", ce.Pattern.Type)
		default:
			s += fmt.Sprintf("(%s)", ce.Pattern.Type)
		}
	}
	return s
}
