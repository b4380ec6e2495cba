package compile

import (
	"fmt"

	"parulel/internal/lang"
	"parulel/internal/wm"
)

// CompileError is a semantic error with source position.
type CompileError struct {
	Pos lang.Pos
	Msg string
}

func (e *CompileError) Error() string { return fmt.Sprintf("%s: compile: %s", e.Pos, e.Msg) }

func cerrf(pos lang.Pos, format string, args ...any) *CompileError {
	return &CompileError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// Compile performs semantic analysis of a parsed program and lowers every
// root expression of the result to bytecode.
func Compile(src *lang.Program) (*Program, error) {
	p, err := analyze(src)
	if err != nil {
		return nil, err
	}
	lowerProgram(p)
	return p, nil
}

// CompileUnlowered builds the program Compile builds and attaches no
// bytecode, so every expression in it runs on the tree walker. It is the
// reference the differential tests hold a compiled program to, and nothing
// outside tests calls it.
func CompileUnlowered(src *lang.Program) (*Program, error) { return analyze(src) }

func analyze(src *lang.Program) (*Program, error) {
	p := &Program{
		Schema: wm.NewSchema(),
		byName: make(map[string]*Rule),
	}
	for _, td := range src.Templates {
		if _, err := p.Schema.Declare(td.Name, td.Attrs...); err != nil {
			return nil, cerrf(td.Pos, "%v", err)
		}
	}
	if err := compileTemporal(p, src); err != nil {
		return nil, err
	}
	for _, fd := range src.Facts {
		for _, f := range fd.Facts {
			tmpl, ok := p.Schema.Lookup(f.Type)
			if !ok {
				return nil, cerrf(f.Pos, "wm fact of undeclared template %q", f.Type)
			}
			if p.Temporal.IsAggregate(f.Type) {
				return nil, cerrf(f.Pos, "wm fact of window aggregate template %q (maintained by the temporal clock)", f.Type)
			}
			fields := make([]wm.Value, tmpl.Arity())
			for _, s := range f.Slots {
				i, ok := tmpl.AttrIndex(s.Attr)
				if !ok {
					return nil, cerrf(f.Pos, "template %q has no attribute %q", f.Type, s.Attr)
				}
				fields[i] = s.Val
			}
			p.Facts = append(p.Facts, InitialFact{Tmpl: tmpl, Fields: fields})
		}
	}
	for _, rs := range src.Rules {
		if _, dup := p.byName[rs.Name]; dup {
			return nil, cerrf(rs.Pos, "rule %q redeclared", rs.Name)
		}
		r, err := compileRule(p, rs)
		if err != nil {
			return nil, err
		}
		r.Index = len(p.Rules)
		p.Rules = append(p.Rules, r)
		p.byName[r.Name] = r
	}
	metaNames := make(map[string]bool)
	for _, ms := range src.MetaRules {
		if metaNames[ms.Name] {
			return nil, cerrf(ms.Pos, "metarule %q redeclared", ms.Name)
		}
		metaNames[ms.Name] = true
		m, err := compileMetaRule(p, ms)
		if err != nil {
			return nil, err
		}
		m.Index = len(p.MetaRules)
		p.MetaRules = append(p.MetaRules, m)
	}
	p.Meta = lowerMetaRules(p)
	return p, nil
}

// compileTemporal validates the program's ttl and window declarations,
// auto-declares window aggregate templates, and attaches the compiled
// Temporal spec. Windows are processed first so TTL declarations naming
// an aggregate template are caught.
func compileTemporal(p *Program, src *lang.Program) error {
	if len(src.TTLs) == 0 && len(src.Windows) == 0 {
		return nil
	}
	t := &Temporal{agg: make(map[string]bool)}
	for _, wd := range src.Windows {
		srcTmpl, ok := p.Schema.Lookup(wd.Source)
		if !ok {
			return cerrf(wd.Pos, "window %q over undeclared template %q", wd.Name, wd.Source)
		}
		if t.agg[wd.Source] {
			return cerrf(wd.Pos, "window %q over window aggregate template %q", wd.Name, wd.Source)
		}
		agg, err := p.Schema.Declare(wd.Name, "key", "count", "sum", "min", "max")
		if err != nil {
			return cerrf(wd.Pos, "window %q: %v", wd.Name, err)
		}
		spec := WindowSpec{Name: wd.Name, Agg: agg, Source: srcTmpl, KeyField: -1, ValField: -1}
		for _, s := range wd.Slots {
			switch s.Attr {
			case "key", "val":
				if s.Val.Kind != wm.KindSym {
					return cerrf(wd.Pos, "window %q: ^%s expects a source attribute name", wd.Name, s.Attr)
				}
				f, ok := srcTmpl.AttrIndex(s.Val.S)
				if !ok {
					return cerrf(wd.Pos, "window %q: source template %q has no attribute %q", wd.Name, wd.Source, s.Val.S)
				}
				if s.Attr == "key" {
					spec.KeyField = f
				} else {
					spec.ValField = f
				}
			case "ticks", "last":
				if s.Val.Kind != wm.KindInt || s.Val.I < 1 {
					return cerrf(wd.Pos, "window %q: ^%s expects a positive integer", wd.Name, s.Attr)
				}
				if s.Attr == "ticks" {
					spec.Ticks = s.Val.I
				} else {
					spec.Last = s.Val.I
				}
			default:
				return cerrf(wd.Pos, "window %q: unknown option ^%s (want key, ticks, last or val)", wd.Name, s.Attr)
			}
		}
		if spec.KeyField < 0 {
			return cerrf(wd.Pos, "window %q: ^key is required", wd.Name)
		}
		if (spec.Ticks > 0) == (spec.Last > 0) {
			return cerrf(wd.Pos, "window %q: exactly one of ^ticks and ^last is required", wd.Name)
		}
		t.agg[wd.Name] = true
		t.Windows = append(t.Windows, spec)
	}
	seen := make(map[string]bool)
	for _, td := range src.TTLs {
		if t.agg[td.Tmpl] {
			return cerrf(td.Pos, "ttl on window aggregate template %q", td.Tmpl)
		}
		tmpl, ok := p.Schema.Lookup(td.Tmpl)
		if !ok {
			return cerrf(td.Pos, "ttl on undeclared template %q", td.Tmpl)
		}
		if seen[td.Tmpl] {
			return cerrf(td.Pos, "ttl on template %q redeclared", td.Tmpl)
		}
		if td.Ticks < 1 {
			return cerrf(td.Pos, "ttl %s: tick count must be positive, got %d", td.Tmpl, td.Ticks)
		}
		seen[td.Tmpl] = true
		t.TTLs = append(t.TTLs, TTLSpec{Tmpl: tmpl, Ticks: td.Ticks})
	}
	p.Temporal = t
	return nil
}

// ruleCtx carries the state of one rule compilation.
type ruleCtx struct {
	prog     *Program
	rule     *Rule
	bindings map[string]VarRef // rule variables (from positive CEs)
	// itemPos maps 1-based source LHS item index to positive CE index
	// (-1 when the item is negated or a test).
	itemPos []int
	// binders maps element variables to positive CE indexes.
	binders map[string]int
	locals  map[string]int // RHS (bind …) slots
}

func predOpOf(op string) PredOp {
	switch op {
	case "=":
		return OpNumEq
	case "<>":
		return OpNe
	case "<":
		return OpLt
	case "<=":
		return OpLe
	case ">":
		return OpGt
	case ">=":
		return OpGe
	default:
		panic("compile: parser admitted bad predicate op " + op)
	}
}

func compileRule(prog *Program, rs *lang.Rule) (*Rule, error) {
	r := &Rule{
		Name:     rs.Name,
		Bindings: make(map[string]VarRef),
		Source:   rs,
	}
	ctx := &ruleCtx{
		prog:     prog,
		rule:     r,
		bindings: r.Bindings,
		binders:  make(map[string]int),
		locals:   make(map[string]int),
	}

	// Deferred (test …) elements that could not be attached yet because no
	// positive CE had been compiled when they were seen.
	type pendingTest struct {
		expr *Expr
		pos  lang.Pos
	}
	var deferred []pendingTest

	for _, item := range rs.LHS {
		if item.Test != nil {
			e, level, err := ctx.compileLHSExpr(item.Test, item.Pos)
			if err != nil {
				return nil, err
			}
			ctx.itemPos = append(ctx.itemPos, -1)
			if r.NumPositive == 0 {
				deferred = append(deferred, pendingTest{expr: e, pos: item.Pos})
				continue
			}
			attachFilter(r, e, level)
			r.Specificity++
			continue
		}
		ce, err := ctx.compileCondElem(item)
		if err != nil {
			return nil, err
		}
		r.CEs = append(r.CEs, ce)
		if ce.Negated {
			ctx.itemPos = append(ctx.itemPos, -1)
		} else {
			ctx.itemPos = append(ctx.itemPos, ce.PosIndex)
			if item.Binder != "" {
				if _, dup := ctx.binders[item.Binder]; dup {
					return nil, cerrf(item.Pos, "rule %s: element variable <%s> bound twice", r.Name, item.Binder)
				}
				if _, clash := ctx.bindings[item.Binder]; clash {
					return nil, cerrf(item.Pos, "rule %s: <%s> used as both element and value variable", r.Name, item.Binder)
				}
				ctx.binders[item.Binder] = ce.PosIndex
			}
			// Attach tests that were waiting for the first positive CE.
			for _, pt := range deferred {
				attachFilter(r, pt.expr, 0)
				r.Specificity++
			}
			deferred = nil
		}
		r.Specificity += 1 + len(item.Pattern.Slots)
	}
	if r.NumPositive == 0 {
		return nil, cerrf(rs.Pos, "rule %s: at least one positive pattern element is required", r.Name)
	}

	for _, a := range rs.RHS {
		ca, err := ctx.compileAction(a)
		if err != nil {
			return nil, err
		}
		r.Actions = append(r.Actions, ca)
	}
	r.NumLocals = len(ctx.locals)
	return r, nil
}

// attachFilter attaches a compiled test expression at the given positive-CE
// level (it runs once that CE has joined).
func attachFilter(r *Rule, e *Expr, level int) {
	// Find the pattern CE with that positive index.
	for _, ce := range r.CEs {
		if ce.PosIndex == level {
			ce.Filters = append(ce.Filters, e)
			return
		}
	}
	panic(fmt.Sprintf("compile: no positive CE at level %d", level))
}

func (ctx *ruleCtx) compileCondElem(item *lang.CondElem) (*CondElem, error) {
	pat := item.Pattern
	tmpl, ok := ctx.prog.Schema.Lookup(pat.Type)
	if !ok {
		return nil, cerrf(pat.Pos, "rule %s: pattern of undeclared template %q", ctx.rule.Name, pat.Type)
	}
	ce := &CondElem{
		Tmpl:      tmpl,
		Negated:   item.Negated,
		PosIndex:  -1,
		BetaLevel: ctx.rule.NumPositive,
	}
	if !item.Negated {
		ce.PosIndex = ctx.rule.NumPositive
		ctx.rule.NumPositive++
	}
	// localVars: variables whose first (and only legal) occurrences are
	// inside this negated CE.
	localVars := make(map[string]int)
	for _, slot := range pat.Slots {
		field, ok := tmpl.AttrIndex(slot.Attr)
		if !ok {
			return nil, cerrf(slot.Pos, "rule %s: template %q has no attribute %q", ctx.rule.Name, pat.Type, slot.Attr)
		}
		if err := ctx.compileTerm(ce, slot, field, localVars); err != nil {
			return nil, err
		}
	}
	for _, t := range ce.ConstTests {
		if t.Op == OpEq {
			ce.EqConsts = append(ce.EqConsts, t)
		}
	}
	return ce, nil
}

func (ctx *ruleCtx) compileTerm(ce *CondElem, slot *lang.Slot, field int, localVars map[string]int) error {
	switch t := slot.Term.(type) {
	case lang.ConstTerm:
		ce.ConstTests = append(ce.ConstTests, ConstTest{Field: field, Op: OpEq, Val: t.Val})
		return nil
	case lang.DisjTerm:
		ce.DisjTests = append(ce.DisjTests, DisjTest{Field: field, Vals: t.Vals})
		return nil
	case lang.VarTerm:
		return ctx.compileVarOccurrence(ce, slot.Pos, t.Name, field, OpEq, localVars, true)
	case lang.PredTerm:
		op := predOpOf(t.Op)
		switch arg := t.Arg.(type) {
		case lang.ConstTerm:
			ce.ConstTests = append(ce.ConstTests, ConstTest{Field: field, Op: op, Val: arg.Val})
			return nil
		case lang.VarTerm:
			return ctx.compileVarOccurrence(ce, slot.Pos, arg.Name, field, op, localVars, false)
		default:
			return cerrf(slot.Pos, "rule %s: bad predicate argument", ctx.rule.Name)
		}
	default:
		return cerrf(slot.Pos, "rule %s: bad pattern term", ctx.rule.Name)
	}
}

// compileVarOccurrence handles a variable occurrence at the given field.
// canBind says whether this occurrence may become the variable's defining
// occurrence (bare `^a <x>` can; `^a (> <x>)` cannot).
func (ctx *ruleCtx) compileVarOccurrence(ce *CondElem, pos lang.Pos, name string, field int, op PredOp, localVars map[string]int, canBind bool) error {
	// Same element first: intra-element test.
	if other, ok := localVars[name]; ok {
		ce.IntraTests = append(ce.IntraTests, IntraTest{Field: field, Op: op, OtherField: other})
		return nil
	}
	if ref, ok := ctx.bindings[name]; ok {
		if !ce.Negated && ref.CE == ce.PosIndex {
			ce.IntraTests = append(ce.IntraTests, IntraTest{Field: field, Op: op, OtherField: ref.Field})
			return nil
		}
		ce.JoinTests = append(ce.JoinTests, JoinTest{Field: field, Op: op, OtherCE: ref.CE, OtherField: ref.Field})
		return nil
	}
	if _, isBinder := ctx.binders[name]; isBinder {
		return cerrf(pos, "rule %s: <%s> is an element variable and cannot match a field", ctx.rule.Name, name)
	}
	if !canBind {
		return cerrf(pos, "rule %s: predicate on unbound variable <%s>", ctx.rule.Name, name)
	}
	if ce.Negated {
		// First occurrence inside a negated element: the variable is
		// local to this element.
		localVars[name] = field
		return nil
	}
	ctx.bindings[name] = VarRef{CE: ce.PosIndex, Field: field}
	localVars[name] = field
	return nil
}

// compileLHSExpr compiles a `(test …)` expression. It returns the compiled
// expression and the binding level: the highest positive-CE index among the
// variables it references (0 if it references none).
func (ctx *ruleCtx) compileLHSExpr(e lang.Expr, pos lang.Pos) (*Expr, int, error) {
	level := 0
	var walk func(e lang.Expr) (*Expr, error)
	walk = func(e lang.Expr) (*Expr, error) {
		switch e := e.(type) {
		case *lang.ConstExpr:
			return &Expr{Kind: EConst, Val: e.Val}, nil
		case *lang.VarExpr:
			ref, ok := ctx.bindings[e.Name]
			if !ok {
				return nil, cerrf(e.Pos, "rule %s: test references unbound variable <%s>", ctx.rule.Name, e.Name)
			}
			if ref.CE > level {
				level = ref.CE
			}
			return &Expr{Kind: ERef, Ref: ref}, nil
		case *lang.CallExpr:
			op, ok := builtinNames[e.Op]
			if !ok {
				return nil, cerrf(e.Pos, "rule %s: unknown builtin %q", ctx.rule.Name, e.Op)
			}
			if err := checkArity(e, op); err != nil {
				return nil, err
			}
			out := &Expr{Kind: ECall, Op: op, Args: make([]*Expr, len(e.Args))}
			for i, a := range e.Args {
				ca, err := walk(a)
				if err != nil {
					return nil, err
				}
				out.Args[i] = ca
			}
			return out, nil
		default:
			return nil, cerrf(pos, "rule %s: bad expression", ctx.rule.Name)
		}
	}
	ce, err := walk(e)
	if err != nil {
		return nil, 0, err
	}
	return ce, level, nil
}

func checkArity(e *lang.CallExpr, op Builtin) error {
	n := len(e.Args)
	switch op {
	case BNot, BAbs, BHash:
		if n != 1 {
			return cerrf(e.Pos, "%s expects 1 argument, got %d", e.Op, n)
		}
	case BEq, BNe, BLt, BLe, BGt, BGe, BMod:
		if n != 2 {
			return cerrf(e.Pos, "%s expects 2 arguments, got %d", e.Op, n)
		}
	case BIf:
		if n != 3 {
			return cerrf(e.Pos, "if expects 3 arguments (cond then else), got %d", n)
		}
	case BCrlf, BTabto:
		if n != 0 {
			return cerrf(e.Pos, "%s expects no arguments, got %d", e.Op, n)
		}
	case BSub, BSymcat:
		if n < 1 {
			return cerrf(e.Pos, "%s expects at least 1 argument", e.Op)
		}
	case BAdd, BMul, BDiv, BMin, BMax, BAnd, BOr:
		if n < 2 {
			return cerrf(e.Pos, "%s expects at least 2 arguments, got %d", e.Op, n)
		}
	}
	return nil
}

// compileRHSExpr compiles an RHS expression, which may reference rule
// variables and previously bound locals.
func (ctx *ruleCtx) compileRHSExpr(e lang.Expr, pos lang.Pos) (*Expr, error) {
	switch e := e.(type) {
	case *lang.ConstExpr:
		return &Expr{Kind: EConst, Val: e.Val}, nil
	case *lang.VarExpr:
		if ref, ok := ctx.bindings[e.Name]; ok {
			return &Expr{Kind: ERef, Ref: ref}, nil
		}
		if idx, ok := ctx.locals[e.Name]; ok {
			return &Expr{Kind: ELocal, Local: idx}, nil
		}
		return nil, cerrf(e.Pos, "rule %s: action references unbound variable <%s>", ctx.rule.Name, e.Name)
	case *lang.CallExpr:
		op, ok := builtinNames[e.Op]
		if !ok {
			return nil, cerrf(e.Pos, "rule %s: unknown builtin %q", ctx.rule.Name, e.Op)
		}
		if err := checkArity(e, op); err != nil {
			return nil, err
		}
		out := &Expr{Kind: ECall, Op: op, Args: make([]*Expr, len(e.Args))}
		for i, a := range e.Args {
			ca, err := ctx.compileRHSExpr(a, pos)
			if err != nil {
				return nil, err
			}
			out.Args[i] = ca
		}
		return out, nil
	default:
		return nil, cerrf(pos, "rule %s: bad expression", ctx.rule.Name)
	}
}

func (ctx *ruleCtx) resolveDesignator(d lang.Designator) (int, error) {
	if d.Var != "" {
		if idx, ok := ctx.binders[d.Var]; ok {
			return idx, nil
		}
		return 0, cerrf(d.Pos, "rule %s: <%s> is not an element variable", ctx.rule.Name, d.Var)
	}
	if d.Index < 1 || d.Index > len(ctx.itemPos) {
		return 0, cerrf(d.Pos, "rule %s: element index %d out of range (1..%d)", ctx.rule.Name, d.Index, len(ctx.itemPos))
	}
	pos := ctx.itemPos[d.Index-1]
	if pos < 0 {
		return 0, cerrf(d.Pos, "rule %s: element %d is negated or a test and cannot be modified or removed", ctx.rule.Name, d.Index)
	}
	return pos, nil
}

// positiveCE returns the compiled positive CE with the given index.
func (ctx *ruleCtx) positiveCE(pos int) *CondElem {
	for _, ce := range ctx.rule.CEs {
		if ce.PosIndex == pos {
			return ce
		}
	}
	panic("compile: missing positive CE")
}

func (ctx *ruleCtx) compileAction(a lang.Action) (*Action, error) {
	switch a := a.(type) {
	case *lang.MakeAction:
		tmpl, ok := ctx.prog.Schema.Lookup(a.Type)
		if !ok {
			return nil, cerrf(a.Pos, "rule %s: make of undeclared template %q", ctx.rule.Name, a.Type)
		}
		if ctx.prog.Temporal.IsAggregate(a.Type) {
			return nil, cerrf(a.Pos, "rule %s: make of window aggregate template %q (maintained by the temporal clock)", ctx.rule.Name, a.Type)
		}
		slots, err := ctx.compileActionSlots(tmpl, a.Type, a.Slots)
		if err != nil {
			return nil, err
		}
		return &Action{Kind: ActMake, Tmpl: tmpl, Slots: slots}, nil
	case *lang.ModifyAction:
		pos, err := ctx.resolveDesignator(a.Target)
		if err != nil {
			return nil, err
		}
		tmpl := ctx.positiveCE(pos).Tmpl
		if ctx.prog.Temporal.IsAggregate(tmpl.Name) {
			return nil, cerrf(a.Pos, "rule %s: modify of window aggregate template %q (maintained by the temporal clock)", ctx.rule.Name, tmpl.Name)
		}
		slots, err := ctx.compileActionSlots(tmpl, tmpl.Name, a.Slots)
		if err != nil {
			return nil, err
		}
		return &Action{Kind: ActModify, Target: pos, Tmpl: tmpl, Slots: slots}, nil
	case *lang.RemoveAction:
		act := &Action{Kind: ActRemove}
		for _, d := range a.Targets {
			pos, err := ctx.resolveDesignator(d)
			if err != nil {
				return nil, err
			}
			if tmpl := ctx.positiveCE(pos).Tmpl; ctx.prog.Temporal.IsAggregate(tmpl.Name) {
				return nil, cerrf(a.Pos, "rule %s: remove of window aggregate template %q (maintained by the temporal clock)", ctx.rule.Name, tmpl.Name)
			}
			act.Targets = append(act.Targets, pos)
		}
		return act, nil
	case *lang.BindAction:
		if _, clash := ctx.bindings[a.Var]; clash {
			return nil, cerrf(a.Pos, "rule %s: bind shadows rule variable <%s>", ctx.rule.Name, a.Var)
		}
		var exprs []*Expr
		if a.Expr != nil {
			e, err := ctx.compileRHSExpr(a.Expr, a.Pos)
			if err != nil {
				return nil, err
			}
			exprs = []*Expr{e}
		}
		idx, ok := ctx.locals[a.Var]
		if !ok {
			idx = len(ctx.locals)
			ctx.locals[a.Var] = idx
		}
		// Empty Exprs means gensym: the engines bind a fresh unique
		// symbol derived deterministically from the instantiation.
		return &Action{Kind: ActBind, Local: idx, Exprs: exprs}, nil
	case *lang.WriteAction:
		act := &Action{Kind: ActWrite}
		for _, arg := range a.Args {
			e, err := ctx.compileRHSExpr(arg, a.Pos)
			if err != nil {
				return nil, err
			}
			act.Exprs = append(act.Exprs, e)
		}
		return act, nil
	case *lang.HaltAction:
		return &Action{Kind: ActHalt}, nil
	default:
		return nil, cerrf(lang.Pos{}, "rule %s: unknown action %T", ctx.rule.Name, a)
	}
}

func (ctx *ruleCtx) compileActionSlots(tmpl *wm.Template, typeName string, slots []*lang.ActionSlot) ([]SlotAssign, error) {
	out := make([]SlotAssign, 0, len(slots))
	seen := make(map[int]bool)
	for _, s := range slots {
		field, ok := tmpl.AttrIndex(s.Attr)
		if !ok {
			return nil, cerrf(s.Pos, "rule %s: template %q has no attribute %q", ctx.rule.Name, typeName, s.Attr)
		}
		if seen[field] {
			return nil, cerrf(s.Pos, "rule %s: attribute %q assigned twice", ctx.rule.Name, s.Attr)
		}
		seen[field] = true
		e, err := ctx.compileRHSExpr(s.Expr, s.Pos)
		if err != nil {
			return nil, err
		}
		out = append(out, SlotAssign{Field: field, Expr: e})
	}
	return out, nil
}

// ---- meta-rules ----

type metaCtx struct {
	prog *Program
	meta *MetaRule
	name string
	// patVars maps pattern variables (<i>) to pattern indexes.
	patVars map[string]int
	// valVars maps meta value variables to their defining occurrence.
	valVars map[string]metaVarBind
}

type metaVarBind struct {
	pat int
	ref VarRef
}

func compileMetaRule(prog *Program, ms *lang.MetaRule) (*MetaRule, error) {
	m := &MetaRule{Name: ms.Name}
	ctx := &metaCtx{
		prog:    prog,
		meta:    m,
		name:    ms.Name,
		patVars: make(map[string]int),
		valVars: make(map[string]metaVarBind),
	}
	for pi, ps := range ms.Patterns {
		rule, ok := prog.RuleByName(ps.RuleName)
		if !ok {
			return nil, cerrf(ps.Pos, "metarule %s: unknown rule %q", ms.Name, ps.RuleName)
		}
		if _, dup := ctx.patVars[ps.Var]; dup {
			return nil, cerrf(ps.Pos, "metarule %s: pattern variable <%s> bound twice", ms.Name, ps.Var)
		}
		if _, clash := ctx.valVars[ps.Var]; clash {
			return nil, cerrf(ps.Pos, "metarule %s: <%s> used as both pattern and value variable", ms.Name, ps.Var)
		}
		ctx.patVars[ps.Var] = pi
		ip := &InstPattern{Rule: rule}
		for _, slot := range ps.Slots {
			ref, ok := rule.Bindings[slot.Attr]
			if !ok {
				return nil, cerrf(slot.Pos, "metarule %s: rule %q has no variable <%s>", ms.Name, ps.RuleName, slot.Attr)
			}
			if err := ctx.compileMetaTerm(ip, pi, slot, ref); err != nil {
				return nil, err
			}
		}
		m.Patterns = append(m.Patterns, ip)
	}
	for _, ts := range ms.Tests {
		e, err := ctx.compileMetaExpr(ts)
		if err != nil {
			return nil, err
		}
		m.Tests = append(m.Tests, e)
	}
	for _, rv := range ms.Redacts {
		pi, ok := ctx.patVars[rv]
		if !ok {
			return nil, cerrf(ms.Pos, "metarule %s: redact of unknown pattern variable <%s>", ms.Name, rv)
		}
		m.Redacts = append(m.Redacts, pi)
	}
	return m, nil
}

func (ctx *metaCtx) compileMetaTerm(ip *InstPattern, pi int, slot *lang.Slot, ref VarRef) error {
	bindOrTest := func(name string, op PredOp, canBind bool) error {
		if b, ok := ctx.valVars[name]; ok {
			if b.pat == pi {
				ip.IntraTests = append(ip.IntraTests, MetaIntraTest{Ref: ref, Op: op, OtherRef: b.ref})
			} else {
				ip.JoinTests = append(ip.JoinTests, MetaJoinTest{Ref: ref, Op: op, OtherPat: b.pat, OtherRef: b.ref})
			}
			return nil
		}
		if _, isPat := ctx.patVars[name]; isPat {
			return cerrf(slot.Pos, "metarule %s: <%s> is a pattern variable, not a value", ctx.name, name)
		}
		if !canBind {
			return cerrf(slot.Pos, "metarule %s: predicate on unbound variable <%s>", ctx.name, name)
		}
		ctx.valVars[name] = metaVarBind{pat: pi, ref: ref}
		return nil
	}
	switch t := slot.Term.(type) {
	case lang.ConstTerm:
		ip.ConstTests = append(ip.ConstTests, MetaConstTest{Ref: ref, Op: OpEq, Val: t.Val})
		return nil
	case lang.DisjTerm:
		ip.DisjTests = append(ip.DisjTests, MetaDisjTest{Ref: ref, Vals: t.Vals})
		return nil
	case lang.VarTerm:
		return bindOrTest(t.Name, OpEq, true)
	case lang.PredTerm:
		op := predOpOf(t.Op)
		switch arg := t.Arg.(type) {
		case lang.ConstTerm:
			ip.ConstTests = append(ip.ConstTests, MetaConstTest{Ref: ref, Op: op, Val: arg.Val})
			return nil
		case lang.VarTerm:
			return bindOrTest(arg.Name, op, false)
		default:
			return cerrf(slot.Pos, "metarule %s: bad predicate argument", ctx.name)
		}
	default:
		return cerrf(slot.Pos, "metarule %s: bad pattern term", ctx.name)
	}
}

func (ctx *metaCtx) compileMetaExpr(e lang.Expr) (*Expr, error) {
	switch e := e.(type) {
	case *lang.ConstExpr:
		return &Expr{Kind: EConst, Val: e.Val}, nil
	case *lang.VarExpr:
		if b, ok := ctx.valVars[e.Name]; ok {
			return &Expr{Kind: EMetaRef, Pat: b.pat, MetaVar: b.ref}, nil
		}
		if _, isPat := ctx.patVars[e.Name]; isPat {
			return nil, cerrf(e.Pos, "metarule %s: pattern variable <%s> used as a value (use (tag <%s>) or (rulename <%s>))", ctx.name, e.Name, e.Name, e.Name)
		}
		return nil, cerrf(e.Pos, "metarule %s: test references unbound variable <%s>", ctx.name, e.Name)
	case *lang.CallExpr:
		switch e.Op {
		case "tag", "rulename":
			if len(e.Args) != 1 {
				return nil, cerrf(e.Pos, "metarule %s: %s expects 1 argument", ctx.name, e.Op)
			}
			pv, ok := e.Args[0].(*lang.VarExpr)
			if !ok {
				return nil, cerrf(e.Pos, "metarule %s: %s expects a pattern variable", ctx.name, e.Op)
			}
			pi, ok := ctx.patVars[pv.Name]
			if !ok {
				return nil, cerrf(pv.Pos, "metarule %s: <%s> is not a pattern variable", ctx.name, pv.Name)
			}
			if e.Op == "tag" {
				return &Expr{Kind: EMetaTag, Pat: pi}, nil
			}
			return &Expr{Kind: EMetaRule, Pat: pi}, nil
		case "precedes":
			if len(e.Args) != 2 {
				return nil, cerrf(e.Pos, "metarule %s: precedes expects 2 arguments", ctx.name)
			}
			var pis [2]int
			for i, a := range e.Args {
				pv, ok := a.(*lang.VarExpr)
				if !ok {
					return nil, cerrf(e.Pos, "metarule %s: precedes expects pattern variables", ctx.name)
				}
				pi, ok := ctx.patVars[pv.Name]
				if !ok {
					return nil, cerrf(pv.Pos, "metarule %s: <%s> is not a pattern variable", ctx.name, pv.Name)
				}
				pis[i] = pi
			}
			return &Expr{Kind: EMetaPrec, Pat: pis[0], Pat2: pis[1]}, nil
		}
		op, ok := builtinNames[e.Op]
		if !ok {
			return nil, cerrf(e.Pos, "metarule %s: unknown builtin %q", ctx.name, e.Op)
		}
		if err := checkArity(e, op); err != nil {
			return nil, err
		}
		out := &Expr{Kind: ECall, Op: op, Args: make([]*Expr, len(e.Args))}
		for i, a := range e.Args {
			ca, err := ctx.compileMetaExpr(a)
			if err != nil {
				return nil, err
			}
			out.Args[i] = ca
		}
		return out, nil
	default:
		return nil, cerrf(lang.Pos{}, "metarule %s: bad expression", ctx.name)
	}
}

// CompileSource parses and compiles PARULEL source text in one step.
func CompileSource(src string) (*Program, error) {
	ast, err := lang.Parse(src)
	if err != nil {
		return nil, err
	}
	return Compile(ast)
}
