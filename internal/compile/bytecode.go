package compile

import (
	"math"
	"slices"

	"parulel/internal/wm"
)

// Eval evaluates a root expression by value: an RHS action expression
// Compile lowered (lowerProgram) runs its register bytecode on the VM of
// vm.go; anything else — a leaf root, a filter (whose code is condition
// code, for Holds), a meta-rule's source-form test (which only the tree
// walker evaluates, under a MetaEnv), an expression built outside Compile
// or by CompileUnlowered, or one past an encoding limit — goes to the tree
// walker, the package-level Eval. Both backends compute every builtin that
// evaluates its arguments first through Builtin.apply, so they agree on
// values and on error text and which one ran is invisible to callers.
func (e *Expr) Eval(env Env) (wm.Value, error) {
	if e.code != nil && !e.code.cond {
		return e.code.run(env)
	}
	return Eval(e, env)
}

// Holds reports whether a filter passes on env's WME vector: it evaluates
// without error to a truthy value. A filter Compile lowered runs its
// condition code, which branches on comparisons of fields read in place and
// never builds the filter's value; anything else goes to the tree walker.
// It is how the matchers and the meta level evaluate every `(test …)`
// (match.EvalFilters).
func (e *Expr) Holds(env *VecEnv) bool {
	if e.code == nil || !e.code.cond {
		v, err := Eval(e, env)
		return err == nil && v.Truthy()
	}
	return e.code.check(env)
}

// vmOp is a bytecode opcode. Instructions address up to three operands
// (a, b, c); a builtin call operates on a window of contiguous registers,
// which the lowering guarantees by evaluating argument i of a call into
// register base+i.
type vmOp uint8

const (
	opConst      vmOp = iota // r[a] = consts[b]
	opRef                    // r[a] = env.Ref(refs[b])
	opLocal                  // r[a] = env.Local(b)
	opRefPrec                // r[a] = Bool(the b fields from refs[c] precede the b from refs[c+1])
	opJump                   // pc = c
	opJumpFalsy              // if !r[a].Truthy() { pc = c }
	opJumpTruthy             // if r[a].Truthy() { pc = c }
	opCall                   // Builtin(k).apply(&r[a], r[b:b+c])
	opRet                    // return r[a]

	// Condition code, run by holds: each branch compares its test's outcome
	// with the sense in k's low bit and jumps to c when they agree. a and b
	// are operands — a constant, a matched field or a register, see fromRef.
	opBrCmp  // test PredOp(k>>1).Apply(a, b)
	opBr     // test a.Truthy()
	opBrPrec // test: the a fields from refs[b] precede the a from refs[b+1]
	opEval   // run the value code that follows, up to its opRet; pc = c
	opDone   // the filter holds if a != 0
)

type inst struct {
	op      vmOp
	k       uint8 // opCall: the Builtin; a branch: its sense and PredOp
	a, b, c uint16
}

// An operand of a condition instruction is an index in the low 14 bits
// and, above them, the table it indexes: consts, refs (a field of the
// matched WME vector, read where it lies) or the registers.
const (
	operandIdx = 1<<14 - 1
	fromConst  = 0 << 14
	fromRef    = 1 << 14
	fromReg    = 2 << 14
)

// code is the lowered form of one root expression: an instruction
// sequence over a register frame, a constant pool and a VarRef side
// table. Value code (lowerExpr) returns the expression's value; condition
// code (lowerCond, cond set) only whether a filter holds. A code value is
// immutable after lowering and safe for concurrent execution (each run gets
// its own frame).
type code struct {
	ins    []inst
	consts []wm.Value
	refs   []VarRef
	nregs  int
	cond   bool
}

// encoding limits: operands are uint16. Programs never get close in
// practice; lowering bails out (leaving the expression on the tree
// walker) rather than mis-encoding.
const vmMaxOperand = 1<<16 - 1

// lowerProgram attaches code to every root expression of a compiled
// program: condition code to every filter and value code to every
// call-rooted RHS action expression. A meta-rule's source-form tests are
// not lowered: the engine runs meta-rules as seeded joins over images,
// whose filters are lowered here, or as orders. Called once at the end of
// Compile, so nothing is re-lowered per match/fire cycle.
func lowerProgram(p *Program) {
	rules := p.Rules
	if p.Meta != nil {
		rules = append(rules[:len(rules):len(rules)], p.Meta.Rules...)
	}
	for _, r := range rules {
		for _, ce := range r.CEs {
			for _, f := range ce.Filters {
				f.code = lowerCond(f)
			}
		}
		for _, a := range r.Actions {
			for j := range a.Slots {
				s := a.Slots[j].Expr
				s.code = lowerExpr(s)
			}
			for _, x := range a.Exprs {
				x.code = lowerExpr(x)
			}
		}
	}
}

// lowerExpr compiles one expression tree to value code, or returns nil when
// the tree cannot be encoded (operand overflow, or a node that reads a
// MetaEnv) — the caller then stays on the tree walker for that expression.
func lowerExpr(e *Expr) *code {
	// Leaf roots (constants, references) are a single switch arm in the
	// tree walker; the VM's register-frame setup can only lose there, so
	// they stay on the tree walker.
	if e.Kind != ECall {
		return nil
	}
	l := &lowerer{}
	if !l.lower(e, 0) {
		return nil
	}
	l.emit(opRet, 0, 0, 0)
	return l.finish(false)
}

// lowerCond compiles a filter to condition code, or returns nil when it
// cannot be encoded. The code jumps to a false exit as soon as the filter
// is known to fail and falls through to a true one otherwise. Leaf roots are
// lowered too — `(test (precedes <i> <j>))` is one opBrPrec — so every
// filter Compile emits runs here.
func lowerCond(e *Expr) *code {
	l := &lowerer{}
	var fail []int
	if !l.cond(e, false, &fail) {
		return nil
	}
	l.emit(opDone, 1, 0, 0)
	for _, j := range fail {
		l.patch(j)
	}
	l.emit(opDone, 0, 0, 0)
	return l.finish(true)
}

type lowerer struct {
	ins    []inst
	consts []wm.Value
	refs   []VarRef
	nregs  int
	failed bool
}

func (l *lowerer) emit(op vmOp, a, b, c uint16) int {
	l.ins = append(l.ins, inst{op: op, a: a, b: b, c: c})
	return len(l.ins) - 1
}

// branch emits a condition branch; its target is patched later.
func (l *lowerer) branch(op vmOp, k uint8, a, b uint16) int {
	l.ins = append(l.ins, inst{op: op, k: k, a: a, b: b})
	return len(l.ins) - 1
}

// patch retargets the jump at index i to the next instruction slot.
func (l *lowerer) patch(i int) {
	if len(l.ins) > vmMaxOperand {
		l.failed = true
		return
	}
	l.ins[i].c = uint16(len(l.ins))
}

// finish packages what was lowered, or returns nil if it cannot be encoded.
func (l *lowerer) finish(cond bool) *code {
	if l.failed || len(l.ins) > vmMaxOperand {
		return nil
	}
	return &code{ins: l.ins, consts: l.consts, refs: l.refs, nregs: l.nregs, cond: cond}
}

// operand range-checks an operand value.
func (l *lowerer) operand(n int) uint16 {
	if n < 0 || n > vmMaxOperand {
		l.failed = true
		return 0
	}
	return uint16(n)
}

// reg reserves register dst, growing the frame size.
func (l *lowerer) reg(dst int) uint16 {
	if dst+1 > l.nregs {
		l.nregs = dst + 1
	}
	return l.operand(dst)
}

// constIdx interns a constant. Pools are tiny, so a linear scan beats a
// map here.
func (l *lowerer) constIdx(v wm.Value) uint16 {
	for i, c := range l.consts {
		if identical(c, v) {
			return l.operand(i)
		}
	}
	l.consts = append(l.consts, v)
	return l.operand(len(l.consts) - 1)
}

// identical is == on values except that it tells -0.0 from 0.0, which
// print differently, and takes a NaN to be itself.
func identical(a, b wm.Value) bool {
	return a.Kind == b.Kind && a.I == b.I && a.S == b.S && math.Float64bits(a.F) == math.Float64bits(b.F)
}

func (l *lowerer) refIdx(r VarRef) uint16 {
	for i, x := range l.refs {
		if x == r {
			return l.operand(i)
		}
	}
	l.refs = append(l.refs, r)
	return l.operand(len(l.refs) - 1)
}

// lower compiles e so its value lands in register dst. Registers at
// indexes >= dst are free scratch space (stack discipline), so sibling
// subexpressions never clobber each other.
func (l *lowerer) lower(e *Expr, dst int) bool {
	d := l.reg(dst)
	switch e.Kind {
	case EConst:
		l.emit(opConst, d, l.constIdx(e.Val), 0)
	case ERef:
		l.emit(opRef, d, l.refIdx(e.Ref), 0)
	case ELocal:
		l.emit(opLocal, d, l.operand(e.Local), 0)
	case ERefPrec:
		// The two refs sit side by side in the table, so they are not
		// interned.
		l.refs = append(l.refs, e.Ref, e.MetaVar)
		l.emit(opRefPrec, d, l.operand(e.Len), l.operand(len(l.refs)-2))
	case ECall:
		if !l.lowerCall(e, dst) {
			return false
		}
	default:
		return false
	}
	return !l.failed
}

func (l *lowerer) lowerCall(e *Expr, dst int) bool {
	d := l.reg(dst)
	switch e.Op {
	case BAnd, BOr:
		// Short-circuit: each operand evaluates into dst; the first falsy
		// (and) / truthy (or) operand jumps to the early result.
		early := wm.Bool(e.Op == BOr)
		late := wm.Bool(e.Op == BAnd)
		jop := opJumpFalsy
		if e.Op == BOr {
			jop = opJumpTruthy
		}
		var outs []int
		for _, a := range e.Args {
			if !l.lower(a, dst) {
				return false
			}
			outs = append(outs, l.emit(jop, d, 0, 0))
		}
		l.emit(opConst, d, l.constIdx(late), 0)
		end := l.emit(opJump, 0, 0, 0)
		for _, j := range outs {
			l.patch(j)
		}
		l.emit(opConst, d, l.constIdx(early), 0)
		l.patch(end)
	case BIf:
		if !l.lower(e.Args[0], dst) {
			return false
		}
		toElse := l.emit(opJumpFalsy, d, 0, 0)
		if !l.lower(e.Args[1], dst) {
			return false
		}
		end := l.emit(opJump, 0, 0, 0)
		l.patch(toElse)
		if !l.lower(e.Args[2], dst) {
			return false
		}
		l.patch(end)
	case BCrlf:
		l.emit(opConst, d, l.constIdx(wm.Str("\n")), 0)
	case BTabto:
		l.emit(opConst, d, l.constIdx(wm.Str("\t")), 0)
	default:
		// Every other builtin evaluates all its arguments, into the
		// window from dst, and then applies.
		for i, a := range e.Args {
			if !l.lower(a, dst+i) {
				return false
			}
		}
		l.ins = append(l.ins, inst{op: opCall, k: uint8(e.Op), a: d, b: d, c: l.operand(len(e.Args))})
	}
	return !l.failed
}

// cond compiles e as a condition: code that jumps when e's truth comes out
// as sense and falls through when it does not. Its jumps go on *to, for the
// caller to patch once the target is placed. No path is needed for errors:
// an error anywhere fails the whole filter.
func (l *lowerer) cond(e *Expr, sense bool, to *[]int) bool {
	var k uint8
	if sense {
		k = 1
	}
	call := func(ops ...Builtin) bool { return e.Kind == ECall && slices.Contains(ops, e.Op) }
	switch {
	case call(BAnd, BOr) && len(e.Args) > 0:
		// An operand decides the form when it comes out as short — false
		// for and, true for or — and the last one decides it either way.
		short := e.Op == BOr
		var past []int
		last := len(e.Args) - 1
		for _, a := range e.Args[:last] {
			out := to
			if short != sense {
				out = &past
			}
			if !l.cond(a, short, out) {
				return false
			}
		}
		if !l.cond(e.Args[last], sense, to) {
			return false
		}
		for _, j := range past {
			l.patch(j)
		}
	case call(BNot):
		return l.cond(e.Args[0], !sense, to)
	case call(BEq, BNe, BLt, BLe, BGt, BGe):
		x := l.arg(e.Args[0], 0)
		y := l.arg(e.Args[1], 1)
		*to = append(*to, l.branch(opBrCmp, uint8(cmpPred(e.Op))<<1|k, x, y))
	case e.Kind == ERefPrec:
		l.refs = append(l.refs, e.Ref, e.MetaVar)
		*to = append(*to, l.branch(opBrPrec, k, l.operand(e.Len), l.operand(len(l.refs)-2)))
	default:
		*to = append(*to, l.branch(opBr, k, l.arg(e, 0), 0))
	}
	return !l.failed
}

// arg returns the operand through which a condition instruction reads e: a
// constant, or a matched field where it lies, or else register dst, into
// which the value code emitted here computes e.
func (l *lowerer) arg(e *Expr, dst int) uint16 {
	var from, i uint16
	switch e.Kind {
	case EConst:
		from, i = fromConst, l.constIdx(e.Val)
	case ERef:
		from, i = fromRef, l.refIdx(e.Ref)
	default:
		eval := l.emit(opEval, 0, 0, 0)
		if !l.lower(e, dst) {
			l.failed = true
		}
		from, i = fromReg, l.reg(dst)
		l.emit(opRet, i, 0, 0)
		l.patch(eval)
	}
	if i > operandIdx {
		l.failed = true
	}
	return from | i
}

func cmpPred(op Builtin) PredOp {
	switch op {
	case BEq:
		return OpNumEq
	case BNe:
		return OpNe
	case BLt:
		return OpLt
	case BLe:
		return OpLe
	case BGt:
		return OpGt
	default:
		return OpGe
	}
}
