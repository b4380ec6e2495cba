package compile

import "parulel/internal/wm"

// Eval evaluates a root expression the way it was built: an expression
// Compile lowered (lowerProgram) runs its register bytecode on the VM of
// vm.go; one that carries none — a leaf root, an expression built outside
// Compile or by CompileUnlowered, or one past an encoding limit — goes to
// the tree walker, the package-level Eval. The two agree on values and on
// error text, so which one ran is invisible to callers.
func (e *Expr) Eval(env Env) (wm.Value, error) {
	if e.code != nil {
		return e.code.run(env)
	}
	return Eval(e, env)
}

// vmOp is a bytecode opcode. Instructions address up to three operands
// (a, b, c); variadic builtins operate on a window of contiguous
// registers, which the lowering guarantees by evaluating argument i of a
// call into register base+i.
type vmOp uint8

const (
	opConst      vmOp = iota // r[a] = consts[b]
	opRef                    // r[a] = env.Ref(refs[b])
	opLocal                  // r[a] = env.Local(b)
	opMetaRef                // r[a] = env.MetaVal(b, refs[c])
	opMetaTag                // r[a] = Int(env.MetaTag(b))
	opMetaRule               // r[a] = Sym(env.MetaRuleName(b))
	opMetaPrec               // r[a] = Bool(env.MetaPrecedes(b, c))
	opRefPrec                // r[a] = Bool(the b fields from refs[c] precede the b from refs[c+1])
	opJump                   // pc = b
	opJumpFalsy              // if !r[a].Truthy() { pc = b }
	opJumpTruthy             // if r[a].Truthy() { pc = b }
	opNot                    // r[a] = Bool(!r[b].Truthy())
	opHash                   // r[a] = Int(hashValue(r[b]))
	opAbs                    // r[a] = |r[b]|, error on non-numeric
	opCmp                    // r[a] = Bool(PredOp(c).Apply(r[b], r[b+1]))
	opAdd                    // r[a] = fold over r[b:b+c] — the arith window
	opSub                    // ops: semantics match evalArith exactly
	opMul
	opDiv
	opMod
	opMin
	opMax
	opSymcat // r[a] = symbol concat of r[b:b+c]
	opRet    // return r[a]
)

type inst struct {
	op      vmOp
	a, b, c uint16
}

// code is the lowered form of one root expression: an instruction
// sequence over a register frame, a constant pool and a VarRef side
// table. A code value is immutable after lowering and safe for
// concurrent execution (each run gets its own pooled frame).
type code struct {
	ins    []inst
	consts []wm.Value
	refs   []VarRef
	nregs  int
}

// encoding limits: operands are uint16. Programs never get close in
// practice; lowering bails out (leaving the expression on the tree
// walker) rather than mis-encoding.
const vmMaxOperand = 1<<16 - 1

// lowerProgram attaches bytecode to every root expression of a compiled
// program. Called once at the end of Compile, so nothing is re-lowered
// per match/fire cycle.
func lowerProgram(p *Program) {
	rules := p.Rules
	if p.Meta != nil {
		rules = append(rules[:len(rules):len(rules)], p.Meta.Rules...)
	}
	for _, r := range rules {
		for _, ce := range r.CEs {
			for _, f := range ce.Filters {
				f.code = lowerExpr(f)
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
	for _, m := range p.MetaRules {
		for _, t := range m.Tests {
			t.code = lowerExpr(t)
		}
	}
}

// lowerExpr compiles one expression tree to bytecode, or returns nil when
// the tree cannot be encoded (operand overflow or an unknown builtin) —
// the caller then stays on the tree walker for that expression.
func lowerExpr(e *Expr) *code {
	// Leaf roots (constants, references, meta lookups) are a single
	// switch arm in the tree walker; the VM's register-frame setup can
	// only lose there, so they stay on the tree walker.
	if e.Kind != ECall {
		return nil
	}
	l := &lowerer{}
	if !l.lower(e, 0) {
		return nil
	}
	l.emit(opRet, 0, 0, 0)
	if len(l.ins) > vmMaxOperand {
		return nil
	}
	return &code{ins: l.ins, consts: l.consts, refs: l.refs, nregs: l.nregs}
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

// patch retargets the jump at index i to the next instruction slot.
func (l *lowerer) patch(i int) {
	if len(l.ins) > vmMaxOperand {
		l.failed = true
		return
	}
	l.ins[i].b = uint16(len(l.ins))
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
		if c == v {
			return l.operand(i)
		}
	}
	l.consts = append(l.consts, v)
	return l.operand(len(l.consts) - 1)
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
	case EMetaRef:
		l.emit(opMetaRef, d, l.operand(e.Pat), l.refIdx(e.MetaVar))
	case EMetaTag:
		l.emit(opMetaTag, d, l.operand(e.Pat), 0)
	case EMetaRule:
		l.emit(opMetaRule, d, l.operand(e.Pat), 0)
	case EMetaPrec:
		l.emit(opMetaPrec, d, l.operand(e.Pat), l.operand(e.Pat2))
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
	case BNot:
		if !l.lower(e.Args[0], dst) {
			return false
		}
		l.emit(opNot, d, d, 0)
	case BHash:
		if !l.lower(e.Args[0], dst) {
			return false
		}
		l.emit(opHash, d, d, 0)
	case BAbs:
		if !l.lower(e.Args[0], dst) {
			return false
		}
		l.emit(opAbs, d, d, 0)
	case BEq, BNe, BLt, BLe, BGt, BGe:
		if !l.lower(e.Args[0], dst) || !l.lower(e.Args[1], dst+1) {
			return false
		}
		l.emit(opCmp, d, d, uint16(cmpPred(e.Op)))
	case BAdd, BSub, BMul, BDiv, BMod, BMin, BMax, BSymcat:
		for i, a := range e.Args {
			if !l.lower(a, dst+i) {
				return false
			}
		}
		l.emit(arithOp(e.Op), d, d, l.operand(len(e.Args)))
	default:
		return false
	}
	return !l.failed
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

func arithOp(op Builtin) vmOp {
	switch op {
	case BAdd:
		return opAdd
	case BSub:
		return opSub
	case BMul:
		return opMul
	case BDiv:
		return opDiv
	case BMod:
		return opMod
	case BMin:
		return opMin
	case BMax:
		return opMax
	default:
		return opSymcat
	}
}
