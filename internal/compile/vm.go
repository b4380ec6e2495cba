package compile

import (
	"fmt"
	"strings"
	"sync"

	"parulel/internal/wm"
)

// framePool recycles register frames too wide for the goroutine's stack;
// engines on different goroutines (a server's sessions) evaluate
// expressions concurrently, so the pool is the only shared state and each
// run owns its frame exclusively. Builtins
// never re-enter the VM, so one frame per run suffices.
var framePool = sync.Pool{
	New: func() any {
		s := make([]wm.Value, 0, 16)
		return &s
	},
}

// pooledFrame takes a frame of n registers from framePool, for the caller
// to put back. Registers are written before they are read (by construction
// of the lowering), so frames are reused without clearing.
func pooledFrame(n int) *[]wm.Value {
	fp := framePool.Get().(*[]wm.Value)
	if cap(*fp) < n {
		*fp = make([]wm.Value, n)
	}
	*fp = (*fp)[:n]
	return fp
}

// run executes value code against env. Nearly every expression needs only
// a few registers and runs in a frame on the goroutine's stack; wider ones
// take a pooled frame. Either way the steady state allocates nothing.
func (c *code) run(env Env) (wm.Value, error) {
	var small [8]wm.Value
	if c.nregs <= len(small) {
		return c.exec(small[:c.nregs], env, 0)
	}
	fp := pooledFrame(c.nregs)
	defer framePool.Put(fp)
	return c.exec(*fp, env, 0)
}

// check runs condition code against env, in a frame like run's; code that
// computes nothing into registers — every filter without arithmetic — runs
// without one.
func (c *code) check(env *VecEnv) bool {
	if c.nregs == 0 {
		return c.holds(nil, env)
	}
	var small [8]wm.Value
	if c.nregs <= len(small) {
		return c.holds(small[:c.nregs], env)
	}
	fp := pooledFrame(c.nregs)
	defer framePool.Put(fp)
	return c.holds(*fp, env)
}

// holds runs condition code: the branch opcodes here, the value
// subexpressions between them through exec. An error from one fails the
// filter.
func (c *code) holds(r []wm.Value, env *VecEnv) bool {
	vec := env.Vec
	for pc := 0; ; {
		in := &c.ins[pc]
		pc++
		var t bool
		switch in.op {
		case opBrCmp:
			t = PredOp(in.k>>1).Apply(*c.read(in.a, r, vec), *c.read(in.b, r, vec))
		case opBr:
			t = c.read(in.a, r, vec).Truthy()
		case opBrPrec:
			t = vecPrecede(vec, c.refs[in.b], c.refs[in.b+1], int(in.a))
		case opEval:
			if _, err := c.exec(r, env, pc); err != nil {
				return false
			}
			pc = int(in.c)
			continue
		default: // opDone
			return in.a != 0
		}
		if t == (in.k&1 != 0) {
			pc = int(in.c)
		}
	}
}

// read returns a condition instruction's operand x where it lies.
func (c *code) read(x uint16, r []wm.Value, vec []*wm.WME) *wm.Value {
	i := x & operandIdx
	switch x &^ operandIdx {
	case fromRef:
		ref := &c.refs[i]
		return &vec[ref.CE].Fields[ref.Field]
	case fromConst:
		return &c.consts[i]
	}
	return &r[i]
}

// exec runs value code from pc to its opRet and returns that register.
func (c *code) exec(r []wm.Value, env Env, pc int) (wm.Value, error) {
	// Value subexpressions of filters read their references straight out
	// of the matched-WME vector instead of through env.
	var vec []*wm.WME
	if ve, ok := env.(*VecEnv); ok {
		vec = ve.Vec
	}
	ins := c.ins
	for pc < len(ins) {
		in := &ins[pc]
		pc++
		switch in.op {
		case opConst:
			r[in.a] = c.consts[in.b]
		case opRef:
			if ref := c.refs[in.b]; vec != nil {
				r[in.a] = vec[ref.CE].Fields[ref.Field]
			} else {
				r[in.a] = env.Ref(ref)
			}
		case opLocal:
			r[in.a] = env.Local(int(in.b))
		case opMetaRef:
			r[in.a] = env.MetaVal(int(in.b), c.refs[in.c])
		case opMetaTag:
			r[in.a] = wm.Int(env.MetaTag(int(in.b)))
		case opMetaRule:
			r[in.a] = wm.Sym(env.MetaRuleName(int(in.b)))
		case opMetaPrec:
			r[in.a] = wm.Bool(env.MetaPrecedes(int(in.b), int(in.c)))
		case opRefPrec:
			r[in.a] = wm.Bool(refsPrecede(env, c.refs[in.c], c.refs[in.c+1], int(in.b)))
		case opJump:
			pc = int(in.c)
		case opJumpFalsy:
			if !r[in.a].Truthy() {
				pc = int(in.c)
			}
		case opJumpTruthy:
			if r[in.a].Truthy() {
				pc = int(in.c)
			}
		case opNot:
			r[in.a] = wm.Bool(!r[in.b].Truthy())
		case opHash:
			r[in.a] = wm.Int(hashValue(r[in.b]))
		case opAbs:
			v := r[in.b]
			switch v.Kind {
			case wm.KindInt:
				if v.I < 0 {
					v = wm.Int(-v.I)
				}
			case wm.KindFloat:
				if v.F < 0 {
					v = wm.Float(-v.F)
				}
			default:
				return wm.Value{}, &EvalError{Op: "abs", Msg: fmt.Sprintf("non-numeric operand %s", v)}
			}
			r[in.a] = v
		case opCmp:
			r[in.a] = wm.Bool(PredOp(in.c).Apply(r[in.b], r[in.b+1]))
		case opAdd, opSub, opMul, opDiv, opMod, opMin, opMax:
			v, err := vmArith(in.op, r[in.b:int(in.b)+int(in.c)])
			if err != nil {
				return wm.Value{}, err
			}
			r[in.a] = v
		case opSymcat:
			var b strings.Builder
			for _, a := range r[in.b : int(in.b)+int(in.c)] {
				if a.Kind == wm.KindSym || a.Kind == wm.KindStr {
					b.WriteString(a.S)
				} else {
					b.WriteString(a.String())
				}
			}
			if b.Len() == 0 {
				return wm.Value{}, &EvalError{Op: "symcat", Msg: "empty result"}
			}
			r[in.a] = wm.Sym(b.String())
		case opRet:
			return r[in.a], nil
		default:
			return wm.Value{}, &EvalError{Op: "?", Msg: fmt.Sprintf("bad opcode %d", in.op)}
		}
	}
	return wm.Value{}, &EvalError{Op: "?", Msg: "bytecode ran off the end"}
}

// vmArithName names an arithmetic opcode for error messages. Evaluated
// only on error paths — unlike the interpreter, the hot path never
// materializes the name (or the map holding it).
func vmArithName(op vmOp) string {
	switch op {
	case opAdd:
		return "+"
	case opSub:
		return "-"
	case opMul:
		return "*"
	case opDiv:
		return "div"
	case opMod:
		return "mod"
	case opMin:
		return "min"
	case opMax:
		return "max"
	}
	return "?"
}

// vmArith folds an arithmetic builtin over a register window. It must
// agree with evalArith byte for byte: the int/float decision scans ALL
// operands first (so (div 7 2 2.0) is float division throughout, 1.75,
// not int-then-float 1.5), the unary-minus special case, the error
// messages and their precedence order are identical. The fuzz target
// FuzzBytecodeEval holds the two implementations to this contract.
func vmArith(op vmOp, args []wm.Value) (wm.Value, error) {
	allInt := true
	for i := range args {
		a := &args[i]
		if !a.IsNumeric() {
			return wm.Value{}, &EvalError{Op: vmArithName(op), Msg: fmt.Sprintf("non-numeric operand %s", *a)}
		}
		if a.Kind != wm.KindInt {
			allInt = false
		}
	}
	if len(args) == 0 {
		return wm.Value{}, &EvalError{Op: vmArithName(op), Msg: "no operands"}
	}
	if op == opSub && len(args) == 1 {
		if allInt {
			return wm.Int(-args[0].I), nil
		}
		return wm.Float(-args[0].AsFloat()), nil
	}
	if allInt {
		acc := args[0].I
		for _, a := range args[1:] {
			switch op {
			case opAdd:
				acc += a.I
			case opSub:
				acc -= a.I
			case opMul:
				acc *= a.I
			case opDiv:
				if a.I == 0 {
					return wm.Value{}, &EvalError{Op: vmArithName(op), Msg: "division by zero"}
				}
				acc /= a.I
			case opMod:
				if a.I == 0 {
					return wm.Value{}, &EvalError{Op: vmArithName(op), Msg: "division by zero"}
				}
				acc %= a.I
			case opMin:
				if a.I < acc {
					acc = a.I
				}
			case opMax:
				if a.I > acc {
					acc = a.I
				}
			}
		}
		return wm.Int(acc), nil
	}
	acc := args[0].AsFloat()
	for _, a := range args[1:] {
		f := a.AsFloat()
		switch op {
		case opAdd:
			acc += f
		case opSub:
			acc -= f
		case opMul:
			acc *= f
		case opDiv:
			if f == 0 {
				return wm.Value{}, &EvalError{Op: vmArithName(op), Msg: "division by zero"}
			}
			acc /= f
		case opMod:
			return wm.Value{}, &EvalError{Op: vmArithName(op), Msg: "mod requires integer operands"}
		case opMin:
			if f < acc {
				acc = f
			}
		case opMax:
			if f > acc {
				acc = f
			}
		}
	}
	return wm.Float(acc), nil
}
