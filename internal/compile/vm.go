package compile

import (
	"fmt"
	"sync"

	"parulel/internal/wm"
)

// The VM runs the two forms of code bytecode.go lowers: value code, the
// call-rooted RHS action expressions that (*Expr).Eval runs (exec), and
// condition code, the filters that (*Expr).Holds runs (holds). Every builtin
// that evaluates its arguments first is one opCall into Builtin.apply, the
// function the tree walker calls too; the VM itself knows only constants,
// references, locals, jumps and the lowered precedes. No meta-rule
// source-form test reaches it: those stay on the tree walker, under a
// MetaEnv.

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
		case opCall:
			if err := Builtin(in.k).apply(&r[in.a], r[in.b:int(in.b)+int(in.c)]); err != nil {
				return wm.Value{}, err
			}
		case opRet:
			return r[in.a], nil
		default:
			return wm.Value{}, &EvalError{Op: "?", Msg: fmt.Sprintf("bad opcode %d", in.op)}
		}
	}
	return wm.Value{}, &EvalError{Op: "?", Msg: "bytecode ran off the end"}
}
