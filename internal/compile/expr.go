package compile

import (
	"cmp"
	"fmt"
	"strings"

	"parulel/internal/wm"
)

// ExprKind discriminates compiled expression nodes.
type ExprKind uint8

// Expression node kinds.
const (
	EConst    ExprKind = iota
	ERef               // rule variable: VarRef into the instantiation
	ELocal             // RHS-local from (bind …)
	ECall              // builtin application
	EMetaRef           // meta-rule: object-rule variable of a matched instantiation
	EMetaTag           // meta-rule: (tag <i>) — recency of instantiation i
	EMetaRule          // meta-rule: (rulename <i>)
	EMetaPrec          // meta-rule: (precedes <i> <j>) — deterministic total order
	ERefPrec           // lowered (precedes <i> <j>): two runs of fields, compared lexicographically
)

// Builtin enumerates expression builtins.
type Builtin uint8

// Builtins. Comparisons reuse PredOp semantics; arithmetic is integer when
// all operands are ints, float otherwise (like OPS5's compute).
const (
	BAdd Builtin = iota
	BSub
	BMul
	BDiv
	BMod
	BEq
	BNe
	BLt
	BLe
	BGt
	BGe
	BAnd
	BOr
	BNot
	BMin
	BMax
	BAbs
	BCrlf   // newline marker for (write …)
	BTabto  // horizontal tab marker for (write …)
	BHash   // deterministic non-negative integer hash of any value
	BSymcat // concatenate argument texts into a symbol
	BIf     // (if cond then else) — lazy conditional
)

var builtinNames = map[string]Builtin{
	"+": BAdd, "-": BSub, "*": BMul, "div": BDiv, "//": BDiv, "mod": BMod,
	"=": BEq, "<>": BNe, "<": BLt, "<=": BLe, ">": BGt, ">=": BGe,
	"and": BAnd, "or": BOr, "not": BNot,
	"min": BMin, "max": BMax, "abs": BAbs,
	"crlf": BCrlf, "tabto": BTabto,
	"hash": BHash, "symcat": BSymcat, "if": BIf,
}

// Expr is a compiled expression tree node.
type Expr struct {
	Kind  ExprKind
	Op    Builtin  // ECall; beside Kind, so that the two share a word
	Val   wm.Value // EConst
	Ref   VarRef   // ERef; ERefPrec: the first field of the left run
	Local int      // ELocal
	Args  []*Expr  // ECall
	// Meta fields: Pat indexes the meta-rule's instantiation patterns;
	// MetaVar is the object-rule variable reference within instantiation
	// Pat (EMetaRef). EMetaPrec uses Pat and Pat2.
	Pat     int
	Pat2    int
	MetaVar VarRef
	// ERefPrec compares the Len fields starting at Ref with the Len fields
	// starting at MetaVar — the field an EMetaRef needs and a lowered node
	// does not — so that every node of every program is no larger for it.
	Len int

	// code is the lowered bytecode for this expression when it is a root,
	// attached once by lowerProgram at the end of Compile: condition code
	// for a filter, which the Holds method runs, and value code for an RHS
	// action expression, which the Eval method runs. nil means "not
	// lowered": both methods then go to the tree walker.
	code *code
}

// Env supplies variable values during expression evaluation: the fields a
// rule's positive condition elements bound and its RHS locals. It is all
// that filters and RHS actions read, on either backend.
type Env interface {
	// Ref returns the value bound by a positive CE's field.
	Ref(VarRef) wm.Value
	// Local returns the value of a (bind …) slot.
	Local(int) wm.Value
}

// MetaEnv is the context of a meta-rule's source-form test: the matched
// instantiations its patterns name. Only the tree walker reads it, at the
// EMeta* nodes; Compile lowers no meta-rule test, and the engine runs every
// meta-rule as a seeded join over images or as an order, so only a test
// oracle evaluates a source-form test. Evaluating an EMeta* node under a
// plain Env panics.
type MetaEnv interface {
	Env
	// MetaVal returns the value of an object-rule variable of the
	// instantiation matched by meta pattern pat.
	MetaVal(pat int, ref VarRef) wm.Value
	// MetaTag returns the recency tag of the instantiation matched by
	// meta pattern pat (the maximum WME time tag in its vector).
	MetaTag(pat int) int64
	// MetaRuleName returns the object rule name of instantiation pat.
	MetaRuleName(pat int) string
	// MetaPrecedes reports whether instantiation pat precedes pat2 in the
	// deterministic total instantiation order.
	MetaPrecedes(pat, pat2 int) bool
}

// VecEnv is the Env of LHS filter tests: references index a vector of
// matched WMEs, one per positive condition element; there are no locals.
// It is used by pointer: a matcher keeps one per join point and re-points
// Vec at each candidate, and Holds reads Vec directly.
type VecEnv struct {
	Vec []*wm.WME
}

// Ref returns the referenced field value.
func (e *VecEnv) Ref(r VarRef) wm.Value { return e.Vec[r.CE].Fields[r.Field] }

// Local panics: LHS tests cannot reference RHS locals.
func (e *VecEnv) Local(int) wm.Value { panic("compile: LHS test referenced an RHS local") }

// EvalError is an expression runtime error (type mismatch, division by
// zero). It carries the failing operator for diagnosis.
type EvalError struct {
	Op  string
	Msg string
}

func (e *EvalError) Error() string { return fmt.Sprintf("eval %s: %s", e.Op, e.Msg) }

// Eval evaluates a compiled expression by walking its tree: the reference
// semantics, and what the Eval method falls back to for an expression that
// carries no bytecode.
func Eval(e *Expr, env Env) (wm.Value, error) {
	switch e.Kind {
	case EConst:
		return e.Val, nil
	case ERef:
		return env.Ref(e.Ref), nil
	case ELocal:
		return env.Local(e.Local), nil
	case EMetaRef:
		return env.(MetaEnv).MetaVal(e.Pat, e.MetaVar), nil
	case EMetaTag:
		return wm.Int(env.(MetaEnv).MetaTag(e.Pat)), nil
	case EMetaRule:
		return wm.Sym(env.(MetaEnv).MetaRuleName(e.Pat)), nil
	case EMetaPrec:
		return wm.Bool(env.(MetaEnv).MetaPrecedes(e.Pat, e.Pat2)), nil
	case ERefPrec:
		return wm.Bool(refsPrecede(env, e.Ref, e.MetaVar, e.Len)), nil
	case ECall:
		return evalCall(e, env)
	default:
		return wm.Value{}, &EvalError{Op: "?", Msg: fmt.Sprintf("bad expr kind %d", e.Kind)}
	}
}

// refsPrecede reports whether the n fields starting at a come before the n
// fields starting at b: lexicographically, each pair in the relational
// operators' order except that two ints compare as ints, which is exact
// where the operators' float comparison is not. It is what
// `(precedes <i> <j>)` between two instantiations of one rule lowers to,
// over the two images' time-tag vectors. Value code and the tree walker
// evaluate it here; a filter's condition code, as the meta level runs it,
// through vecPrecede.
func refsPrecede(env Env, a, b VarRef, n int) bool {
	for k := 0; k < n; k++ {
		x, y := env.Ref(VarRef{CE: a.CE, Field: a.Field + k}), env.Ref(VarRef{CE: b.CE, Field: b.Field + k})
		if c := fieldCompare(x, y); c != 0 {
			return c < 0
		}
	}
	return false
}

// vecPrecede is refsPrecede over a matched WME vector, comparing the two
// runs of fields where they lie; the fuzz target holds the two to each
// other.
func vecPrecede(vec []*wm.WME, a, b VarRef, n int) bool {
	x, y := vec[a.CE].Fields[a.Field:a.Field+n], vec[b.CE].Fields[b.Field:b.Field+n]
	for k := range x {
		if c := fieldCompare(x[k], y[k]); c != 0 {
			return c < 0
		}
	}
	return false
}

func fieldCompare(x, y wm.Value) int {
	if x.Kind == wm.KindInt && y.Kind == wm.KindInt {
		return cmp.Compare(x.I, y.I)
	}
	return predCompare(x, y)
}

func evalCall(e *Expr, env Env) (wm.Value, error) {
	// Short-circuit boolean forms evaluate lazily.
	switch e.Op {
	case BAnd:
		for _, a := range e.Args {
			v, err := Eval(a, env)
			if err != nil {
				return wm.Value{}, err
			}
			if !v.Truthy() {
				return wm.Bool(false), nil
			}
		}
		return wm.Bool(true), nil
	case BOr:
		for _, a := range e.Args {
			v, err := Eval(a, env)
			if err != nil {
				return wm.Value{}, err
			}
			if v.Truthy() {
				return wm.Bool(true), nil
			}
		}
		return wm.Bool(false), nil
	case BCrlf:
		return wm.Str("\n"), nil
	case BTabto:
		return wm.Str("\t"), nil
	case BIf:
		cond, err := Eval(e.Args[0], env)
		if err != nil {
			return wm.Value{}, err
		}
		if cond.Truthy() {
			return Eval(e.Args[1], env)
		}
		return Eval(e.Args[2], env)
	}

	args := make([]wm.Value, len(e.Args))
	for i, a := range e.Args {
		v, err := Eval(a, env)
		if err != nil {
			return wm.Value{}, err
		}
		args[i] = v
	}

	var v wm.Value
	if err := e.Op.apply(&v, args); err != nil {
		return wm.Value{}, err
	}
	return v, nil
}

// apply computes a builtin that evaluates all of its arguments first —
// every builtin but the control forms and, or, if, crlf and tabto — from
// their values into *dst. The tree walker and the VM's opCall both call it,
// so each builtin's semantics, error texts included, are written once. The
// VM's destination register is its window's first, so dst may alias
// args[0]: every case reads all of args before it writes *dst. (Writing
// through dst rather than returning the value keeps a 40-byte result from
// being copied out through apply and arith at every arithmetic step.)
func (op Builtin) apply(dst *wm.Value, args []wm.Value) error {
	switch op {
	case BNot:
		*dst = wm.Bool(!args[0].Truthy())
	case BHash:
		*dst = wm.Int(hashValue(args[0]))
	case BAbs:
		switch v := &args[0]; {
		case v.Kind == wm.KindInt && v.I < 0:
			*dst = wm.Int(-v.I)
		case v.Kind == wm.KindFloat && v.F < 0:
			*dst = wm.Float(-v.F)
		case v.IsNumeric():
			*dst = *v
		default:
			return &EvalError{Op: "abs", Msg: fmt.Sprintf("non-numeric operand %s", *v)}
		}
	case BEq, BNe, BLt, BLe, BGt, BGe:
		*dst = wm.Bool(cmpPred(op).Apply(args[0], args[1]))
	case BAdd, BSub, BMul, BDiv, BMod, BMin, BMax:
		return arith(op, dst, args)
	case BSymcat:
		var b strings.Builder
		for i := range args {
			if a := &args[i]; a.Kind == wm.KindSym || a.Kind == wm.KindStr {
				b.WriteString(a.S)
			} else {
				b.WriteString(a.String())
			}
		}
		if b.Len() == 0 {
			return &EvalError{Op: "symcat", Msg: "empty result"}
		}
		*dst = wm.Sym(b.String())
	default:
		return &EvalError{Op: fmt.Sprint(op), Msg: "unknown builtin"}
	}
	return nil
}

// hashValue maps any value to a deterministic non-negative int64 (FNV-1a
// over the kind and payload). Hand-written copy-and-constrain partitions
// rule variants with `(= (mod (hash <v>) k) i)`.
func hashValue(v wm.Value) int64 {
	const (
		offset = uint64(14695981039346656037)
		prime  = uint64(1099511628211)
	)
	h := offset
	mix := func(b byte) { h = (h ^ uint64(b)) * prime }
	mix(byte(v.Kind))
	switch v.Kind {
	case wm.KindInt:
		u := uint64(v.I)
		for i := 0; i < 8; i++ {
			mix(byte(u >> (8 * i)))
		}
	case wm.KindFloat:
		// Hash the decimal rendering so 2.0 and the float bit-pattern
		// quirks don't matter for partitioning.
		for _, b := range []byte(v.String()) {
			mix(b)
		}
	case wm.KindSym, wm.KindStr:
		for _, b := range []byte(v.S) {
			mix(b)
		}
	}
	return int64(h >> 1) // clear the sign bit
}

// arithNames names the arithmetic builtins in error messages.
var arithNames = [...]string{BAdd: "+", BSub: "-", BMul: "*", BDiv: "div", BMod: "mod", BMin: "min", BMax: "max"}

// arith folds an arithmetic builtin over its operands, read in place, into
// *dst, which it writes last, for apply. The
// int/float decision scans ALL operands first, so (div 7 2 2.0) is float
// division throughout, 1.75, not int-then-float 1.5; a non-numeric operand
// is reported before a missing one.
func arith(op Builtin, dst *wm.Value, args []wm.Value) error {
	allInt := true
	for i := range args {
		a := &args[i]
		if !a.IsNumeric() {
			return &EvalError{Op: arithNames[op], Msg: fmt.Sprintf("non-numeric operand %s", *a)}
		}
		if a.Kind != wm.KindInt {
			allInt = false
		}
	}
	if len(args) == 0 {
		return &EvalError{Op: arithNames[op], Msg: "no operands"}
	}
	// Unary minus.
	if op == BSub && len(args) == 1 {
		if allInt {
			*dst = wm.Int(-args[0].I)
		} else {
			*dst = wm.Float(-args[0].AsFloat())
		}
		return nil
	}
	if allInt {
		acc := args[0].I
		for _, a := range args[1:] {
			switch op {
			case BAdd:
				acc += a.I
			case BSub:
				acc -= a.I
			case BMul:
				acc *= a.I
			case BDiv:
				if a.I == 0 {
					return &EvalError{Op: arithNames[op], Msg: "division by zero"}
				}
				acc /= a.I
			case BMod:
				if a.I == 0 {
					return &EvalError{Op: arithNames[op], Msg: "division by zero"}
				}
				acc %= a.I
			case BMin:
				if a.I < acc {
					acc = a.I
				}
			case BMax:
				if a.I > acc {
					acc = a.I
				}
			}
		}
		*dst = wm.Int(acc)
		return nil
	}
	acc := args[0].AsFloat()
	for _, a := range args[1:] {
		f := a.AsFloat()
		switch op {
		case BAdd:
			acc += f
		case BSub:
			acc -= f
		case BMul:
			acc *= f
		case BDiv:
			if f == 0 {
				return &EvalError{Op: arithNames[op], Msg: "division by zero"}
			}
			acc /= f
		case BMod:
			return &EvalError{Op: arithNames[op], Msg: "mod requires integer operands"}
		case BMin:
			if f < acc {
				acc = f
			}
		case BMax:
			if f > acc {
				acc = f
			}
		}
	}
	*dst = wm.Float(acc)
	return nil
}
