package compile

import (
	"fmt"
	"strings"
	"testing"

	"parulel/internal/wm"
)

// fakeEnv implements Env over fixed maps for expression unit tests.
type fakeEnv struct {
	refs   map[VarRef]wm.Value
	locals []wm.Value
}

func (f *fakeEnv) Ref(r VarRef) wm.Value { return f.refs[r] }
func (f *fakeEnv) Local(i int) wm.Value  { return f.locals[i] }

// fakeMetaEnv is a MetaEnv whose every answer is a pure function of its
// arguments.
type fakeMetaEnv struct{ fakeEnv }

func (*fakeMetaEnv) MetaVal(pat int, r VarRef) wm.Value {
	return wm.Int(int64(pat*100 + r.CE*10 + r.Field))
}
func (*fakeMetaEnv) MetaTag(pat int) int64           { return int64(pat*10 + 3) }
func (*fakeMetaEnv) MetaRuleName(pat int) string     { return fmt.Sprintf("rule%d", pat) }
func (*fakeMetaEnv) MetaPrecedes(pat, pat2 int) bool { return pat < pat2 }

func c(v wm.Value) *Expr                   { return &Expr{Kind: EConst, Val: v} }
func call(op Builtin, args ...*Expr) *Expr { return &Expr{Kind: ECall, Op: op, Args: args} }

func evalOK(t *testing.T, e *Expr, env Env) wm.Value {
	t.Helper()
	v, err := Eval(e, env)
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	return v
}

func TestEvalArithmetic(t *testing.T) {
	env := &fakeEnv{}
	cases := []struct {
		e    *Expr
		want wm.Value
	}{
		{call(BAdd, c(wm.Int(1)), c(wm.Int(2)), c(wm.Int(3))), wm.Int(6)},
		{call(BSub, c(wm.Int(10)), c(wm.Int(4))), wm.Int(6)},
		{call(BSub, c(wm.Int(5))), wm.Int(-5)},         // unary minus
		{call(BSub, c(wm.Float(2.5))), wm.Float(-2.5)}, // unary float
		{call(BMul, c(wm.Int(3)), c(wm.Int(4))), wm.Int(12)},
		{call(BDiv, c(wm.Int(7)), c(wm.Int(2))), wm.Int(3)},       // integer division
		{call(BDiv, c(wm.Float(7)), c(wm.Int(2))), wm.Float(3.5)}, // float contaminates
		{call(BMod, c(wm.Int(7)), c(wm.Int(3))), wm.Int(1)},
		{call(BAdd, c(wm.Int(1)), c(wm.Float(0.5))), wm.Float(1.5)},
		{call(BMin, c(wm.Int(3)), c(wm.Int(1)), c(wm.Int(2))), wm.Int(1)},
		{call(BMax, c(wm.Int(3)), c(wm.Int(9)), c(wm.Int(2))), wm.Int(9)},
		{call(BAbs, c(wm.Int(-4))), wm.Int(4)},
		{call(BAbs, c(wm.Float(-4.5))), wm.Float(4.5)},
	}
	for i, tc := range cases {
		if got := evalOK(t, tc.e, env); got != tc.want {
			t.Errorf("case %d: got %v, want %v", i, got, tc.want)
		}
	}
}

func TestEvalComparisonsAndBooleans(t *testing.T) {
	env := &fakeEnv{}
	tr, fa := wm.Bool(true), wm.Bool(false)
	cases := []struct {
		e    *Expr
		want wm.Value
	}{
		{call(BEq, c(wm.Int(3)), c(wm.Float(3))), tr},
		{call(BNe, c(wm.Sym("a")), c(wm.Sym("b"))), tr},
		{call(BLt, c(wm.Int(1)), c(wm.Int(2))), tr},
		{call(BGe, c(wm.Int(1)), c(wm.Int(2))), fa},
		{call(BAnd, c(tr), c(tr)), tr},
		{call(BAnd, c(tr), c(fa)), fa},
		{call(BOr, c(fa), c(tr)), tr},
		{call(BOr, c(fa), c(fa)), fa},
		{call(BNot, c(fa)), tr},
		{call(BNot, c(wm.Nil())), tr},
	}
	for i, tc := range cases {
		if got := evalOK(t, tc.e, env); got != tc.want {
			t.Errorf("case %d: got %v, want %v", i, got, tc.want)
		}
	}
}

func TestEvalShortCircuit(t *testing.T) {
	// (and false (div 1 0)) must not evaluate the division.
	env := &fakeEnv{}
	e := call(BAnd, c(wm.Bool(false)), call(BDiv, c(wm.Int(1)), c(wm.Int(0))))
	if got := evalOK(t, e, env); got != wm.Bool(false) {
		t.Errorf("and short-circuit: %v", got)
	}
	e = call(BOr, c(wm.Bool(true)), call(BDiv, c(wm.Int(1)), c(wm.Int(0))))
	if got := evalOK(t, e, env); got != wm.Bool(true) {
		t.Errorf("or short-circuit: %v", got)
	}
}

func TestEvalErrors(t *testing.T) {
	env := &fakeEnv{}
	cases := []struct {
		e      *Expr
		substr string
	}{
		{call(BDiv, c(wm.Int(1)), c(wm.Int(0))), "division by zero"},
		{call(BMod, c(wm.Int(1)), c(wm.Int(0))), "division by zero"},
		{call(BAdd, c(wm.Sym("a")), c(wm.Int(1))), "non-numeric"},
		{call(BAbs, c(wm.Sym("a"))), "non-numeric"},
		{call(BMod, c(wm.Float(1.5)), c(wm.Float(2.5))), "integer operands"},
	}
	for i, tc := range cases {
		_, err := Eval(tc.e, env)
		if err == nil {
			t.Errorf("case %d: expected error %q", i, tc.substr)
			continue
		}
		if !strings.Contains(err.Error(), tc.substr) {
			t.Errorf("case %d: error = %q, want substring %q", i, err, tc.substr)
		}
	}
}

func TestEvalRefsAndLocals(t *testing.T) {
	env := &fakeEnv{
		refs:   map[VarRef]wm.Value{{CE: 0, Field: 1}: wm.Int(42)},
		locals: []wm.Value{wm.Sym("loc")},
	}
	if got := evalOK(t, &Expr{Kind: ERef, Ref: VarRef{CE: 0, Field: 1}}, env); got != wm.Int(42) {
		t.Errorf("ERef: %v", got)
	}
	if got := evalOK(t, &Expr{Kind: ELocal, Local: 0}, env); got != wm.Sym("loc") {
		t.Errorf("ELocal: %v", got)
	}
}

func TestEvalWriteMarkers(t *testing.T) {
	env := &fakeEnv{}
	if got := evalOK(t, call(BCrlf), env); got != wm.Str("\n") {
		t.Errorf("crlf: %q", got)
	}
	if got := evalOK(t, call(BTabto), env); got != wm.Str("\t") {
		t.Errorf("tabto: %q", got)
	}
}

func TestEvalSymcat(t *testing.T) {
	env := &fakeEnv{}
	got := evalOK(t, call(BSymcat, c(wm.Sym("pool-")), c(wm.Int(7)), c(wm.Str("-x"))), env)
	if got != wm.Sym("pool-7-x") {
		t.Errorf("symcat = %v", got)
	}
	if _, err := Eval(call(BSymcat, c(wm.Str(""))), env); err == nil {
		t.Error("empty symcat should error")
	}
}

func TestHashValueProperties(t *testing.T) {
	vals := []wm.Value{
		wm.Nil(), wm.Int(0), wm.Int(-1), wm.Int(1 << 40),
		wm.Float(2.5), wm.Float(-2.5), wm.Sym("a"), wm.Sym("b"),
		wm.Str("a"), wm.Str(""),
	}
	for _, v := range vals {
		h1, h2 := hashValue(v), hashValue(v)
		if h1 != h2 {
			t.Errorf("hash not deterministic for %v", v)
		}
		if h1 < 0 {
			t.Errorf("hash negative for %v: %d", v, h1)
		}
	}
	// Kind must distinguish equal payloads.
	if hashValue(wm.Sym("a")) == hashValue(wm.Str("a")) {
		t.Error("sym and str with same text should hash differently")
	}
}

func TestEvalIf(t *testing.T) {
	env := &fakeEnv{}
	if got := evalOK(t, call(BIf, c(wm.Bool(true)), c(wm.Int(1)), c(wm.Int(2))), env); got != wm.Int(1) {
		t.Errorf("if true = %v", got)
	}
	if got := evalOK(t, call(BIf, c(wm.Bool(false)), c(wm.Int(1)), c(wm.Int(2))), env); got != wm.Int(2) {
		t.Errorf("if false = %v", got)
	}
	// Lazy: the untaken branch is never evaluated.
	boom := call(BDiv, c(wm.Int(1)), c(wm.Int(0)))
	if got := evalOK(t, call(BIf, c(wm.Bool(true)), c(wm.Sym("ok")), boom), env); got != wm.Sym("ok") {
		t.Errorf("if lazy = %v", got)
	}
	if _, err := Eval(call(BIf, boom, c(wm.Int(1)), c(wm.Int(2))), env); err == nil {
		t.Error("error in condition must propagate")
	}
}

// TestEvalMetaLeaves covers the tree walker's meta leaves, the only
// evaluator of a meta-rule's source-form test: each reads its MetaEnv, no
// expression holding one is lowered, and under a plain Env each panics.
func TestEvalMetaLeaves(t *testing.T) {
	cases := []struct {
		name string
		e    *Expr
		want wm.Value
	}{
		{"meta-ref", &Expr{Kind: EMetaRef, Pat: 1, MetaVar: VarRef{CE: 0, Field: 2}}, wm.Int(102)},
		{"meta-tag", &Expr{Kind: EMetaTag, Pat: 2}, wm.Int(23)},
		{"meta-rule", &Expr{Kind: EMetaRule, Pat: 1}, wm.Sym("rule1")},
		{"meta-prec", &Expr{Kind: EMetaPrec, Pat: 0, Pat2: 1}, wm.Bool(true)},
		{"meta-prec-reversed", &Expr{Kind: EMetaPrec, Pat: 1, Pat2: 0}, wm.Bool(false)},
		{"meta-in-call", call(BAdd, &Expr{Kind: EMetaTag, Pat: 1}, c(wm.Int(1))), wm.Int(14)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env := &fakeMetaEnv{}
			if got := evalOK(t, tc.e, env); got != tc.want {
				t.Errorf("Eval = %v, want %v", got, tc.want)
			}
			if lowerExpr(tc.e) != nil || lowerCond(tc.e) != nil {
				t.Error("an expression that reads a MetaEnv was lowered")
			}
			if got, err := tc.e.Eval(env); err != nil || got != tc.want {
				t.Errorf("Eval method = %v, %v; want %v", got, err, tc.want)
			}
			defer func() {
				if recover() == nil {
					t.Error("no panic under a plain Env")
				}
			}()
			Eval(tc.e, &fakeEnv{})
		})
	}
}

// TestEveryBuiltinApplies: every builtin the parser accepts but the control
// forms computes its value through apply, which both backends call; the
// control forms, which the walker and the lowerer handle themselves, are
// exactly what apply does not know.
func TestEveryBuiltinApplies(t *testing.T) {
	control := map[Builtin]bool{BAnd: true, BOr: true, BIf: true, BCrlf: true, BTabto: true}
	for name, op := range builtinNames {
		if control[op] {
			if err := op.apply(new(wm.Value), nil); err == nil || !strings.Contains(err.Error(), "unknown builtin") {
				t.Errorf("%s: apply knows a control form: %v", name, err)
			}
			continue
		}
		args := []wm.Value{wm.Int(7), wm.Int(2)}
		if op == BNot || op == BAbs || op == BHash {
			args = args[:1]
		}
		if err := op.apply(new(wm.Value), args); err != nil {
			t.Errorf("%s on %v: %v", name, args, err)
		}
	}
}
