package compile

import (
	"fmt"
	"testing"

	"parulel/internal/lang"
	"parulel/internal/wm"
)

// vmEnv is a deterministic Env for backend-agreement tests: every lookup
// is a pure function of the reference, so the interpreter and the VM see
// identical worlds without constructing instantiations.
type vmEnv struct{}

var vmPalette = []wm.Value{
	wm.Int(0), wm.Int(7), wm.Int(-3), wm.Int(2),
	wm.Float(2), wm.Float(0.5), wm.Float(0), wm.Float(-1.25),
	wm.Sym("false"), wm.Sym("true"), wm.Sym("x"),
	wm.Str(""), wm.Str("ab"), {},
}

func paletteAt(i int) wm.Value {
	if i < 0 {
		i = -i
	}
	return vmPalette[i%len(vmPalette)]
}

func (vmEnv) Ref(r VarRef) wm.Value               { return paletteAt(r.CE*7 + r.Field) }
func (vmEnv) Local(i int) wm.Value                { return paletteAt(i + 3) }
func (vmEnv) MetaVal(pat int, r VarRef) wm.Value  { return paletteAt(pat*5 + r.CE + r.Field) }
func (vmEnv) MetaTag(pat int) int64               { return int64(pat*10 + 3) }
func (vmEnv) MetaRuleName(pat int) string         { return fmt.Sprintf("rule%d", pat) }
func (vmEnv) MetaPrecedes(pat int, pat2 int) bool { return pat < pat2 }

// agree evaluates e through both backends and requires identical values
// and identical error text.
func agree(t *testing.T, e *Expr) (wm.Value, error) {
	t.Helper()
	cd := lowerExpr(e)
	if cd == nil {
		if e.Kind != ECall {
			// Leaf roots are not lowered by policy; force them through
			// the lowerer so VM leaf instructions stay covered.
			l := &lowerer{}
			if !l.lower(e, 0) {
				t.Fatalf("lowerer failed on leaf %+v", e)
			}
			l.emit(opRet, 0, 0, 0)
			cd = &code{ins: l.ins, consts: l.consts, refs: l.refs, nregs: l.nregs}
		} else {
			t.Fatalf("lowerExpr returned nil for %+v", e)
		}
	}
	wantV, wantErr := Eval(e, vmEnv{})
	gotV, gotErr := cd.run(vmEnv{})
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("error divergence: interp err=%v, vm err=%v", wantErr, gotErr)
	}
	if wantErr != nil {
		if wantErr.Error() != gotErr.Error() {
			t.Fatalf("error text divergence: interp %q, vm %q", wantErr, gotErr)
		}
		return wm.Value{}, wantErr
	}
	if wantV != gotV {
		t.Fatalf("value divergence: interp %s (%+v), vm %s (%+v)", wantV, wantV, gotV, gotV)
	}
	return wantV, nil
}

func TestBytecodeAgreesWithInterp(t *testing.T) {
	i, f, s := wm.Int, wm.Float, wm.Sym
	cases := []struct {
		name string
		e    *Expr
	}{
		{"const", c(i(42))},
		{"ref", &Expr{Kind: ERef, Ref: VarRef{CE: 1, Field: 2}}},
		{"local", &Expr{Kind: ELocal, Local: 4}},
		{"add-int", call(BAdd, c(i(1)), c(i(2)), c(i(3)))},
		{"add-mixed", call(BAdd, c(i(1)), c(f(0.5)))},
		// The all-operand int/float decision: a trailing float makes the
		// WHOLE fold float, so (div 7 2 2.0) = 1.75, not 1.5.
		{"div-mixed-window", call(BDiv, c(i(7)), c(i(2)), c(f(2)))},
		{"div-int", call(BDiv, c(i(7)), c(i(2)))},
		{"div-zero-int", call(BDiv, c(i(7)), c(i(0)))},
		{"div-zero-float", call(BDiv, c(f(7)), c(f(0)))},
		{"mod-int", call(BMod, c(i(7)), c(i(3)))},
		{"mod-zero", call(BMod, c(i(7)), c(i(0)))},
		{"mod-float", call(BMod, c(f(7)), c(i(3)))},
		{"unary-minus-int", call(BSub, c(i(5)))},
		{"unary-minus-float", call(BSub, c(f(1.5)))},
		{"sub-chain", call(BSub, c(i(10)), c(i(3)), c(i(2)))},
		{"min-max", call(BMin, call(BMax, c(i(3)), c(f(9))), c(i(5)))},
		{"arith-nonnumeric", call(BAdd, c(i(1)), c(s("x")))},
		{"arith-nonnumeric-order", call(BAdd, c(s("a")), c(s("b")))},
		{"eq-numeric", call(BEq, c(i(2)), c(f(2)))},
		{"ne", call(BNe, c(s("a")), c(s("b")))},
		{"lt", call(BLt, c(i(1)), c(i(2)))},
		{"le-cross-kind", call(BLe, c(s("a")), c(i(1)))},
		{"gt", call(BGt, c(f(2.5)), c(i(2)))},
		{"ge", call(BGe, c(i(2)), c(i(2)))},
		{"not", call(BNot, c(s("false")))},
		{"not-nil", call(BNot, c(wm.Value{}))},
		{"and-true", call(BAnd, c(i(1)), c(s("true")))},
		{"and-shortcircuit-skips-error", call(BAnd, c(s("false")), call(BDiv, c(i(1)), c(i(0))))},
		{"and-error-propagates", call(BAnd, c(i(1)), call(BDiv, c(i(1)), c(i(0))))},
		{"or-shortcircuit-skips-error", call(BOr, c(i(1)), call(BDiv, c(i(1)), c(i(0))))},
		{"or-false", call(BOr, c(s("false")), c(wm.Value{}))},
		{"if-then", call(BIf, c(i(1)), c(s("yes")), call(BDiv, c(i(1)), c(i(0))))},
		{"if-else", call(BIf, c(s("false")), call(BDiv, c(i(1)), c(i(0))), c(s("no")))},
		{"if-cond-error", call(BIf, call(BDiv, c(i(1)), c(i(0))), c(i(1)), c(i(2)))},
		{"abs-int", call(BAbs, c(i(-3)))},
		{"abs-float", call(BAbs, c(f(-2.5)))},
		{"abs-nonnumeric", call(BAbs, c(s("x")))},
		{"hash-int", call(BHash, c(i(12345)))},
		{"hash-float", call(BHash, c(f(2)))},
		{"hash-sym", call(BHash, c(s("pool")))},
		{"symcat", call(BSymcat, c(s("a")), c(i(3)), c(f(2)))},
		{"symcat-empty", call(BSymcat, c(wm.Str("")))},
		{"crlf", call(BSymcat, c(s("a")), call(BCrlf))},
		{"tabto", call(BSymcat, c(s("a")), call(BTabto))},
		{"meta-ref", &Expr{Kind: EMetaRef, Pat: 1, MetaVar: VarRef{CE: 0, Field: 2}}},
		{"meta-tag", &Expr{Kind: EMetaTag, Pat: 2}},
		{"meta-rule", &Expr{Kind: EMetaRule, Pat: 1}},
		{"meta-prec", &Expr{Kind: EMetaPrec, Pat: 0, Pat2: 1}},
		// Palette runs: CE 0 from field 1 is 7 -3 2, CE 1 from field 8 is
		// 7 -3 2 again (the palette has 14 entries), so the first differing
		// pair decides and equal runs do not precede.
		{"ref-prec-first-pair", &Expr{Kind: ERefPrec, Ref: VarRef{CE: 0, Field: 2}, MetaVar: VarRef{CE: 0, Field: 1}, Len: 2}},
		{"ref-prec-later-pair", &Expr{Kind: ERefPrec, Ref: VarRef{CE: 0, Field: 1}, MetaVar: VarRef{CE: 1, Field: 8}, Len: 3}},
		{"ref-prec-equal-runs", &Expr{Kind: ERefPrec, Ref: VarRef{CE: 0, Field: 1}, MetaVar: VarRef{CE: 1, Field: 8}, Len: 2}},
		{"ref-prec-mixed-kinds", &Expr{Kind: ERefPrec, Ref: VarRef{CE: 0, Field: 3}, MetaVar: VarRef{CE: 0, Field: 4}, Len: 6}},
		{"ref-prec-empty", &Expr{Kind: ERefPrec, Ref: VarRef{CE: 0, Field: 1}, MetaVar: VarRef{CE: 0, Field: 2}}},
		{"ref-prec-in-call", call(BAnd, c(i(1)), &Expr{Kind: ERefPrec, Ref: VarRef{CE: 0, Field: 2}, MetaVar: VarRef{CE: 0, Field: 1}, Len: 1})},
		{"nested", call(BIf,
			call(BAnd, call(BLt, &Expr{Kind: ERef, Ref: VarRef{CE: 0, Field: 1}}, c(i(100))), call(BNot, c(s("false")))),
			call(BAdd, call(BMul, c(i(3)), c(i(4))), call(BMod, call(BHash, c(s("k"))), c(i(8)))),
			c(i(0)))},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) { agree(t, tc.e) })
	}
}

// TestCompileAttachesBytecode verifies that every root expression of a
// compiled program carries lowered code, so nothing Compile emits is
// silently interpreted, and that CompileUnlowered's copy of the same
// program carries none.
func TestCompileAttachesBytecode(t *testing.T) {
	ast, err := lang.Parse(`
(literalize item id score flag)
(rule bump
  <x> <- (item ^id <i> ^score <s> ^flag on)
  (test (< <s> 10))
-->
  (bind <n> (+ <s> 1))
  (modify <x> ^score <n>)
  (write "bumped " <i> (crlf)))
(metarule prefer-older
  [<a> (bump ^i <i1>)]
  [<b> (bump ^i <i2>)]
  (test (precedes <b> <a>))
-->
  (redact <a>))
`)
	if err != nil {
		t.Fatal(err)
	}
	roots := func(prog *Program, check func(where string, x *Expr)) {
		rules := prog.Rules
		if prog.Meta != nil {
			rules = append(rules[:len(rules):len(rules)], prog.Meta.Rules...)
		}
		for _, r := range rules {
			for _, ce := range r.CEs {
				for _, f := range ce.Filters {
					check("rule "+r.Name+" filter", f)
				}
			}
			for _, a := range r.Actions {
				for j := range a.Slots {
					check("rule "+r.Name+" slot", a.Slots[j].Expr)
				}
				for _, x := range a.Exprs {
					check("rule "+r.Name+" action", x)
				}
			}
		}
		for _, m := range prog.MetaRules {
			for _, x := range m.Tests {
				check("metarule "+m.Name+" test", x)
			}
		}
	}
	prog, err := Compile(ast)
	if err != nil {
		t.Fatal(err)
	}
	// Call roots must carry bytecode; leaf roots (plain refs, constants)
	// deliberately stay on the tree walker, which is already optimal for
	// a single node.
	calls := 0
	roots(prog, func(where string, x *Expr) {
		if x.Kind == ECall {
			calls++
			if x.code == nil {
				t.Errorf("%s: call expr not lowered", where)
			}
		} else if x.code != nil {
			t.Errorf("%s: leaf expr unexpectedly lowered", where)
		}
	})
	if calls == 0 {
		t.Fatal("no call expressions found — the program under test is wrong")
	}
	ref, err := CompileUnlowered(ast)
	if err != nil {
		t.Fatal(err)
	}
	refCalls := 0
	roots(ref, func(where string, x *Expr) {
		if x.Kind == ECall {
			refCalls++
		}
		if x.code != nil {
			t.Errorf("%s: unlowered program carries bytecode", where)
		}
	})
	if refCalls != calls {
		t.Errorf("unlowered program has %d call roots, the lowered one %d", refCalls, calls)
	}
}

func TestEvalFallsBackWithoutCode(t *testing.T) {
	e := call(BAdd, c(wm.Int(2)), c(wm.Int(3))) // hand-built: no code attached
	v, err := e.Eval(vmEnv{})
	if err != nil || v != wm.Int(5) {
		t.Fatalf("fallback eval = %v, %v; want 5", v, err)
	}
}

func BenchmarkEvalExpr(b *testing.B) {
	// The E13-shaped microbenchmark: a filter-like expression with refs,
	// comparison, arithmetic and a short-circuit — the common hot shape.
	e := call(BAnd,
		call(BLt, &Expr{Kind: ERef, Ref: VarRef{CE: 0, Field: 1}}, c(wm.Int(100))),
		call(BEq, call(BMod, call(BAdd, &Expr{Kind: ERef, Ref: VarRef{CE: 0, Field: 3}}, c(wm.Int(13))), c(wm.Int(7))), c(wm.Int(1))),
	)
	code := lowerExpr(e)
	if code == nil {
		b.Fatal("lowering failed")
	}
	b.Run("interp", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Eval(e, vmEnv{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bytecode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := code.run(vmEnv{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestRefPrecedes checks the lowered `precedes` node against the order it
// stands for — the lexicographic order of two time-tag vectors — on both
// backends and through both kinds of environment, including tags a float
// comparison would confuse.
func TestRefPrecedes(t *testing.T) {
	tmpl := &wm.Template{Name: "img", Attrs: []string{"x", ".t0", ".t1"}}
	img := func(t0, t1 int64) *wm.WME {
		return &wm.WME{Tmpl: tmpl, Fields: []wm.Value{wm.Sym("x"), wm.Int(t0), wm.Int(t1)}}
	}
	const big = 1 << 60
	e := &Expr{Kind: ERefPrec, Ref: VarRef{CE: 0, Field: 1}, MetaVar: VarRef{CE: 1, Field: 1}, Len: 2}
	root := call(BOr, c(wm.Bool(false)), e) // a call root, so that it is lowered
	root.code = lowerExpr(root)
	if root.code == nil {
		t.Fatal("not lowered")
	}
	for _, tc := range []struct {
		a, b [2]int64
		want bool
	}{
		{[2]int64{1, 9}, [2]int64{2, 0}, true},
		{[2]int64{2, 0}, [2]int64{1, 9}, false},
		{[2]int64{3, 4}, [2]int64{3, 5}, true},
		{[2]int64{3, 5}, [2]int64{3, 5}, false},
		{[2]int64{big, 1}, [2]int64{big + 1, 0}, true},
		{[2]int64{big + 1, 0}, [2]int64{big, 1}, false},
	} {
		vec := &VecEnv{Vec: []*wm.WME{img(tc.a[0], tc.a[1]), img(tc.b[0], tc.b[1])}}
		for name, got := range map[string]func() (wm.Value, error){
			"interp":  func() (wm.Value, error) { return Eval(e, vec) },
			"vm":      func() (wm.Value, error) { return root.Eval(vec) },
			"generic": func() (wm.Value, error) { return Eval(e, struct{ Env }{vec}) },
		} {
			if v, err := got(); err != nil || v.Truthy() != tc.want {
				t.Errorf("%v precedes %v on %s: %v, %v; want %v", tc.a, tc.b, name, v, err, tc.want)
			}
		}
	}
}
