package compile

import (
	"math"
	"os"
	"path/filepath"
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
	// Where ints stop being exact as floats, and the floats that compare
	// unlike any other.
	wm.Int(1 << 53), wm.Int(-1 << 53), wm.Int(1<<53 + 1), wm.Int(-1<<53 - 1),
	wm.Int(1 << 60), wm.Float(math.NaN()), wm.Float(math.Copysign(0, -1)),
}

func paletteAt(i int) wm.Value {
	if i < 0 {
		i = -i
	}
	return vmPalette[i%len(vmPalette)]
}

func (vmEnv) Ref(r VarRef) wm.Value { return paletteAt(r.CE*7 + r.Field) }
func (vmEnv) Local(i int) wm.Value  { return paletteAt(i + 3) }

// paletteVec is vmEnv's references as a matched WME vector, the environment
// filters run in: field f of the WME at CE ce is vmEnv's Ref for it.
var paletteVec = func() *VecEnv {
	env := &VecEnv{}
	for ce := 0; ce < 4; ce++ {
		w := &wm.WME{Time: int64(ce + 1)}
		for f := 0; f < 24; f++ {
			w.Fields = append(w.Fields, vmEnv{}.Ref(VarRef{CE: ce, Field: f}))
		}
		env.Vec = append(env.Vec, w)
	}
	return env
}()

// readsVec reports whether e reads nothing a filter's VecEnv lacks: no RHS
// local.
func readsVec(e *Expr) bool {
	if e.Kind == ELocal {
		return false
	}
	for _, a := range e.Args {
		if !readsVec(a) {
			return false
		}
	}
	return true
}

// agree evaluates e through both backends and requires identical values
// and identical error text; lowered as a filter, e must also hold on
// paletteVec exactly when the tree walker finds it truthy without error.
func agree(t *testing.T, e *Expr) (wm.Value, error) {
	t.Helper()
	if readsVec(e) {
		f := *e
		if f.code = lowerCond(e); f.code == nil {
			t.Fatalf("lowerCond returned nil for %+v", e)
		}
		v, err := Eval(e, paletteVec)
		if want := err == nil && v.Truthy(); f.Holds(paletteVec) != want {
			t.Fatalf("Holds = %v, tree walker %s, %v", !want, v, err)
		}
	}
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
			cd = l.finish(false)
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
	if !identical(wantV, gotV) {
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
		// Palette runs: CE 0 from field 1 is 7 -3 2, CE 1 from field 15 is
		// 7 -3 2 again (the palette has 21 entries), so the first differing
		// pair decides and equal runs do not precede.
		{"ref-prec-first-pair", &Expr{Kind: ERefPrec, Ref: VarRef{CE: 0, Field: 2}, MetaVar: VarRef{CE: 0, Field: 1}, Len: 2}},
		{"ref-prec-later-pair", &Expr{Kind: ERefPrec, Ref: VarRef{CE: 0, Field: 1}, MetaVar: VarRef{CE: 1, Field: 15}, Len: 3}},
		{"ref-prec-equal-runs", &Expr{Kind: ERefPrec, Ref: VarRef{CE: 0, Field: 1}, MetaVar: VarRef{CE: 1, Field: 15}, Len: 2}},
		{"ref-prec-mixed-kinds", &Expr{Kind: ERefPrec, Ref: VarRef{CE: 0, Field: 3}, MetaVar: VarRef{CE: 0, Field: 4}, Len: 6}},
		{"ref-prec-empty", &Expr{Kind: ERefPrec, Ref: VarRef{CE: 0, Field: 1}, MetaVar: VarRef{CE: 0, Field: 2}}},
		{"ref-prec-in-call", call(BAnd, c(i(1)), &Expr{Kind: ERefPrec, Ref: VarRef{CE: 0, Field: 2}, MetaVar: VarRef{CE: 0, Field: 1}, Len: 1})},
		// Condition code: comparisons at the edge of exact ints, NaN, both
		// operands computed into registers, errors under or and not, and
		// roots that are not comparisons.
		{"eq-past-2^53", call(BEq, c(i(1<<53)), c(i(1<<53+1)))},
		{"lt-past-2^53", call(BLt, c(i(-1<<53-1)), c(i(-1<<53)))},
		{"lt-at-2^53", call(BLt, c(i(1<<53-1)), c(i(1<<53)))},
		{"lt-nan", call(BLt, c(f(math.NaN())), c(i(1)))},
		{"ge-nan", call(BGe, c(f(math.NaN())), c(i(1)))},
		{"ne-nan", call(BNe, c(f(math.NaN())), c(f(math.NaN())))},
		{"cmp-two-registers", call(BGt, call(BSub, &Expr{Kind: ERef, Ref: VarRef{CE: 0, Field: 1}}, c(i(1))), call(BMul, &Expr{Kind: ERef, Ref: VarRef{CE: 0, Field: 3}}, c(i(2))))},
		{"or-error-first", call(BOr, call(BDiv, c(i(1)), c(i(0))), c(i(1)))},
		{"not-error", call(BNot, call(BDiv, c(i(1)), c(i(0))))},
		{"not-or-and", call(BNot, call(BOr, call(BAnd, c(i(1)), call(BLt, c(i(2)), c(i(1)))), call(BNot, c(s("x")))))},
		{"and-empty", call(BAnd)},
		{"or-empty", call(BOr)},
		{"if-as-condition", call(BIf, &Expr{Kind: ERef, Ref: VarRef{CE: 0, Field: 8}}, c(i(1)), c(s("false")))},
		{"const-root", c(s("false"))},
		{"ref-root", &Expr{Kind: ERef, Ref: VarRef{CE: 0, Field: 13}}},
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

// TestCompileAttachesBytecode verifies that every filter of a compiled
// program carries condition code and every call-rooted action expression
// value code, so nothing Compile emits is interpreted but leaf actions,
// that no meta-rule's source-form test carries code, in the test program
// or in any bundled one, and that CompileUnlowered's copy carries none.
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
	// roots calls check on every root expression, saying whether it is a
	// filter.
	roots := func(prog *Program, check func(where string, x *Expr, filter bool)) {
		rules := prog.Rules
		if prog.Meta != nil {
			rules = append(rules[:len(rules):len(rules)], prog.Meta.Rules...)
		}
		for _, r := range rules {
			for _, ce := range r.CEs {
				for _, f := range ce.Filters {
					check("rule "+r.Name+" filter", f, true)
				}
			}
			for _, a := range r.Actions {
				for j := range a.Slots {
					check("rule "+r.Name+" slot", a.Slots[j].Expr, false)
				}
				for _, x := range a.Exprs {
					check("rule "+r.Name+" action", x, false)
				}
			}
		}
	}
	// metaTests calls check on every meta-rule's source-form test.
	metaTests := func(prog *Program, check func(where string, x *Expr)) {
		for _, m := range prog.MetaRules {
			for _, x := range m.Tests {
				check("metarule "+m.Name+" test", x)
			}
		}
	}
	unlowered := func(where string, x *Expr) {
		if x.code != nil {
			t.Errorf("%s: meta-rule test carries bytecode", where)
		}
	}
	prog, err := Compile(ast)
	if err != nil {
		t.Fatal(err)
	}
	// Every filter runs condition code, the lowered precedes leaf included;
	// leaf actions (plain refs, constants) stay on the tree walker, which
	// is already optimal for a single node.
	filters, calls := 0, 0
	roots(prog, func(where string, x *Expr, filter bool) {
		switch {
		case filter:
			filters++
			if x.code == nil || !x.code.cond {
				t.Errorf("%s: no condition code", where)
			}
		case x.Kind == ECall:
			calls++
			if x.code == nil || x.code.cond {
				t.Errorf("%s: call expr has no value code", where)
			}
		case x.code != nil:
			t.Errorf("%s: leaf expr unexpectedly lowered", where)
		}
	})
	if filters != 2 || calls == 0 {
		t.Fatalf("%d filters and %d call roots — the program under test is wrong", filters, calls)
	}
	metaTests(prog, unlowered)
	paths, err := filepath.Glob(filepath.Join("..", "programs", "src", "*.par"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no bundled programs: %v", err)
	}
	callTests := 0
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		bundled, err := CompileSource(string(src))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		metaTests(bundled, func(where string, x *Expr) {
			if x.Kind == ECall {
				callTests++
			}
			unlowered(filepath.Base(path)+": "+where, x)
		})
	}
	if callTests == 0 {
		t.Fatal("no bundled meta-rule test is call-rooted — the check above proves nothing")
	}
	ref, err := CompileUnlowered(ast)
	if err != nil {
		t.Fatal(err)
	}
	refFilters, refCalls := 0, 0
	roots(ref, func(where string, x *Expr, filter bool) {
		switch {
		case filter:
			refFilters++
		case x.Kind == ECall:
			refCalls++
		}
		if x.code != nil {
			t.Errorf("%s: unlowered program carries bytecode", where)
		}
	})
	if refFilters != filters || refCalls != calls {
		t.Errorf("unlowered program has %d filters and %d call roots, the lowered one %d and %d", refFilters, refCalls, filters, calls)
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
	// The shipped filters by value — the value code a filter ran before it
	// had condition code, or for the precedes leaf the tree walker — and as
	// the condition code Holds runs.
	for _, sf := range shippedFilters(b) {
		byValue := *sf.f
		byValue.code = lowerExpr(sf.f)
		b.Run(sf.name+"/value", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				v, err := byValue.Eval(sf.env)
				held = err == nil && v.Truthy()
			}
		})
		b.Run(sf.name+"/cond", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				held = sf.f.Holds(sf.env)
			}
		})
	}
}

var held bool

// shippedFilter is one `(test …)` of a builtin program as Compile lowers
// it, and a WME vector to run it on.
type shippedFilter struct {
	name string
	f    *Expr
	env  *VecEnv
}

// shippedFilters returns the filters the engine spends its evaluation on:
// alexsys' two meta-rule tests and its allocation range test, waltz's
// corner cross product and a bare precedes. Every WME of a vector holds 1,
// 2, 3, … in field order, so the two images of a meta-rule pair tie and
// each test runs to its last comparison.
func shippedFilters(tb testing.TB) []shippedFilter {
	tb.Helper()
	load := func(name string) *Program {
		src, err := os.ReadFile(filepath.Join("..", "programs", "src", name+".par"))
		if err != nil {
			tb.Fatal(err)
		}
		prog, err := CompileSource(string(src))
		if err != nil {
			tb.Fatal(err)
		}
		return prog
	}
	rule := func(p *Program, name string) *Rule {
		for _, r := range append(p.Rules[:len(p.Rules):len(p.Rules)], p.Meta.Rules...) {
			if r.Name == name {
				return r
			}
		}
		tb.Fatalf("no rule %s", name)
		return nil
	}
	alexsys, waltz := load("alexsys"), load("waltz")
	var out []shippedFilter
	for _, x := range []struct {
		name string
		r    *Rule
	}{
		{"alexsys/one-award-per-pool", rule(alexsys, "one-award-per-pool")},
		{"alexsys/one-award-per-order", rule(alexsys, "one-award-per-order")},
		{"alexsys/allocate", rule(alexsys, "allocate")},
		{"waltz/corner-pair", rule(waltz, "corner-pair")},
		{"waltz/precedes", rule(waltz, "one-boundary-label")},
	} {
		env := &VecEnv{}
		for _, ce := range x.r.CEs {
			if ce.Negated {
				continue
			}
			w := &wm.WME{Tmpl: ce.Tmpl, Time: int64(len(env.Vec) + 1)}
			for f := range ce.Tmpl.Attrs {
				w.Fields = append(w.Fields, wm.Int(int64(f+1)))
			}
			if env.Vec = append(env.Vec, w); len(ce.Filters) == 1 {
				out = append(out, shippedFilter{x.name, ce.Filters[0], env})
				break
			}
		}
	}
	if len(out) != 5 {
		tb.Fatalf("found %d of the five filters", len(out))
	}
	return out
}

// TestShippedFiltersHoldWithoutAllocating: condition code gives the tree
// walker's verdict on each shipped filter and allocates nothing doing it.
func TestShippedFiltersHoldWithoutAllocating(t *testing.T) {
	for _, sf := range shippedFilters(t) {
		if sf.f.code == nil || !sf.f.code.cond {
			t.Errorf("%s: no condition code", sf.name)
			continue
		}
		v, err := Eval(sf.f, sf.env)
		if want := err == nil && v.Truthy(); sf.f.Holds(sf.env) != want {
			t.Errorf("%s: Holds = %v, tree walker %s, %v", sf.name, !want, v, err)
		}
		if n := testing.AllocsPerRun(100, func() { held = sf.f.Holds(sf.env) }); n != 0 {
			t.Errorf("%s: Holds allocates %v times", sf.name, n)
		}
	}
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
	filter := *e // a filter root, as the meta level runs it
	filter.code = lowerCond(e)
	if root.code == nil || filter.code == nil {
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
			"holds":   func() (wm.Value, error) { return wm.Bool(filter.Holds(vec)), nil },
		} {
			if v, err := got(); err != nil || v.Truthy() != tc.want {
				t.Errorf("%v precedes %v on %s: %v, %v; want %v", tc.a, tc.b, name, v, err, tc.want)
			}
		}
	}
}
