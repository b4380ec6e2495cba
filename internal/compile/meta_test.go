package compile

import (
	"testing"

	"parulel/internal/wm"
)

const lowerSrc = `
(literalize pool id amount)
(literalize order id)
(rule bid (pool ^id <p> ^amount <a>) (order ^id <o>) --> (halt))
(rule ask (order ^id <o>) --> (halt))
(rule idle (pool ^id <p>) --> (halt))
(metarule same-pool
  [<i> (bid ^p <p> ^a (> 10))]
  [<j> (bid ^p <p> ^o << 1 2 >>)]
  (test (precedes <i> <j>))
  (test (> (tag <i>) 0))
-->
  (redact <j>))
(metarule across
  [<i> (bid ^o <o>)]
  [<j> (ask ^o <o>)]
  (test (and (precedes <i> <j>) (= (rulename <j>) ask)))
-->
  (redact <i> <j>))
`

// TestLowerMetaRules checks the shape of the lowering: which rules get
// image templates and what is in them, how pattern tests land on condition
// elements, where the distinctness inequality goes, at which level each
// test filters, and what `rulename` and `precedes` turn into.
func TestLowerMetaRules(t *testing.T) {
	p, err := CompileSource(lowerSrc)
	if err != nil {
		t.Fatal(err)
	}
	ml := p.Meta
	if ml == nil || len(ml.Rules) != 2 || len(ml.Images) != len(p.Rules) {
		t.Fatalf("meta level: %+v", ml)
	}
	bid, ask, idle := ml.Images[0], ml.Images[1], ml.Images[2]
	if bid == nil || ask == nil || idle != nil {
		t.Fatalf("images: bid=%v ask=%v idle=%v (only rules a meta-pattern names are reified)", bid, ask, idle)
	}
	if _, inObjectSchema := p.Schema.Lookup("bid"); inObjectSchema {
		t.Error("image template leaked into the program's schema")
	}
	// bid: variables a, o, p in name order, then .id, .tag, .t0, .t1.
	want := []string{"a", "o", "p", ".id", ".tag", ".t0", ".t1"}
	if got := bid.Tmpl.Attrs; len(got) != len(want) {
		t.Fatalf("bid image attrs %v, want %v", got, want)
	} else {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("bid image attrs %v, want %v", got, want)
			}
		}
	}

	same := ml.Rules[0]
	if same.Name != "same-pool" || same.Index != 0 || same.NumPositive != 2 || len(same.CEs) != 2 || len(same.Actions) != 0 {
		t.Fatalf("lowered rule: %+v", same)
	}
	ce0, ce1 := same.CEs[0], same.CEs[1]
	if ce0.Tmpl != bid.Tmpl || ce1.Tmpl != bid.Tmpl || ce0.PosIndex != 0 || ce1.PosIndex != 1 {
		t.Fatalf("condition elements: %+v %+v", ce0, ce1)
	}
	if len(ce0.ConstTests) != 1 || ce0.ConstTests[0] != (ConstTest{Field: 0, Op: OpGt, Val: wm.Int(10)}) {
		t.Errorf("const test: %+v", ce0.ConstTests)
	}
	if len(ce1.DisjTests) != 1 || ce1.DisjTests[0].Field != 1 || len(ce1.DisjTests[0].Vals) != 2 {
		t.Errorf("disjunction test: %+v", ce1.DisjTests)
	}
	// The equality join on <p> first (the matchers index on it), then the
	// distinctness inequality on .id.
	wantJoins := []JoinTest{
		{Field: 2, Op: OpEq, OtherCE: 0, OtherField: 2},
		{Field: 3, Op: OpNe, OtherCE: 0, OtherField: 3},
	}
	if len(ce1.JoinTests) != 2 || ce1.JoinTests[0] != wantJoins[0] || ce1.JoinTests[1] != wantJoins[1] {
		t.Errorf("join tests: %+v, want %+v", ce1.JoinTests, wantJoins)
	}
	if len(ce0.JoinTests) != 0 {
		t.Errorf("first pattern has join tests: %+v", ce0.JoinTests)
	}
	// (tag <i>) reads only pattern 0 and filters there; precedes needs both.
	if len(ce0.Filters) != 1 || len(ce1.Filters) != 1 {
		t.Fatalf("filters: %d on pattern 0, %d on pattern 1", len(ce0.Filters), len(ce1.Filters))
	}
	for _, f := range []*Expr{ce0.Filters[0], ce1.Filters[0]} {
		if f.code == nil {
			t.Error("lowered filter was not compiled to bytecode")
		}
		var walk func(e *Expr)
		walk = func(e *Expr) {
			switch e.Kind {
			case EMetaRef, EMetaTag, EMetaRule, EMetaPrec:
				t.Errorf("lowered filter still holds meta node kind %d", e.Kind)
			}
			for _, a := range e.Args {
				walk(a)
			}
		}
		walk(f)
	}

	// Across different rules the two patterns need no distinctness test,
	// and `rulename` and `precedes` are constants (bid is declared first):
	// the filter reads no pattern at all and runs on the first.
	across := ml.Rules[1]
	if j := across.CEs[1].JoinTests; len(j) != 1 || j[0].Op != OpEq {
		t.Errorf("cross-rule join tests: %+v", j)
	}
	if across.CEs[1].Tmpl != ask.Tmpl || len(across.CEs[0].Filters) != 1 || len(across.CEs[1].Filters) != 0 {
		t.Fatalf("cross-rule shape: %+v %+v", across.CEs[0], across.CEs[1])
	}
	and := across.CEs[0].Filters[0]
	if and.Kind != ECall || and.Op != BAnd || and.Args[0].Kind != EConst || and.Args[0].Val != wm.Bool(true) {
		t.Errorf("precedes across rules should be the constant true: %+v", and.Args[0])
	}
	if eq := and.Args[1]; eq.Args[0].Kind != EConst || eq.Args[0].Val != wm.Sym("ask") {
		t.Errorf("rulename should be a constant: %+v", eq.Args[0])
	}
	if v, err := EvalBytecode.Eval(and, &VecEnv{}); err != nil || !v.Truthy() {
		t.Errorf("constant filter evaluates to %v, %v", v, err)
	}

	// A program without meta-rules has no meta level at all.
	bare, err := CompileSource(`(literalize a x) (rule r (a ^x <v>) --> (halt))`)
	if err != nil {
		t.Fatal(err)
	}
	if bare.Meta != nil {
		t.Error("program without meta-rules has a meta level")
	}
}

// TestImageReify checks an image against the instantiation it reifies.
func TestImageReify(t *testing.T) {
	p, err := CompileSource(lowerSrc)
	if err != nil {
		t.Fatal(err)
	}
	mem := wm.NewMemory(p.Schema)
	order, _ := mem.Insert("order", map[string]wm.Value{"id": wm.Int(7)})
	pool, _ := mem.Insert("pool", map[string]wm.Value{"id": wm.Int(3), "amount": wm.Int(50)})
	w := p.Meta.Images[0].Reify(9, []*wm.WME{pool, order})
	want := []wm.Value{wm.Int(50), wm.Int(7), wm.Int(3), wm.Int(9), wm.Int(pool.Time), wm.Int(pool.Time), wm.Int(order.Time)}
	if w.Time != 9 || w.Tmpl != p.Meta.Images[0].Tmpl || len(w.Fields) != len(want) {
		t.Fatalf("image: %v", w)
	}
	for i := range want {
		if w.Fields[i] != want[i] {
			t.Errorf("field %s = %v, want %v", w.Tmpl.Attrs[i], w.Fields[i], want[i])
		}
	}
}
