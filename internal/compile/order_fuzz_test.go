package compile

import (
	"math"
	"testing"

	"parulel/internal/wm"
)

// orderValues are what FuzzDominanceOrder draws key fields from: ints,
// floats, symbols, strings and nil, with the pairs the relational operators
// are subtle on — 1 against 1.0, -0.0 against 0, ±Inf, NaN, and ints past
// 2^53, which the operators compare as the floats they round to.
var orderValues = []wm.Value{
	wm.Int(0), wm.Int(1), wm.Int(-1), wm.Int(1<<53 - 1), wm.Int(1 << 53), wm.Int(1<<53 + 1), wm.Int(-(1<<53 + 1)),
	wm.Float(1), wm.Float(math.Copysign(0, -1)), wm.Float(0.5), wm.Float(1 << 53),
	wm.Float(math.Inf(1)), wm.Float(math.Inf(-1)), wm.Float(math.NaN()),
	wm.Sym("a"), wm.Sym("b"), wm.Str("a"), wm.Str("b"), wm.Nil(),
}

// fuzzOrders compiles every order FuzzDominanceOrder checks: the bundled
// programs' and every accepted form of orderForms.
func fuzzOrders(tb testing.TB) (progs []*Program, orders []*Order) {
	tb.Helper()
	for _, name := range []string{"alexsys", "manners", "circuit", "closure", "quickstart", "waltz"} {
		p, _ := bundledMetaRules(tb, name)
		for _, o := range p.Meta.Orders {
			progs, orders = append(progs, p), append(orders, o)
		}
	}
	for _, tc := range orderForms {
		if tc.want == "" {
			continue
		}
		p, err := CompileSource(orderRules + "(metarule m " + tc.meta + ")")
		if err != nil {
			tb.Fatal(err)
		}
		progs, orders = append(progs, p), append(orders, p.Meta.Orders[0])
	}
	return progs, orders
}

// FuzzDominanceOrder holds every order to the meta-rule it was compiled
// from: for a pair of instantiations, the order's verdict — its pairwise
// evaluation always, and its three-way comparison when neither holds a NaN
// at a key — equals the compiled test evaluated by Expr.Holds on their
// images. The comparison must be the relational operators' (predCompare),
// not wm.Value.Compare, which tells 1 from 1.0.
func FuzzDominanceOrder(f *testing.F) {
	progs, orders := fuzzOrders(f)
	f.Add(uint8(0), []byte{0, 7, 1, 2, 3, 4})
	f.Add(uint8(3), []byte{13, 11, 12, 1, 1, 1, 13, 13})
	f.Add(uint8(9), []byte{4, 5, 6, 10, 9, 8, 2, 2})
	f.Fuzz(func(t *testing.T, form uint8, data []byte) {
		p, o := progs[int(form)%len(orders)], orders[int(form)%len(orders)]
		next := 0
		draw := func(n int) int {
			if len(data) == 0 {
				return 0
			}
			next++
			return int(data[(next-1)%len(data)]) % n
		}
		build := func() []*wm.WME {
			vec := make([]*wm.WME, o.Rule.NumPositive)
			for _, ce := range o.Rule.CEs {
				if ce.Negated {
					continue
				}
				fields := make([]wm.Value, ce.Tmpl.Arity())
				for i := range fields {
					fields[i] = orderValues[draw(len(orderValues))]
				}
				vec[ce.PosIndex] = &wm.WME{Time: int64(1 + draw(4)), Tmpl: ce.Tmpl, Fields: fields}
			}
			return vec
		}
		w, v := build(), build()
		im := p.Meta.Images[o.Rule.Index]
		wImg, vImg := im.Reify(w), im.Reify(v)
		env := &VecEnv{Vec: make([]*wm.WME, 2)}
		env.Vec[o.victim], env.Vec[1-o.victim] = &vImg, &wImg
		holds := true
		for _, ce := range p.Meta.Rules[o.Meta].CEs {
			for _, flt := range ce.Filters {
				holds = holds && flt.Holds(env)
			}
		}
		if got := o.Redacts(w, v); got != holds {
			t.Fatalf("%s: Redacts says %v, the compiled test %v, on %v and %v", describeOrder(o), got, holds, wImg.Fields, vImg.Fields)
		}
		if !o.Regular(w) || !o.Regular(v) {
			return
		}
		c := o.Compare(w, v)
		if got := c < 0 || !o.Strict && c == 0; got != holds {
			t.Fatalf("%s: Compare gives %d, the compiled test %v, on %v and %v", describeOrder(o), c, holds, wImg.Fields, vImg.Fields)
		}
		if back := o.Compare(v, w); back != -c {
			t.Fatalf("%s: Compare gives %d one way and %d the other, on %v and %v", describeOrder(o), c, back, wImg.Fields, vImg.Fields)
		}
	})
}
