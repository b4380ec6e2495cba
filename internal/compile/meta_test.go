package compile

import (
	"os"
	"slices"
	"strings"
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
	// bid: variables a, o, p in name order, then .tag, .t0, .t1.
	want := []string{"a", "o", "p", ".tag", ".t0", ".t1"}
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
	// The equality join on <p>, and nothing for "<i> is not <j>": that is
	// the join plans' (TestJoinPlans).
	wantJoin := JoinTest{Field: 2, Op: OpEq, OtherCE: 0, OtherField: 2}
	if len(ce1.JoinTests) != 1 || ce1.JoinTests[0] != wantJoin {
		t.Errorf("join tests: %+v, want %+v", ce1.JoinTests, wantJoin)
	}
	if len(ce0.JoinTests) != 0 {
		t.Errorf("first pattern has join tests: %+v", ce0.JoinTests)
	}
	// (tag <i>) reads only pattern 0 and filters there; precedes needs both.
	if len(ce0.Filters) != 1 || len(ce1.Filters) != 1 {
		t.Fatalf("filters: %d on pattern 0, %d on pattern 1", len(ce0.Filters), len(ce1.Filters))
	}
	// precedes within one rule is one node over the two time-tag runs (bid
	// has two positive condition elements).
	wantPrec := Expr{Kind: ERefPrec, Ref: VarRef{CE: 0, Field: 4}, MetaVar: VarRef{CE: 1, Field: 4}, Len: 2}
	if got := *ce1.Filters[0]; got.Kind != wantPrec.Kind || got.Ref != wantPrec.Ref || got.MetaVar != wantPrec.MetaVar || got.Len != wantPrec.Len {
		t.Errorf("precedes lowered to %+v, want %+v", got, wantPrec)
	}
	for _, f := range []*Expr{ce0.Filters[0], ce1.Filters[0]} {
		if f.code == nil || !f.code.cond {
			t.Error("lowered filter was not compiled to condition code")
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
	if !and.Holds(&VecEnv{}) {
		t.Error("constant filter does not hold")
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
	w := p.Meta.Images[0].Reify([]*wm.WME{pool, order})
	want := []wm.Value{wm.Int(50), wm.Int(7), wm.Int(3), wm.Int(pool.Time), wm.Int(pool.Time), wm.Int(order.Time)}
	if w.Time != pool.Time || w.Tmpl != p.Meta.Images[0].Tmpl || len(w.Fields) != len(want) {
		t.Fatalf("image: %v", &w)
	}
	for i := range want {
		if w.Fields[i] != want[i] {
			t.Errorf("field %s = %v, want %v", w.Tmpl.Attrs[i], w.Fields[i], want[i])
		}
	}
}

// TestJoinPlans checks the plans compiled beside the lowering: which
// pattern a join seeded at each pattern binds next, through which index,
// which tests are left for the step, where filters run, and what the
// leave-side pruning is told about victims. The object rules' plans are
// checked by testObjectJoinPlans.
func TestJoinPlans(t *testing.T) {
	p, err := CompileSource(lowerSrc + `
(metarule chain
  [<i> (bid ^p <p> ^a <a>)]
  [<j> (ask ^o <o>)]
  [<k> (bid ^p <p> ^o <o> ^a (> <a>))]
-->
  (redact <i> <k>))
`)
	if err != nil {
		t.Fatal(err)
	}
	ml := p.Meta
	if len(ml.Patterns) != 7 {
		t.Fatalf("%d patterns, want 2 + 2 + 3", len(ml.Patterns))
	}
	for i, pat := range ml.Patterns {
		if pat.ID != i || pat.CE != ml.Rules[pat.Rule].CEs[pat.Pat] {
			t.Fatalf("pattern %d: %+v", i, pat)
		}
	}
	// Image fields — bid: a 0, o 1, p 2; ask: o 0.
	const a, o, pp = 0, 1, 2
	bid, ask := ml.Images[0], ml.Images[1]
	pats := func(im *Image) (ids []int) {
		for _, pat := range im.Patterns {
			ids = append(ids, pat.ID)
		}
		return ids
	}
	if got := pats(bid); !slices.Equal(got, []int{0, 1, 2, 4, 6}) {
		t.Errorf("patterns over bid: %v", got)
	}
	if got := pats(ask); !slices.Equal(got, []int{3, 5}) {
		t.Errorf("patterns over ask: %v", got)
	}
	// Every pattern's memory is indexed on exactly the field its plans
	// probe, on both sides of each equality test; chain's last pattern is
	// probed on p from <i> and on o from <j>.
	wantIndexed := [][]int{{pp}, {pp}, {o}, {0}, {pp}, {0}, {pp, o}}
	pos := map[*Image]int{}
	for i, pat := range ml.Patterns {
		if !slices.Equal(pat.Indexed, wantIndexed[i]) {
			t.Errorf("pattern %d indexed on %v, want %v", i, pat.Indexed, wantIndexed[i])
		}
		if want := slices.Contains(p.MetaRules[pat.Rule].Redacts, pat.Pat); pat.Victim != want {
			t.Errorf("pattern %d: Victim = %v, want %v", i, pat.Victim, want)
		}
		im := ml.Images[p.MetaRules[pat.Rule].Patterns[pat.Pat].Rule.Index]
		if pat.Pos != pos[im] {
			t.Errorf("pattern %d: positions start at %d, want %d", i, pat.Pos, pos[im])
		}
		pos[im] += 1 + len(pat.Indexed)
	}
	if bid.NumPos != pos[bid] || ask.NumPos != pos[ask] || bid.NumPos != 11 || ask.NumPos != 4 {
		t.Errorf("position vectors: bid %d, ask %d", bid.NumPos, ask.NumPos)
	}

	type step struct {
		pat, index   int
		from         VarRef
		tests        []Test
		distinct     []int
		filters      int
		victim, last bool
	}
	check := func(name string, j Join, seedFilters int, want ...step) {
		t.Helper()
		if len(j.Filters) != seedFilters || len(j.Steps) != len(want) {
			t.Fatalf("%s: %d seed filters and %d steps, want %d and %d", name, len(j.Filters), len(j.Steps), seedFilters, len(want))
		}
		for i, w := range want {
			s := j.Steps[i]
			if s.Pat.Pat != w.pat || s.Index != w.index || s.From != w.from || !slices.Equal(s.Tests, w.tests) ||
				!slices.Equal(s.Distinct, w.distinct) || len(s.Filters) != w.filters || s.Victim != w.victim || s.LastVictim != w.last {
				t.Errorf("%s step %d: %+v, want %+v", name, i, s, w)
			}
		}
	}
	// same-pool: (tag <i>) filters on the seed when that is <i>, and with
	// precedes once both are bound when it is <j>.
	check("same-pool/i", ml.Patterns[0].Seed, 1,
		step{pat: 1, index: 0, from: VarRef{CE: 0, Field: pp}, distinct: []int{0}, filters: 1, victim: true, last: true})
	check("same-pool/j", ml.Patterns[1].Seed, 0,
		step{pat: 0, index: 0, from: VarRef{CE: 1, Field: pp}, distinct: []int{1}, filters: 2, last: true})
	// across: the constant filter needs nothing bound.
	check("across/i", ml.Patterns[2].Seed, 1,
		step{pat: 1, index: 0, from: VarRef{CE: 0, Field: o}, victim: true, last: true})
	// chain: from <i>, <j> has nothing to be probed with until <k> is
	// bound, so <k> goes first; the order test on a is left for its step.
	gt := Test{Ref: VarRef{CE: 2, Field: a}, Op: OpGt, Other: VarRef{CE: 0, Field: a}}
	check("chain/i", ml.Patterns[4].Seed, 0,
		step{pat: 2, index: 0, from: VarRef{CE: 0, Field: pp}, tests: []Test{gt}, distinct: []int{0}, victim: true, last: true},
		step{pat: 1, index: 0, from: VarRef{CE: 2, Field: o}, last: true})
	check("chain/j", ml.Patterns[5].Seed, 0,
		step{pat: 2, index: 1, from: VarRef{CE: 1, Field: 0}, victim: true},
		step{pat: 0, index: 0, from: VarRef{CE: 2, Field: pp}, tests: []Test{gt}, distinct: []int{2}, victim: true, last: true})
	check("chain/k", ml.Patterns[6].Seed, 0,
		step{pat: 0, index: 0, from: VarRef{CE: 2, Field: pp}, tests: []Test{gt}, distinct: []int{2}, victim: true, last: true},
		step{pat: 1, index: 0, from: VarRef{CE: 2, Field: o}, last: true})
	testObjectJoinPlans(t)
}

// testObjectJoinPlans checks the plans PlanJoins makes of an object rule
// with a self-join over one template and a negated CE over it too: the
// positive CEs take slots 0 and 1 and the negated one slot 2; its absence
// check runs once both positives are bound, probing its index on group;
// only the step at CE 0 of the join seeded at CE 1 excludes the seed, and
// nothing is Distinct, Victim or LastVictim.
func testObjectJoinPlans(t *testing.T) {
	t.Helper()
	p, err := CompileSource(`
(literalize item id group rank)
(rule top-pair
  (item ^id <a> ^group <g>)
  (item ^id (<> <a>) ^group <g> ^rank <r>)
  - (item ^group <g> ^rank (> <r>))
-->
  (halt))`)
	if err != nil {
		t.Fatal(err)
	}
	pats, layouts := PlanJoins(p.Rules)
	if len(pats) != 3 || len(layouts) != 1 || layouts[0].NumPos != 6 || !slices.Equal(layouts[0].Patterns, pats) {
		t.Fatalf("%d patterns, %d layouts (%+v)", len(pats), len(layouts), layouts)
	}
	const id, group, rank = 0, 1, 2
	for i, pat := range pats {
		if pat.ID != i || pat.Rule != 0 || pat.Pat != i || pat.CE != p.Rules[0].CEs[i] || pat.Pos != 2*i || !slices.Equal(pat.Indexed, []int{group}) {
			t.Errorf("pattern %d: slot %d, positions from %d, indexed on %v", i, pat.Pat, pat.Pos, pat.Indexed)
		}
	}
	ne := Test{Ref: VarRef{CE: 1, Field: id}, Op: OpNe, Other: VarRef{CE: 0, Field: id}}
	gt := Test{Ref: VarRef{CE: 2, Field: rank}, Op: OpGt, Other: VarRef{CE: 1, Field: rank}}
	absent := Step{Pat: pats[2], Index: 0, From: VarRef{CE: 0, Field: group}, Tests: []Test{gt}}
	type step struct {
		pat     int
		from    VarRef
		tests   []Test
		notSeed bool
		absent  bool // the absence check runs after this step
	}
	check := func(name string, j Join, want ...step) {
		t.Helper()
		if len(j.Filters) != 0 || len(j.Absent) != 0 || len(j.Steps) != len(want) {
			t.Fatalf("%s: %d seed filters, %d seed checks and %d steps, want 0, 0 and %d", name, len(j.Filters), len(j.Absent), len(j.Steps), len(want))
		}
		for i, w := range want {
			s := j.Steps[i]
			if s.Pat != pats[w.pat] || s.Index != 0 || s.From != w.from || !slices.Equal(s.Tests, w.tests) || s.NotSeed != w.notSeed ||
				s.Distinct != nil || s.Victim || s.LastVictim || len(s.Filters) != 0 {
				t.Errorf("%s step %d: %+v, want %+v", name, i, s, w)
			}
			if n := len(s.Absent); w.absent != (n == 1) || n > 1 {
				t.Fatalf("%s step %d: %d absence checks", name, i, n)
			}
			if w.absent {
				if a := s.Absent[0]; a.Pat != absent.Pat || a.Index != absent.Index || a.From != absent.From || !slices.Equal(a.Tests, absent.Tests) {
					t.Errorf("%s step %d: absence check %+v, want %+v", name, i, a, absent)
				}
			}
		}
	}
	check("seed 0", pats[0].Seed, step{pat: 1, from: VarRef{CE: 0, Field: group}, tests: []Test{ne}, absent: true})
	check("seed 1", pats[1].Seed, step{pat: 0, from: VarRef{CE: 1, Field: group}, tests: []Test{ne}, notSeed: true, absent: true})
	check("seed 2", pats[2].Seed,
		step{pat: 0, from: VarRef{CE: 2, Field: group}},
		step{pat: 1, from: VarRef{CE: 0, Field: group}, tests: []Test{ne, gt}, absent: true})
}

// TestImageReifiesReadVariablesOnly: an image carries the variables some
// meta-rule reads — in a pattern's tests, across a join, in a test
// expression — and not the others; its recency tag only if `(tag …)` reads
// it, and its time-tag vector only if `precedes` orders two of its rule's
// instantiations.
func TestImageReifiesReadVariablesOnly(t *testing.T) {
	for _, tc := range []struct {
		metas string
		want  []string
	}{
		{`(metarule m [<i> (take ^k <k> ^a 1)] [<j> (take ^k <k> ^b <x>)] (test (< <x> 2)) --> (redact <j>))`,
			[]string{"a", "b", "k"}},
		{`(metarule m [<i> (take ^c <c>)] [<j> (take)] (test (< (tag <i>) <c>)) --> (redact <j>))`,
			[]string{"c", ".tag"}},
		{`(metarule m [<i> (take)] [<j> (take)] (test (precedes <i> <j>)) --> (redact <j>))`,
			[]string{".t0", ".t1"}},
		{`(metarule m [<i> (take)] [<j> (put)] (test (and (precedes <i> <j>) (> (tag <j>) 1))) --> (redact <j>))`,
			nil},
	} {
		p, err := CompileSource(`
(literalize item k a b c d)
(rule take (item ^k <k> ^a <a> ^b <b> ^c <c> ^d <d>) (item ^k <k>) --> (remove 1))
(rule put (item) --> (remove 1))
` + tc.metas)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Meta.Images[0].Tmpl.Attrs; !slices.Equal(got, tc.want) {
			t.Errorf("%s: image fields %v, want %v", tc.metas, got, tc.want)
		}
	}
}

// bundledMetaRules compiles a builtin program's source and returns its
// meta level and its meta-rules by name.
func bundledMetaRules(t testing.TB, name string) (*Program, map[string]*MetaRule) {
	t.Helper()
	src, err := os.ReadFile("../programs/src/" + name + ".par")
	if err != nil {
		t.Fatal(err)
	}
	p, err := CompileSource(string(src))
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]*MetaRule)
	for _, m := range p.MetaRules {
		byName[m.Name] = m
	}
	return p, byName
}

// orderOf returns the order compiled for m, nil when m stays a join-form
// meta-rule, checking that the two lists agree.
func orderOf(t *testing.T, p *Program, m *MetaRule) *Order {
	t.Helper()
	var found *Order
	for _, o := range p.Meta.Orders {
		if o.Meta == m.Index {
			found = o
		}
	}
	im := p.Meta.Images[m.Patterns[0].Rule.Index]
	if found != nil && (im.Orders[found.Rank] != found || found.Rule != m.Patterns[0].Rule) {
		t.Fatalf("%s: order %+v is not its rule's order %d", m.Name, found, found.Rank)
	}
	for _, pat := range p.Meta.Patterns {
		if pat.Rule == m.Index && found != nil {
			t.Fatalf("%s: an order, and a join plan too", m.Name)
		}
	}
	return found
}

// describeOrder renders an order by its rule's variable names: the group,
// then each key as name, "@time" for precedes, "-" before it when the
// redactor is the greater, then "strict" or "ties".
func describeOrder(o *Order) string {
	names := make(map[VarRef]string)
	for name, ref := range o.Rule.Bindings {
		names[ref] = name
	}
	var b strings.Builder
	b.WriteString("group")
	for _, ref := range o.Group {
		b.WriteString(" " + names[ref])
	}
	b.WriteString("; keys")
	for _, k := range o.Keys {
		b.WriteString(" ")
		if k.Desc {
			b.WriteString("-")
		}
		if k.Time {
			b.WriteString("@time")
		} else {
			b.WriteString(names[k.Ref])
		}
	}
	if o.Strict {
		b.WriteString("; strict")
	} else {
		b.WriteString("; ties")
	}
	return b.String()
}

// TestRecogniseBundledOrders: eight of the thirteen bundled meta-rules are
// dominance meta-rules and compile to orders with these groups, keys,
// directions and tails; the other five stay join-form.
func TestRecogniseBundledOrders(t *testing.T) {
	want := map[string]map[string]string{
		"alexsys": {
			"one-award-per-pool":  "group p; keys o @time; strict",
			"one-award-per-order": "group o; keys -a p; strict",
		},
		"manners": {
			"start-one":  "group; keys g @time; strict",
			"extend-one": "group; keys g2 @time; strict",
		},
		"circuit":    {"one-driver-per-wire": "group o; keys g; strict"},
		"closure":    {"dedup-step": "group a c; keys @time; strict", "base-beats-step": ""},
		"quickstart": {"one-count-per-cycle": "group; keys @time; strict"},
		"waltz": {
			"one-boundary-label": "group e; keys @time; strict",
			"crossbar-pair":      "", "spread-race-e1": "", "spread-race-e2": "", "spread-race-e3": "",
		},
	}
	orders, total := 0, 0
	for prog, rules := range want {
		p, byName := bundledMetaRules(t, prog)
		if len(byName) != len(rules) {
			t.Errorf("%s: %d meta-rules, want %d", prog, len(byName), len(rules))
		}
		for name, w := range rules {
			m := byName[name]
			if m == nil {
				t.Fatalf("%s: no meta-rule %s", prog, name)
			}
			total++
			o := orderOf(t, p, m)
			got := ""
			if o != nil {
				got = describeOrder(o)
				orders++
			}
			if got != w {
				t.Errorf("%s %s: recognised as %q, want %q", prog, name, got, w)
			}
		}
	}
	if orders != 8 || total != 13 {
		t.Errorf("%d orders among %d meta-rules, want 8 among 13", orders, total)
	}
}

const orderRules = `
(literalize item g a b)
(rule r (item ^g <g> ^a <a> ^b <b>) --> (remove 1))
(rule s (item ^g <g> ^a <a> ^b <b>) --> (remove 1))
`

// orderPair is two patterns over rule r that share ^g and bind ^a and ^b.
const orderPair = "[<i> (r ^g <g> ^a <x> ^b <u>)] [<j> (r ^g <g> ^a <y> ^b <v>)]"

// orderForms are meta-rules over orderRules with the order each compiles
// to, described as describeOrder does: the forms the recogniser accepts,
// written the ways a programmer might, and the near misses it must leave
// to the join, which compile to none.
var orderForms = []struct{ meta, want string }{
	{orderPair + " (test (< <x> <y>)) --> (redact <j>)", "group g; keys a; strict"},
	{orderPair + " (test (> <y> <x>)) --> (redact <j>)", "group g; keys a; strict"},
	{orderPair + " (test (< <x> <y>)) --> (redact <i>)", "group g; keys -a; strict"},
	{orderPair + " (test (<= <x> <y>)) --> (redact <j>)", "group g; keys a; ties"},
	{orderPair + " (test (>= <x> <y>)) --> (redact <j>)", "group g; keys -a; ties"},
	{orderPair + " --> (redact <j>)", "group g; keys; ties"},
	{orderPair + " (test (precedes <j> <i>)) --> (redact <j>)", "group g; keys -@time; strict"},
	{orderPair + " (test (or (> <x> <y>) (and (= <y> <x>) (<= <u> <v>)))) --> (redact <j>)", "group g; keys -a b; ties"},
	{orderPair + " (test (or (< <x> <y>) (and (= <x> <y>) (or (> <u> <v>) (and (= <u> <v>) (precedes <i> <j>)))))) --> (redact <j>)",
		"group g; keys a -b @time; strict"},
	{"[<i> (r ^a <x>)] [<j> (r ^a <y>)] (test (< <x> <y>)) --> (redact <j>)", "group; keys a; strict"},
	{"[<i> (r ^g <g> ^b <b>)] [<j> (r ^b <b> ^g <g>)] --> (redact <j>)", "group b g; keys; ties"},

	// Near misses.
	{orderPair + " (test (< <x> <y>)) --> (redact <i> <j>)", ""},
	{"[<i> (r ^g <g> ^a <x>)] [<j> (r ^g <g> ^a <y> ^b 1)] (test (< <x> <y>)) --> (redact <j>)", ""},
	{"[<i> (r ^g <g> ^a <x>)] [<j> (r ^b <g> ^a <y>)] (test (< <x> <y>)) --> (redact <j>)", ""},
	{orderPair + " (test (<> <x> <y>)) --> (redact <j>)", ""},
	{orderPair + " (test (< (tag <i>) (tag <j>))) --> (redact <j>)", ""},
	{orderPair + " (test (or (< <x> <y>) (and (= <u> <v>) (precedes <i> <j>)))) --> (redact <j>)", ""},
	{orderPair + " (test (or (<= <x> <y>) (and (= <x> <y>) (precedes <i> <j>)))) --> (redact <j>)", ""},
	{orderPair + " (test (< <x> <v>)) --> (redact <j>)", ""},
	{orderPair + " (test (< <x> <y>)) (test (< <u> <v>)) --> (redact <j>)", ""},
	{orderPair + " (test (= <x> <y>)) --> (redact <j>)", ""},
	{"[<i> (r ^g <g> ^a <x>)] [<j> (s ^g <g> ^a <y>)] (test (< <x> <y>)) --> (redact <j>)", ""},
	{"[<i> (r ^g <g> ^a <x>)] [<j> (r ^g <g> ^a (> <x>))] --> (redact <j>)", ""},
	{"[<i> (r ^g <g> ^a <x> ^b <x>)] [<j> (r ^g <g> ^a <y>)] (test (< <x> <y>)) --> (redact <j>)", ""},
	{"[<i> (r ^g <g> ^a <x>)] [<j> (r ^g <g> ^a <y>)] [<k> (r ^g <g>)] (test (< <x> <y>)) --> (redact <j>)", ""},
}

// TestRecogniseOrderForms checks the recogniser on orderForms.
func TestRecogniseOrderForms(t *testing.T) {
	for _, tc := range orderForms {
		p, err := CompileSource(orderRules + "(metarule m " + tc.meta + ")")
		if err != nil {
			t.Fatalf("%s: %v", tc.meta, err)
		}
		got := ""
		if o := orderOf(t, p, p.MetaRules[0]); o != nil {
			got = describeOrder(o)
		}
		if got != tc.want {
			t.Errorf("%s: recognised as %q, want %q", tc.meta, got, tc.want)
		}
	}
}
