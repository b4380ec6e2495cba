package reorder

import (
	"sort"
	"strings"
	"testing"

	"parulel/internal/compile"
	"parulel/internal/core"
	"parulel/internal/lang"
	"parulel/internal/match"
	"parulel/internal/match/rete"
	"parulel/internal/programs"
	"parulel/internal/wm"
	"parulel/internal/workload"
)

func parseOK(t *testing.T, src string) *lang.Program {
	t.Helper()
	p, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

const badlyOrdered = `
(literalize item   g v)
(literalize anchor id g h)
(rule cross
  (item ^g <x>)
  (item ^g <y>)
  (anchor ^id 7 ^g <x> ^h <y>)
  (test (<> <x> <y>))
-->
  (make item ^g 0))
`

func TestReorderMovesConstrainedElementFirst(t *testing.T) {
	ast := parseOK(t, badlyOrdered)
	re := Program(ast)
	r := re.Rules[0]
	if r.LHS[0].Pattern == nil || r.LHS[0].Pattern.Type != "anchor" {
		t.Fatalf("anchor should come first, got %s", Describe(r))
	}
	// The reordered program must still compile.
	if _, err := compile.Compile(re); err != nil {
		t.Fatalf("reordered program does not compile: %v\n%s", err, lang.Print(re))
	}
	// Original AST untouched.
	if ast.Rules[0].LHS[0].Pattern.Type != "item" {
		t.Error("original rule mutated")
	}
}

func TestReorderIdentityWhenAlreadyOptimal(t *testing.T) {
	ast := parseOK(t, `
(literalize a x y)
(rule r (a ^x 1 ^y <v>) (a ^x <v>) --> (halt))
`)
	if got := Rule(ast.Rules[0]); got != ast.Rules[0] {
		t.Error("already-optimal rule should be returned unchanged")
	}
}

// conflictSetSignature canonicalizes a conflict set so reordered and
// original rules compare equal: per instantiation, the rule name plus the
// SORTED WME time tags (vector order changes under reordering).
func conflictSetSignature(ins []*match.Instantiation) []string {
	out := make([]string, 0, len(ins))
	for _, in := range ins {
		tags := make([]int, len(in.WMEs))
		for i, w := range in.WMEs {
			tags[i] = int(w.Time)
		}
		sort.Ints(tags)
		sig := in.Rule.Name
		for _, tg := range tags {
			sig += ":" + string(rune('0'+tg%10)) // cheap but collision-prone; use full int
		}
		out = append(out, sigOf(in))
	}
	sort.Strings(out)
	return out
}

func sigOf(in *match.Instantiation) string {
	tags := make([]int, len(in.WMEs))
	for i, w := range in.WMEs {
		tags[i] = int(w.Time)
	}
	sort.Ints(tags)
	var b strings.Builder
	b.WriteString(in.Rule.Name)
	for _, tg := range tags {
		b.WriteString(":")
		b.WriteString(intToString(tg))
	}
	return b.String()
}

func intToString(n int) string {
	if n == 0 {
		return "0"
	}
	var digits []byte
	for n > 0 {
		digits = append([]byte{byte('0' + n%10)}, digits...)
		n /= 10
	}
	return string(digits)
}

func TestReorderPreservesMatches(t *testing.T) {
	ast := parseOK(t, badlyOrdered)
	orig, err := compile.Compile(parseOK(t, badlyOrdered))
	if err != nil {
		t.Fatal(err)
	}
	re, err := compile.Compile(Program(ast))
	if err != nil {
		t.Fatal(err)
	}
	m1, m2 := rete.New(orig.Rules), rete.New(re.Rules)
	mem1, mem2 := wm.NewMemory(orig.Schema), wm.NewMemory(re.Schema)
	add := func(tmpl string, fields map[string]wm.Value) {
		w1, err := mem1.Insert(tmpl, fields)
		if err != nil {
			t.Fatal(err)
		}
		w2, err := mem2.Insert(tmpl, fields)
		if err != nil {
			t.Fatal(err)
		}
		m1.Apply(wm.Delta{Added: []*wm.WME{w1}})
		m2.Apply(wm.Delta{Added: []*wm.WME{w2}})
	}
	for g := int64(0); g < 6; g++ {
		add("item", map[string]wm.Value{"g": wm.Int(g % 3), "v": wm.Int(g)})
	}
	add("anchor", map[string]wm.Value{"id": wm.Int(7), "g": wm.Int(1), "h": wm.Int(2)})
	add("anchor", map[string]wm.Value{"id": wm.Int(9), "g": wm.Int(1), "h": wm.Int(2)}) // wrong id: no match

	s1 := conflictSetSignature(m1.ConflictSet())
	s2 := conflictSetSignature(m2.ConflictSet())
	if len(s1) == 0 {
		t.Fatal("test workload produced no matches")
	}
	if len(s1) != len(s2) {
		t.Fatalf("match counts differ: %d vs %d", len(s1), len(s2))
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Errorf("match %d differs: %s vs %s", i, s1[i], s2[i])
		}
	}
}

func TestReorderRemapsDesignators(t *testing.T) {
	ast := parseOK(t, `
(literalize item   g)
(literalize anchor id g)
(rule r
  (item ^g <x>)
  (anchor ^id 7 ^g <x>)
-->
  (remove 1)
  (modify 2 ^id 8))
`)
	re := Program(ast)
	r := re.Rules[0]
	if r.LHS[0].Pattern.Type != "anchor" {
		t.Fatalf("expected anchor first: %s", Describe(r))
	}
	rm := r.RHS[0].(*lang.RemoveAction)
	if rm.Targets[0].Index != 2 { // item moved to position 2
		t.Errorf("remove designator = %d, want 2", rm.Targets[0].Index)
	}
	mod := r.RHS[1].(*lang.ModifyAction)
	if mod.Target.Index != 1 { // anchor moved to position 1
		t.Errorf("modify designator = %d, want 1", mod.Target.Index)
	}
	if _, err := compile.Compile(re); err != nil {
		t.Fatalf("remapped program does not compile: %v", err)
	}
	// End-to-end behaviour identical.
	run := func(p *lang.Program) string {
		cp, err := compile.Compile(p)
		if err != nil {
			t.Fatal(err)
		}
		e := core.New(cp, core.Options{MaxCycles: 10})
		for _, f := range []map[string]wm.Value{
			{"g": wm.Int(1)},
		} {
			if _, err := e.Insert("item", f); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := e.Insert("anchor", map[string]wm.Value{"id": wm.Int(7), "g": wm.Int(1)}); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		out := ""
		for _, w := range e.Memory().Snapshot() {
			s := w.String()
			out += s[strings.Index(s, "("):] + "\n"
		}
		return out
	}
	if a, b := run(parseOK(t, `
(literalize item   g)
(literalize anchor id g)
(rule r
  (item ^g <x>)
  (anchor ^id 7 ^g <x>)
-->
  (remove 1)
  (modify 2 ^id 8))
`)), run(re); a != b {
		t.Errorf("behaviour changed:\noriginal:\n%s\nreordered:\n%s", a, b)
	}
}

func TestReorderGuardsStayAfterBinders(t *testing.T) {
	ast := parseOK(t, `
(literalize a x)
(literalize b x)
(rule r
  (a ^x <v>)
  - (b ^x <v>)
  (test (> <v> 0))
  (b ^x (<> <v>))
-->
  (halt))
`)
	re := Program(ast)
	if _, err := compile.Compile(re); err != nil {
		t.Fatalf("reordered guard program does not compile: %v\n%s", err, lang.Print(re))
	}
}

func TestReorderBuiltinProgramsStillWork(t *testing.T) {
	// Reorder waltz and closure and verify the domain outcomes survive.
	for _, name := range []string{programs.Waltz, programs.Closure} {
		ast, err := programs.AST(name)
		if err != nil {
			t.Fatal(err)
		}
		cp, err := compile.Compile(Program(ast))
		if err != nil {
			t.Fatalf("%s reordered does not compile: %v", name, err)
		}
		e := core.New(cp, core.Options{MaxCycles: 1000})
		switch name {
		case programs.Waltz:
			if err := workload.WaltzScene(e, 3); err != nil {
				t.Fatal(err)
			}
			if _, err := e.Run(); err != nil {
				t.Fatal(err)
			}
			if n := e.Memory().CountOf("label"); n != 27 {
				t.Errorf("waltz reordered: labels = %d, want 27", n)
			}
			if n := e.Memory().CountOf("jdone"); n != 21 {
				t.Errorf("waltz reordered: jdone = %d, want 21", n)
			}
		case programs.Closure:
			if err := workload.Chain(e, 8); err != nil {
				t.Fatal(err)
			}
			if _, err := e.Run(); err != nil {
				t.Fatal(err)
			}
			if n := e.Memory().CountOf("path"); n != 28 { // 8-chain: 7+6+…+1
				t.Errorf("closure reordered: paths = %d, want 28", n)
			}
		}
	}
}

// badJoinOrder is EXPERIMENTS.md E10's program: the unselective item×item
// cross product joins before the highly selective anchor.
const badJoinOrder = `
(literalize item   g v)
(literalize anchor id g h)
(literalize hit    x y)
(rule cross
  (item ^g <x>)
  (item ^g <y>)
  (anchor ^id 7 ^g <x> ^h <y>)
-->
  (make hit ^x <x> ^y <y>))
`

// BenchmarkReorder is E10: the rule above matched in source order, which
// builds the cross product in the beta network, and after Program has
// hoisted the constant-constrained anchor to the front.
func BenchmarkReorder(b *testing.B) {
	const items = 400
	for _, variant := range []struct {
		name    string
		reorder bool
	}{{"source-order", false}, {"reordered", true}} {
		ast, err := lang.Parse(badJoinOrder)
		if err != nil {
			b.Fatal(err)
		}
		if variant.reorder {
			ast = Program(ast)
		}
		prog, err := compile.Compile(ast)
		if err != nil {
			b.Fatal(err)
		}
		itemT, anchorT := prog.Schema.MustLookup("item"), prog.Schema.MustLookup("anchor")
		b.Run(variant.name, func(b *testing.B) {
			var beta int
			for i := 0; i < b.N; i++ {
				m := rete.New(prog.Rules)
				mem := wm.NewMemory(prog.Schema)
				for k := 0; k < items; k++ {
					w := mem.InsertFields(itemT, []wm.Value{wm.Int(int64(k % 3)), wm.Int(int64(k))})
					m.Apply(wm.Delta{Added: []*wm.WME{w}})
				}
				w := mem.InsertFields(anchorT, []wm.Value{wm.Int(7), wm.Int(1), wm.Int(2)})
				m.Apply(wm.Delta{Added: []*wm.WME{w}})
				beta = m.MemStats().BetaTokens
			}
			b.ReportMetric(float64(beta), "beta-tokens")
		})
	}
}
