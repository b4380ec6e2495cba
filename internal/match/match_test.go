package match

import (
	"math/rand"
	"testing"

	"parulel/internal/compile"
	"parulel/internal/wm"
)

func testRuleAndWMEs(t *testing.T) (*compile.Program, *wm.Memory) {
	t.Helper()
	prog, err := compile.CompileSource(`
(literalize a x)
(rule r1 (a ^x <v>) (a ^x (<> <v>)) --> (halt))
(rule r2 (a ^x <v>) --> (halt))
`)
	if err != nil {
		t.Fatal(err)
	}
	return prog, wm.NewMemory(prog.Schema)
}

func mkWME(t *testing.T, mem *wm.Memory, v int64) *wm.WME {
	t.Helper()
	w, err := mem.Insert("a", map[string]wm.Value{"x": wm.Int(v)})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestInstantiationKeyAndTag(t *testing.T) {
	prog, mem := testRuleAndWMEs(t)
	r1, _ := prog.RuleByName("r1")
	w1, w2 := mkWME(t, mem, 1), mkWME(t, mem, 2)
	in := NewInstantiation(r1, []*wm.WME{w1, w2})
	if in.KeyString() != "0:1:2" {
		t.Errorf("key string = %q", in.KeyString())
	}
	if in.Tag() != w2.Time {
		t.Errorf("tag = %d, want %d", in.Tag(), w2.Time)
	}
	rev := NewInstantiation(r1, []*wm.WME{w2, w1})
	if rev.Key() == in.Key() {
		t.Error("order of WMEs must distinguish keys")
	}
	dup := NewInstantiation(r1, []*wm.WME{w1, w2})
	if dup.Key() != in.Key() {
		t.Error("equal rule and WME vector must produce equal keys")
	}
	r2, _ := prog.RuleByName("r2")
	other := NewInstantiation(r2, []*wm.WME{w1, w2})
	if other.Key() == in.Key() {
		t.Error("distinct rules must distinguish keys")
	}
}

func TestInstantiationKeyDeepVectors(t *testing.T) {
	// Vectors longer than the inline tag prefix must still be
	// distinguished (via length and the hash over the full vector).
	prog, mem := testRuleAndWMEs(t)
	r1, _ := prog.RuleByName("r1")
	wmes := make([]*wm.WME, 0, 8)
	for i := int64(1); i <= 8; i++ {
		wmes = append(wmes, mkWME(t, mem, i))
	}
	seen := make(map[Key]string)
	// Same first keyTagsInline WMEs, different tails.
	for tail := 4; tail < 8; tail++ {
		vec := append(append([]*wm.WME(nil), wmes[:4]...), wmes[tail])
		in := NewInstantiation(r1, vec)
		if prev, dup := seen[in.Key()]; dup {
			t.Fatalf("key collision: %s and %s", prev, in.KeyString())
		}
		seen[in.Key()] = in.KeyString()
	}
	// A prefix must not collide with its extension.
	short := NewInstantiation(r1, wmes[:4])
	if _, dup := seen[short.Key()]; dup {
		t.Fatal("prefix vector collided with an extension")
	}
}

func TestInstantiationCompareTotalOrder(t *testing.T) {
	prog, mem := testRuleAndWMEs(t)
	r1, _ := prog.RuleByName("r1")
	r2, _ := prog.RuleByName("r2")
	w1, w2, w3 := mkWME(t, mem, 1), mkWME(t, mem, 2), mkWME(t, mem, 3)

	a := NewInstantiation(r1, []*wm.WME{w1, w2})
	b := NewInstantiation(r1, []*wm.WME{w1, w3})
	c := NewInstantiation(r2, []*wm.WME{w1})

	if a.Compare(b) >= 0 || b.Compare(a) <= 0 {
		t.Error("lexicographic time-vector order violated")
	}
	if a.Compare(c) >= 0 {
		t.Error("rule index must dominate the order")
	}
	if a.Compare(a) != 0 {
		t.Error("self-compare must be 0")
	}
}

func TestInstantiationBinding(t *testing.T) {
	prog, mem := testRuleAndWMEs(t)
	r1, _ := prog.RuleByName("r1")
	w1, w2 := mkWME(t, mem, 7), mkWME(t, mem, 9)
	in := NewInstantiation(r1, []*wm.WME{w1, w2})
	if got := in.Binding(compile.VarRef{CE: 1, Field: 0}); got != wm.Int(9) {
		t.Errorf("binding = %v", got)
	}
}

func TestSortInstantiationsDeterministic(t *testing.T) {
	prog, mem := testRuleAndWMEs(t)
	r2, _ := prog.RuleByName("r2")
	var ins []*Instantiation
	for i := 0; i < 50; i++ {
		ins = append(ins, NewInstantiation(r2, []*wm.WME{mkWME(t, mem, int64(i))}))
	}
	shuffled := append([]*Instantiation(nil), ins...)
	rand.New(rand.NewSource(42)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	SortInstantiations(shuffled)
	for i := range ins {
		if shuffled[i].Key() != ins[i].Key() {
			t.Fatalf("sort not deterministic at %d: %s vs %s", i, shuffled[i].KeyString(), ins[i].KeyString())
		}
	}
}

func TestChangeCollectorNetsOut(t *testing.T) {
	prog, mem := testRuleAndWMEs(t)
	r2, _ := prog.RuleByName("r2")
	a := NewInstantiation(r2, []*wm.WME{mkWME(t, mem, 1)})
	b := NewInstantiation(r2, []*wm.WME{mkWME(t, mem, 2)})
	c := NewInstantiation(r2, []*wm.WME{mkWME(t, mem, 3)})

	coll := NewChangeCollector()
	coll.Add(a) // add then remove: nets to nothing
	coll.Remove(a)
	coll.Add(b)    // plain add
	coll.Remove(c) // plain remove
	ch := coll.Take()
	if len(ch.Added) != 1 || ch.Added[0] != b {
		t.Errorf("added: %v", ch.Added)
	}
	if len(ch.Removed) != 1 || ch.Removed[0] != c {
		t.Errorf("removed: %v", ch.Removed)
	}
	// Take resets.
	ch = coll.Take()
	if len(ch.Added)+len(ch.Removed) != 0 {
		t.Error("collector not reset by Take")
	}
}

func TestEvalFiltersErrorMeansNoMatch(t *testing.T) {
	prog, err := compile.CompileSource(`
(literalize a x)
(rule r (a ^x <v>) (test (> (+ <v> 1) 0)) --> (halt))
`)
	if err != nil {
		t.Fatal(err)
	}
	mem := wm.NewMemory(prog.Schema)
	num, _ := mem.Insert("a", map[string]wm.Value{"x": wm.Int(5)})
	sym, _ := mem.Insert("a", map[string]wm.Value{"x": wm.Sym("oops")})
	ce := prog.Rules[0].CEs[0]
	if !EvalFilters(ce, &compile.VecEnv{Vec: []*wm.WME{num}}) {
		t.Error("numeric WME should pass the filter")
	}
	// (+ oops 1) errors at eval time; that counts as a failed test.
	if EvalFilters(ce, &compile.VecEnv{Vec: []*wm.WME{sym}}) {
		t.Error("eval error must mean no-match")
	}
}
