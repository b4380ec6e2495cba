package rete_test

import (
	"testing"
	"time"

	"parulel/internal/compile"
	"parulel/internal/match"
	"parulel/internal/match/matchtest"
	"parulel/internal/match/rete"
	"parulel/internal/match/treat"
	"parulel/internal/wm"
)

func compileOK(t *testing.T, src string) *compile.Program {
	t.Helper()
	p, err := compile.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func insert(t *testing.T, mem *wm.Memory, tmpl string, fields map[string]wm.Value) *wm.WME {
	t.Helper()
	w, err := mem.Insert(tmpl, fields)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestReteBasicJoin(t *testing.T) {
	prog := compileOK(t, `
(literalize pool  id amount status)
(literalize order id lo hi)
(rule propose
  (pool  ^id <p> ^amount <a> ^status free)
  (order ^id <o> ^lo <lo> ^hi <hi>)
  (test (and (>= <a> <lo>) (<= <a> <hi>)))
-->
  (halt))
`)
	n := rete.New(prog.Rules)
	mem := wm.NewMemory(prog.Schema)

	p1 := insert(t, mem, "pool", map[string]wm.Value{"id": wm.Int(1), "amount": wm.Int(100), "status": wm.Sym("free")})
	ch := n.Apply(wm.Delta{Added: []*wm.WME{p1}})
	if len(ch.Added) != 0 {
		t.Fatalf("no instantiation expected yet: %v", ch.Added)
	}

	o1 := insert(t, mem, "order", map[string]wm.Value{"id": wm.Int(9), "lo": wm.Int(50), "hi": wm.Int(150)})
	ch = n.Apply(wm.Delta{Added: []*wm.WME{o1}})
	if len(ch.Added) != 1 {
		t.Fatalf("expected 1 instantiation, got %d", len(ch.Added))
	}
	in := ch.Added[0]
	if in.Rule.Name != "propose" || in.WMEs[0] != p1 || in.WMEs[1] != o1 {
		t.Fatalf("wrong instantiation: %v", in)
	}

	// An order out of range must not match.
	o2 := insert(t, mem, "order", map[string]wm.Value{"id": wm.Int(10), "lo": wm.Int(150), "hi": wm.Int(200)})
	ch = n.Apply(wm.Delta{Added: []*wm.WME{o2}})
	if len(ch.Added) != 0 {
		t.Fatalf("filter should reject out-of-range order: %v", ch.Added)
	}

	// Removing the pool retracts the instantiation.
	mem.Remove(p1.Time)
	ch = n.Apply(wm.Delta{Removed: []*wm.WME{p1}})
	if len(ch.Removed) != 1 || ch.Removed[0].Key() != in.Key() {
		t.Fatalf("expected retraction of %s, got %v", in.KeyString(), ch.Removed)
	}
	if cs := n.ConflictSet(); len(cs) != 0 {
		t.Fatalf("conflict set should be empty: %v", cs)
	}
}

func TestReteNegationLifecycle(t *testing.T) {
	prog := compileOK(t, `
(literalize task id state)
(literalize lock id)
(rule runnable
  (task ^id <t> ^state ready)
  - (lock ^id <t>)
-->
  (halt))
`)
	n := rete.New(prog.Rules)
	mem := wm.NewMemory(prog.Schema)

	task := insert(t, mem, "task", map[string]wm.Value{"id": wm.Int(1), "state": wm.Sym("ready")})
	ch := n.Apply(wm.Delta{Added: []*wm.WME{task}})
	if len(ch.Added) != 1 {
		t.Fatalf("unlocked task should match: %+v", ch)
	}

	lock := insert(t, mem, "lock", map[string]wm.Value{"id": wm.Int(1)})
	ch = n.Apply(wm.Delta{Added: []*wm.WME{lock}})
	if len(ch.Removed) != 1 {
		t.Fatalf("adding lock should retract: %+v", ch)
	}
	if cs := n.ConflictSet(); len(cs) != 0 {
		t.Fatalf("conflict set should be empty: %v", cs)
	}

	// A lock for a different task must not block.
	lock2 := insert(t, mem, "lock", map[string]wm.Value{"id": wm.Int(2)})
	ch = n.Apply(wm.Delta{Added: []*wm.WME{lock2}})
	if len(ch.Added)+len(ch.Removed) != 0 {
		t.Fatalf("unrelated lock changed conflict set: %+v", ch)
	}

	mem.Remove(lock.Time)
	ch = n.Apply(wm.Delta{Removed: []*wm.WME{lock}})
	if len(ch.Added) != 1 {
		t.Fatalf("removing lock should re-derive: %+v", ch)
	}
}

func TestReteNegationBeforePositive(t *testing.T) {
	prog := compileOK(t, `
(literalize guard on)
(literalize job id)
(rule unguarded
  - (guard ^on yes)
  (job ^id <j>)
-->
  (halt))
`)
	n := rete.New(prog.Rules)
	mem := wm.NewMemory(prog.Schema)

	job := insert(t, mem, "job", map[string]wm.Value{"id": wm.Int(1)})
	ch := n.Apply(wm.Delta{Added: []*wm.WME{job}})
	if len(ch.Added) != 1 {
		t.Fatalf("job with no guard should match: %+v", ch)
	}
	g := insert(t, mem, "guard", map[string]wm.Value{"on": wm.Sym("yes")})
	ch = n.Apply(wm.Delta{Added: []*wm.WME{g}})
	if len(ch.Removed) != 1 {
		t.Fatalf("guard should retract: %+v", ch)
	}
	job2 := insert(t, mem, "job", map[string]wm.Value{"id": wm.Int(2)})
	ch = n.Apply(wm.Delta{Added: []*wm.WME{job2}})
	if len(ch.Added) != 0 {
		t.Fatalf("guarded job should not match: %+v", ch)
	}
	mem.Remove(g.Time)
	ch = n.Apply(wm.Delta{Removed: []*wm.WME{g}})
	if len(ch.Added) != 2 {
		t.Fatalf("unguarding should re-derive both jobs: %+v", ch)
	}
}

func TestReteSelfJoinSingleDelta(t *testing.T) {
	// One WME matching two CEs of the same rule, added in one delta with
	// others: exercises the duplicate-propagation hazard of shared alpha
	// memories.
	prog := compileOK(t, `
(literalize item id group)
(rule pair
  (item ^id <a> ^group <g>)
  (item ^id (<> <a>) ^group <g>)
-->
  (halt))
`)
	n := rete.New(prog.Rules)
	mem := wm.NewMemory(prog.Schema)
	a := insert(t, mem, "item", map[string]wm.Value{"id": wm.Int(1), "group": wm.Sym("g")})
	b := insert(t, mem, "item", map[string]wm.Value{"id": wm.Int(2), "group": wm.Sym("g")})
	ch := n.Apply(wm.Delta{Added: []*wm.WME{a, b}})
	// (a,b) and (b,a) both match; the same item in both positions does not.
	if len(ch.Added) != 2 {
		t.Fatalf("expected 2 instantiations, got %d: %v", len(ch.Added), ch.Added)
	}
	seen := map[match.Key]bool{}
	for _, in := range ch.Added {
		if seen[in.Key()] {
			t.Fatalf("duplicate instantiation %s", in.KeyString())
		}
		seen[in.Key()] = true
	}
}

func TestReteModifySequence(t *testing.T) {
	// modify = remove + add in a single delta, removals first.
	prog := compileOK(t, `
(literalize counter n)
(rule positive (counter ^n (> 0)) --> (halt))
`)
	n := rete.New(prog.Rules)
	mem := wm.NewMemory(prog.Schema)
	c0 := insert(t, mem, "counter", map[string]wm.Value{"n": wm.Int(0)})
	ch := n.Apply(wm.Delta{Added: []*wm.WME{c0}})
	if len(ch.Added) != 0 {
		t.Fatal("zero counter should not match")
	}
	mem.Remove(c0.Time)
	c1 := insert(t, mem, "counter", map[string]wm.Value{"n": wm.Int(5)})
	ch = n.Apply(wm.Delta{Removed: []*wm.WME{c0}, Added: []*wm.WME{c1}})
	if len(ch.Added) != 1 || len(ch.Removed) != 0 {
		t.Fatalf("modify to 5: %+v", ch)
	}
	mem.Remove(c1.Time)
	c2 := insert(t, mem, "counter", map[string]wm.Value{"n": wm.Int(7)})
	ch = n.Apply(wm.Delta{Removed: []*wm.WME{c1}, Added: []*wm.WME{c2}})
	if len(ch.Added) != 1 || len(ch.Removed) != 1 {
		t.Fatalf("modify 5→7 should swap instantiations: %+v", ch)
	}
}

func TestReteMemStats(t *testing.T) {
	prog := compileOK(t, matchtest.Programs["three-way-chain"])
	n := rete.New(prog.Rules)
	mem := wm.NewMemory(prog.Schema)
	for i := 0; i < 4; i++ {
		w := insert(t, mem, "node", map[string]wm.Value{"id": wm.Int(int64(i)), "next": wm.Int(int64(i + 1))})
		n.Apply(wm.Delta{Added: []*wm.WME{w}})
	}
	ms := n.MemStats()
	if ms.AlphaItems == 0 {
		t.Error("alpha items should be > 0")
	}
	if ms.BetaTokens == 0 {
		t.Error("RETE should hold beta tokens")
	}
	// chain of 4 nodes: instantiations (0,1,2),(1,2,3)
	if ms.ConflictSet != 2 {
		t.Errorf("conflict set = %d, want 2", ms.ConflictSet)
	}
}

// TestReteProfileCharging checks the split of match time over rules: the
// time goes to the rules that worked, in proportion; a rule on two of a
// WME's alpha memories, or twice on one, is charged once; the charges
// never add up to more than the time that passed.
func TestReteProfileCharging(t *testing.T) {
	prog := compileOK(t, `
(literalize item id group)
(literalize other id)
(rule pairs
  (item ^id <a> ^group <g>)
  (item ^id (<> <a>) ^group <g>)
-->
  (halt))
(rule both
  (item ^id <a> ^group g0)
  (item ^id <a>)
-->
  (halt))
(rule idle
  (other ^id <a>)
  (item ^id <a>)
-->
  (halt))
`)
	n := rete.NewWithOptions(prog.Rules, rete.Options{Profile: true})
	mem := wm.NewMemory(prog.Schema)
	var items []*wm.WME
	for i := 0; i < 300; i++ {
		items = append(items, insert(t, mem, "item", map[string]wm.Value{"id": wm.Int(int64(i)), "group": wm.Sym("g0")}))
	}
	start := time.Now()
	n.Apply(wm.Delta{Added: items})
	n.Apply(wm.Delta{Removed: items})
	wall := time.Since(start).Nanoseconds()

	prof := map[string]match.RuleProfile{}
	var charged int64
	for _, p := range n.(match.RuleProfiler).RuleProfiles() {
		prof[p.Rule] = p
		charged += p.MatchNS
	}
	// pairs builds ~45k tokens, both 600, idle none: its activations find
	// an empty memory.
	if prof["idle"].Tokens != 0 || prof["idle"].MatchNS >= prof["both"].MatchNS {
		t.Errorf("a rule that built nothing was charged like one that did: idle %+v, both %+v", prof["idle"], prof["both"])
	}
	if prof["both"].MatchNS <= 0 || prof["pairs"].MatchNS < 10*prof["both"].MatchNS {
		t.Errorf("charges do not follow the work: pairs %+v, both %+v", prof["pairs"], prof["both"])
	}
	if charged > wall || charged < wall/4 {
		t.Errorf("charged %d ns of %d ns spent in Apply", charged, wall)
	}
}

func TestReteConformance(t *testing.T) {
	matchtest.RunConformance(t, rete.New)
}

func TestReteConformanceNoJoinIndex(t *testing.T) {
	matchtest.RunConformance(t, rete.Factory(rete.Options{DisableJoinIndex: true}))
}

func TestReteVsTreatDifferential(t *testing.T) {
	matchtest.RunDifferential(t, rete.New, treat.New)
}

func TestReteIndexedVsUnindexedDifferential(t *testing.T) {
	matchtest.RunDifferential(t, rete.New, rete.Factory(rete.Options{DisableJoinIndex: true}))
}

var _ match.Matcher = rete.New(nil)
