package treat_test

import (
	"testing"

	"parulel/internal/compile"
	"parulel/internal/match"
	"parulel/internal/match/matchtest"
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

func TestTreatSeededJoinNoDuplicates(t *testing.T) {
	// A WME matching two CEs of the same rule must not produce duplicate
	// instantiations when seeded at each CE.
	prog := compileOK(t, matchtest.Programs["self-join-same-template"])
	m := treat.New(prog.Rules)
	mem := wm.NewMemory(prog.Schema)
	a := insert(t, mem, "item", map[string]wm.Value{"id": wm.Int(1), "group": wm.Sym("g")})
	b := insert(t, mem, "item", map[string]wm.Value{"id": wm.Int(2), "group": wm.Sym("g")})
	m.Apply(wm.Delta{Added: []*wm.WME{a}})
	ch := m.Apply(wm.Delta{Added: []*wm.WME{b}})
	if len(ch.Added) != 2 {
		t.Fatalf("expected (a,b) and (b,a): %v", ch.Added)
	}
	if cs := m.ConflictSet(); len(cs) != 2 {
		t.Fatalf("conflict set: %v", cs)
	}
}

func TestTreatNegationEnablement(t *testing.T) {
	prog := compileOK(t, matchtest.Programs["negation"])
	m := treat.New(prog.Rules)
	mem := wm.NewMemory(prog.Schema)

	lock := insert(t, mem, "lock", map[string]wm.Value{"id": wm.Int(1)})
	m.Apply(wm.Delta{Added: []*wm.WME{lock}})
	task := insert(t, mem, "task", map[string]wm.Value{"id": wm.Int(1), "state": wm.Sym("ready")})
	ch := m.Apply(wm.Delta{Added: []*wm.WME{task}})
	if len(ch.Added) != 0 {
		t.Fatalf("locked task must not match: %v", ch.Added)
	}
	mem.Remove(lock.Time)
	ch = m.Apply(wm.Delta{Removed: []*wm.WME{lock}})
	if len(ch.Added) != 1 {
		t.Fatalf("unlock should enable instantiation: %+v", ch)
	}
	// Re-lock: violation removal path.
	lock2 := insert(t, mem, "lock", map[string]wm.Value{"id": wm.Int(1)})
	ch = m.Apply(wm.Delta{Added: []*wm.WME{lock2}})
	if len(ch.Removed) != 1 {
		t.Fatalf("re-lock should retract: %+v", ch)
	}
}

func TestTreatRemovalOfPositiveWME(t *testing.T) {
	prog := compileOK(t, matchtest.Programs["two-way-join"])
	m := treat.New(prog.Rules)
	mem := wm.NewMemory(prog.Schema)
	p := insert(t, mem, "pool", map[string]wm.Value{"id": wm.Int(1), "amount": wm.Int(75), "status": wm.Sym("free")})
	o := insert(t, mem, "order", map[string]wm.Value{"id": wm.Int(2), "lo": wm.Int(50), "hi": wm.Int(100), "filled": wm.Sym("no")})
	ch := m.Apply(wm.Delta{Added: []*wm.WME{p, o}})
	if len(ch.Added) != 1 {
		t.Fatalf("join expected: %+v", ch)
	}
	mem.Remove(o.Time)
	ch = m.Apply(wm.Delta{Removed: []*wm.WME{o}})
	if len(ch.Removed) != 1 {
		t.Fatalf("retraction expected: %+v", ch)
	}
	if ms := m.MemStats(); ms.ConflictSet != 0 {
		t.Fatalf("conflict set should be empty: %+v", ms)
	}
}

func TestTreatHoldsNoBetaTokens(t *testing.T) {
	prog := compileOK(t, matchtest.Programs["three-way-chain"])
	m := treat.New(prog.Rules)
	mem := wm.NewMemory(prog.Schema)
	for i := 0; i < 5; i++ {
		w := insert(t, mem, "node", map[string]wm.Value{"id": wm.Int(int64(i)), "next": wm.Int(int64(i + 1))})
		m.Apply(wm.Delta{Added: []*wm.WME{w}})
	}
	ms := m.MemStats()
	if ms.BetaTokens != 0 {
		t.Errorf("TREAT must hold no beta tokens, got %d", ms.BetaTokens)
	}
	if ms.ConflictSet != 3 {
		t.Errorf("conflict set = %d, want 3", ms.ConflictSet)
	}
}

func TestTreatConformance(t *testing.T) {
	matchtest.RunConformance(t, treat.New)
}

var _ match.Matcher = treat.New(nil)
