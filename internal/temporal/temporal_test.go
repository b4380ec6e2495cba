package temporal

import (
	"encoding/json"
	"testing"

	"parulel/internal/compile"
	"parulel/internal/core"
	"parulel/internal/wm"
)

func newEngine(t *testing.T, src string) (*compile.Program, *core.Engine, *Manager) {
	t.Helper()
	prog, err := compile.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	eng := core.New(prog, core.Options{MaxCycles: 1 << 16})
	return prog, eng, New(prog, eng)
}

func insert(t *testing.T, e *core.Engine, tmpl string, fields map[string]wm.Value) *wm.WME {
	t.Helper()
	w, err := e.Insert(tmpl, fields)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

const ttlSrc = `
(literalize ev k)
(literalize keep k)
(ttl ev 2)
`

// TestTTLExpiry: facts of a TTL'd template are absorbed at the next tick
// and retracted exactly TTL ticks later; untracked templates are never
// touched.
func TestTTLExpiry(t *testing.T) {
	_, eng, m := newEngine(t, ttlSrc)
	insert(t, eng, "ev", map[string]wm.Value{"k": wm.Sym("a")})
	insert(t, eng, "ev", map[string]wm.Value{"k": wm.Sym("b")})
	insert(t, eng, "keep", map[string]wm.Value{"k": wm.Sym("c")})

	if res := m.Tick(); res.Now != 1 || res.Expired != 0 {
		t.Fatalf("tick 1: %+v", res)
	}
	if m.Tracked() != 2 {
		t.Fatalf("tracked %d after absorption, want 2", m.Tracked())
	}
	if res := m.Tick(); res.Expired != 0 {
		t.Fatalf("tick 2 expired %d, want 0 (ttl 2: due at tick 3)", res.Expired)
	}
	res := m.Tick()
	if res.Now != 3 || res.Expired != 2 {
		t.Fatalf("tick 3: %+v, want Now 3 Expired 2", res)
	}
	if got := len(eng.Memory().OfTemplate("ev")); got != 0 {
		t.Fatalf("%d ev facts survive expiry", got)
	}
	if got := len(eng.Memory().OfTemplate("keep")); got != 1 {
		t.Fatalf("keep fact count %d, want 1", got)
	}
	if m.Tracked() != 0 {
		t.Fatalf("tracked %d after expiry, want 0", m.Tracked())
	}
}

// TestSetTTLOverride: a per-fact override beats the template default and
// attaches templates with no temporal declaration.
func TestSetTTLOverride(t *testing.T) {
	_, eng, m := newEngine(t, ttlSrc)
	short := insert(t, eng, "ev", map[string]wm.Value{"k": wm.Sym("short")})
	m.SetTTL(short, 1)
	insert(t, eng, "ev", map[string]wm.Value{"k": wm.Sym("deflt")})
	adopted := insert(t, eng, "keep", map[string]wm.Value{"k": wm.Sym("adopted")})
	m.SetTTL(adopted, 3)

	m.Tick() // absorb: short expires at 2, deflt at 3, adopted at 4
	if res := m.Tick(); res.Expired != 1 {
		t.Fatalf("tick 2 expired %d, want 1 (override)", res.Expired)
	}
	if res := m.Tick(); res.Expired != 1 {
		t.Fatalf("tick 3 expired %d, want 1 (template default)", res.Expired)
	}
	if res := m.Tick(); res.Expired != 1 {
		t.Fatalf("tick 4 expired %d, want 1 (adopted template)", res.Expired)
	}
	if eng.Memory().Len() != 0 {
		t.Fatalf("%d facts survive", eng.Memory().Len())
	}
}

const winTicksSrc = `
(literalize ev k v)
(window win ev ^key k ^ticks 3 ^val v)
`

// winFacts indexes the live aggregate WMEs of a window by key symbol.
func winFacts(t *testing.T, eng *core.Engine, name string) map[string]*wm.WME {
	t.Helper()
	out := map[string]*wm.WME{}
	for _, w := range eng.Memory().OfTemplate(name) {
		out[w.Fields[0].S] = w
	}
	return out
}

// TestWindowTicks: a ticks window aggregates count/sum/min/max per key
// over the last N ticks, drops facts that age out of the horizon, leaves
// unchanged keys' WMEs untouched, and retracts vanished keys.
func TestWindowTicks(t *testing.T) {
	_, eng, m := newEngine(t, winTicksSrc)
	insert(t, eng, "ev", map[string]wm.Value{"k": wm.Sym("a"), "v": wm.Int(5)})
	m.Tick() // born 1
	wins := winFacts(t, eng, "win")
	a := wins["a"]
	if a == nil || a.Fields[1] != wm.Int(1) || a.Fields[2] != wm.Int(5) || a.Fields[3] != wm.Int(5) || a.Fields[4] != wm.Int(5) {
		t.Fatalf("win a after tick 1: %v", a)
	}

	insert(t, eng, "ev", map[string]wm.Value{"k": wm.Sym("a"), "v": wm.Int(7)})
	insert(t, eng, "ev", map[string]wm.Value{"k": wm.Sym("b"), "v": wm.Int(2)})
	m.Tick() // born 2
	wins = winFacts(t, eng, "win")
	a, b := wins["a"], wins["b"]
	if a == nil || a.Fields[1] != wm.Int(2) || a.Fields[2] != wm.Int(12) || a.Fields[3] != wm.Int(5) || a.Fields[4] != wm.Int(7) {
		t.Fatalf("win a after tick 2: %v", a)
	}
	if b == nil || b.Fields[1] != wm.Int(1) || b.Fields[2] != wm.Int(2) {
		t.Fatalf("win b after tick 2: %v", b)
	}

	// Tick 3: everything still inside the 3-tick horizon — the aggregate
	// WMEs must not churn (same time tags).
	if res := m.Tick(); res.AggChanged != 0 {
		t.Fatalf("tick 3 changed %d aggregates, want 0", res.AggChanged)
	}
	wins = winFacts(t, eng, "win")
	if wins["a"].Time != a.Time || wins["b"].Time != b.Time {
		t.Fatal("unchanged window aggregates were reinserted")
	}

	// Tick 4: the born-1 fact (a,5) ages out → a shrinks to the born-2
	// fact. Tick 5: born-2 facts age out → both keys vanish.
	m.Tick()
	wins = winFacts(t, eng, "win")
	a = wins["a"]
	if a == nil || a.Fields[1] != wm.Int(1) || a.Fields[2] != wm.Int(7) || a.Fields[3] != wm.Int(7) {
		t.Fatalf("win a after tick 4: %v", a)
	}
	m.Tick()
	if got := len(eng.Memory().OfTemplate("win")); got != 0 {
		t.Fatalf("%d window aggregates survive an empty horizon", got)
	}
}

const winLastSrc = `
(literalize ev k v)
(window win ev ^key k ^last 2 ^val v)
`

// TestWindowLastK: a last-K window keeps each key's trailing K facts
// regardless of age.
func TestWindowLastK(t *testing.T) {
	_, eng, m := newEngine(t, winLastSrc)
	for i, v := range []int64{10, 20, 30} {
		insert(t, eng, "ev", map[string]wm.Value{"k": wm.Sym("a"), "v": wm.Int(v)})
		m.Tick()
		wins := winFacts(t, eng, "win")
		a := wins["a"]
		if a == nil {
			t.Fatalf("tick %d: no aggregate", i+1)
		}
		wantCount := int64(i + 1)
		if wantCount > 2 {
			wantCount = 2
		}
		if a.Fields[1] != wm.Int(wantCount) {
			t.Fatalf("tick %d: count %v, want %d", i+1, a.Fields[1], wantCount)
		}
	}
	// After 10,20,30 the trailing two are 20,30: sum 50, min 20, max 30.
	a := winFacts(t, eng, "win")["a"]
	if a.Fields[2] != wm.Int(50) || a.Fields[3] != wm.Int(20) || a.Fields[4] != wm.Int(30) {
		t.Fatalf("last-2 aggregate: %v", a)
	}
	// Old facts never age out of a last-K window on their own.
	for i := 0; i < 5; i++ {
		m.Tick()
	}
	if got := winFacts(t, eng, "win")["a"]; got == nil || got.Fields[1] != wm.Int(2) {
		t.Fatalf("last-K window decayed with time: %v", got)
	}
}

const stateSrc = `
(literalize ev k v)
(literalize keep k)
(ttl ev 50)
(window win ev ^key k ^ticks 100 ^val v)
`

// TestStateRoundTrip: the exported clock state is deterministic, and a
// fresh manager restored from it is indistinguishable — same serialized
// state, and its next tick re-derives the same aggregates without churn
// (proving the aggregate-tag mirror was rebuilt from working memory).
func TestStateRoundTrip(t *testing.T) {
	prog, eng, m := newEngine(t, stateSrc)
	insert(t, eng, "ev", map[string]wm.Value{"k": wm.Sym("a"), "v": wm.Int(3)})
	insert(t, eng, "ev", map[string]wm.Value{"k": wm.Sym("b"), "v": wm.Int(4)})
	m.Tick()
	insert(t, eng, "ev", map[string]wm.Value{"k": wm.Sym("a"), "v": wm.Int(9)})
	m.Tick()
	pending := insert(t, eng, "keep", map[string]wm.Value{"k": wm.Sym("p")})
	m.SetTTL(pending, 7) // unabsorbed override must survive the round trip

	st := m.State()
	j1, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	j2, _ := json.Marshal(m.State())
	if string(j1) != string(j2) {
		t.Fatalf("state serialization not deterministic:\n%s\n%s", j1, j2)
	}

	var decoded State
	if err := json.Unmarshal(j1, &decoded); err != nil {
		t.Fatal(err)
	}
	m2 := New(prog, eng)
	if err := m2.RestoreState(&decoded); err != nil {
		t.Fatal(err)
	}
	if m2.Now() != m.Now() || m2.Tracked() != m.Tracked() {
		t.Fatalf("restored clock: now %d tracked %d, want now %d tracked %d",
			m2.Now(), m2.Tracked(), m.Now(), m.Tracked())
	}
	j3, _ := json.Marshal(m2.State())
	if string(j3) != string(j1) {
		t.Fatalf("restored state differs:\n got %s\nwant %s", j3, j1)
	}

	// The restored manager's aggregate mirror must recognize the live
	// aggregate WMEs: a tick that changes nothing within the horizon may
	// absorb the pending fact but must not reinsert unchanged aggregates.
	before := winFacts(t, eng, "win")
	res := m2.Tick()
	if res.AggChanged != 0 {
		t.Fatalf("post-restore tick changed %d aggregates, want 0", res.AggChanged)
	}
	after := winFacts(t, eng, "win")
	for k, w := range before {
		if after[k] == nil || after[k].Time != w.Time {
			t.Fatalf("aggregate %q churned after restore", k)
		}
	}
	if m2.Tracked() != 4 {
		t.Fatalf("tracked %d after absorbing the pending override, want 4", m2.Tracked())
	}
}

// TestRestoreUnknownTemplate: restoring state that names a template the
// program does not declare is an error, not a silent drop.
func TestRestoreUnknownTemplate(t *testing.T) {
	prog, eng, _ := newEngine(t, ttlSrc)
	m := New(prog, eng)
	err := m.RestoreState(&State{Now: 3, Sources: []SourceState{{Tmpl: "ghost"}}})
	if err == nil {
		t.Fatal("restore of unknown template succeeded")
	}
}
