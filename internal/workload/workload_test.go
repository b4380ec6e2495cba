// Integration tests: every embedded program runs end-to-end on generated
// workloads under both engines, and the domain-level results are checked
// (allocation validity, complete labelings, exact closure sets).
package workload

import (
	"testing"

	"parulel/internal/compile"
	"parulel/internal/core"
	"parulel/internal/match/treat"
	"parulel/internal/ops5"
	"parulel/internal/programs"
	"parulel/internal/wm"
)

func loadOK(t *testing.T, name string) *compile.Program {
	t.Helper()
	p, err := programs.Load(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestAllProgramsCompile(t *testing.T) {
	for _, name := range programs.All() {
		if _, err := programs.Load(name); err != nil {
			t.Errorf("program %s: %v", name, err)
		}
		if _, err := programs.LoadWithoutMetaRules(name); err != nil {
			t.Errorf("program %s (no meta): %v", name, err)
		}
	}
	if _, err := programs.Load("ghost"); err == nil {
		t.Error("unknown program should fail")
	}
}

func TestQuickstartEndToEnd(t *testing.T) {
	prog := loadOK(t, programs.Quickstart)
	e := core.New(prog, core.Options{MaxCycles: 100})
	if err := People(e, 10); err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Ages cycle 15..24 for n=10 → adults are ages 18..24 → 7 people.
	adults := 7
	tally := e.Memory().OfTemplate("tally")
	if len(tally) != 1 || tally[0].Fields[0] != wm.Int(int64(adults)) {
		t.Fatalf("tally: %v (want %d)", tally, adults)
	}
	// Greeting is one parallel cycle; counting is serialized by the
	// meta-rule, so it needs `adults` cycles.
	if res.Cycles < adults {
		t.Errorf("cycles = %d, want >= %d (serialized counting)", res.Cycles, adults)
	}
	if res.WriteConflicts != 0 {
		t.Errorf("write conflicts = %d, want 0", res.WriteConflicts)
	}
}

// checkAlexsys validates an allocation outcome: every sold pool is owned
// by exactly one filled order and vice versa, amounts are within windows,
// and no compatible (free pool, unfilled order) pair remains.
func checkAlexsys(t *testing.T, mem *wm.Memory) (sold int) {
	t.Helper()
	pools := mem.OfTemplate("pool")
	orders := mem.OfTemplate("order")
	orderByID := make(map[int64]*wm.WME)
	for _, o := range orders {
		orderByID[o.Fields[0].I] = o
	}
	ownedOrders := make(map[int64]int64) // order id → pool id
	for _, p := range pools {
		if p.Fields[2] != wm.Sym("sold") {
			continue
		}
		sold++
		oid := p.Fields[3].I
		if prev, dup := ownedOrders[oid]; dup {
			t.Errorf("order %d allocated two pools (%d and %d)", oid, prev, p.Fields[0].I)
		}
		ownedOrders[oid] = p.Fields[0].I
		o := orderByID[oid]
		if o == nil {
			t.Fatalf("pool %d sold to unknown order %d", p.Fields[0].I, oid)
		}
		if o.Fields[3] != wm.Sym("yes") {
			t.Errorf("order %d owns pool but is not filled", oid)
		}
		if o.Fields[4].I != p.Fields[0].I {
			t.Errorf("order %d records pool %d, pool says %d", oid, o.Fields[4].I, p.Fields[0].I)
		}
		amount := p.Fields[1].I
		if amount < o.Fields[1].I || amount > o.Fields[2].I {
			t.Errorf("pool %d amount %d outside order %d window [%d,%d]",
				p.Fields[0].I, amount, oid, o.Fields[1].I, o.Fields[2].I)
		}
	}
	// Maximality: no compatible free/unfilled pair may remain.
	for _, p := range pools {
		if p.Fields[2] != wm.Sym("free") {
			continue
		}
		for _, o := range orders {
			if o.Fields[3] != wm.Sym("no") {
				continue
			}
			a := p.Fields[1].I
			if a >= o.Fields[1].I && a <= o.Fields[2].I {
				t.Errorf("compatible pair left unallocated: pool %d (amount %d), order %d [%d,%d]",
					p.Fields[0].I, a, o.Fields[0].I, o.Fields[1].I, o.Fields[2].I)
			}
		}
	}
	return sold
}

func TestAlexsysEndToEnd(t *testing.T) {
	prog := loadOK(t, programs.Alexsys)
	e := core.New(prog, core.Options{MaxCycles: 500})
	if err := Alexsys(e, 40, 30, 7); err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.WriteConflicts != 0 {
		t.Errorf("write conflicts with meta-rules = %d, want 0", res.WriteConflicts)
	}
	if res.Redactions == 0 {
		t.Error("expected redactions on a conflict-heavy workload")
	}
	sold := checkAlexsys(t, e.Memory())
	if sold == 0 {
		t.Error("no pools sold")
	}
}

func TestAlexsysWithoutMetaRulesOverAllocates(t *testing.T) {
	prog, err := programs.LoadWithoutMetaRules(programs.Alexsys)
	if err != nil {
		t.Fatal(err)
	}
	e := core.New(prog, core.Options{MaxCycles: 500})
	if err := Alexsys(e, 40, 30, 7); err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.WriteConflicts == 0 {
		t.Error("without meta-rules, parallel firing should produce write conflicts")
	}
}

func TestAlexsysSequentialBaselineAgreesOnValidity(t *testing.T) {
	prog := loadOK(t, programs.Alexsys)
	e := ops5.New(prog, ops5.Options{MaxCycles: 5000})
	if err := Alexsys(e, 40, 30, 7); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// OPS5 fires one allocation per cycle; the outcome may differ from
	// PARULEL's but must be a valid maximal allocation too.
	if sold := checkAlexsys(t, e.Memory()); sold == 0 {
		t.Error("no pools sold under OPS5")
	}
}

// checkWaltz verifies the labeling invariants for an n-cube scene.
func checkWaltz(t *testing.T, mem *wm.Memory, cubes int) {
	t.Helper()
	labels := make(map[int64]wm.Value)
	for _, l := range mem.OfTemplate("label") {
		edge := l.Fields[0].I
		if prev, dup := labels[edge]; dup {
			t.Errorf("edge %d labeled twice (%v and %v)", edge, prev, l.Fields[1])
		}
		labels[edge] = l.Fields[1]
	}
	if want := cubes * 9; len(labels) != want {
		t.Errorf("labels = %d, want %d", len(labels), want)
	}
	for c := 0; c < cubes; c++ {
		base := int64(c * 100)
		for _, e := range []int64{base + 11, base + 12, base + 13} {
			if labels[e] != wm.Sym("plus") {
				t.Errorf("cube %d internal edge %d = %v, want plus", c, e, labels[e])
			}
		}
		for s := int64(21); s <= 26; s++ {
			if labels[base+s] != wm.Sym("boundary") {
				t.Errorf("cube %d silhouette edge %d = %v, want boundary", c, base+s, labels[base+s])
			}
		}
	}
	if done := mem.CountOf("jdone"); done != cubes*7 {
		t.Errorf("jdone = %d, want %d", done, cubes*7)
	}
}

func TestWaltzEndToEnd(t *testing.T) {
	prog := loadOK(t, programs.Waltz)
	e := core.New(prog, core.Options{MaxCycles: 100})
	const cubes = 6 // includes two occluded cubes
	if err := WaltzScene(e, cubes); err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	checkWaltz(t, e.Memory(), cubes)
	if res.WriteConflicts != 0 {
		t.Errorf("write conflicts = %d, want 0", res.WriteConflicts)
	}
	// Constant cycle count regardless of scene size: compare with a
	// bigger scene.
	e2 := core.New(loadOK(t, programs.Waltz), core.Options{MaxCycles: 100})
	if err := WaltzScene(e2, cubes*4); err != nil {
		t.Fatal(err)
	}
	res2, err := e2.Run()
	if err != nil {
		t.Fatal(err)
	}
	checkWaltz(t, e2.Memory(), cubes*4)
	if res2.Cycles != res.Cycles {
		t.Errorf("cycle count should be scene-size independent: %d vs %d", res.Cycles, res2.Cycles)
	}
	if res2.Firings <= res.Firings {
		t.Errorf("firings should grow with the scene: %d vs %d", res.Firings, res2.Firings)
	}
}

func TestWaltzSequentialMatchesParallelOutcome(t *testing.T) {
	const cubes = 3
	par := core.New(loadOK(t, programs.Waltz), core.Options{MaxCycles: 100})
	if err := WaltzScene(par, cubes); err != nil {
		t.Fatal(err)
	}
	if _, err := par.Run(); err != nil {
		t.Fatal(err)
	}
	checkWaltz(t, par.Memory(), cubes)

	seq := ops5.New(loadOK(t, programs.Waltz), ops5.Options{MaxCycles: 10000})
	if err := WaltzScene(seq, cubes); err != nil {
		t.Fatal(err)
	}
	if _, err := seq.Run(); err != nil {
		t.Fatal(err)
	}
	checkWaltz(t, seq.Memory(), cubes)
}

// naiveClosure computes the irreflexive transitive closure of the arcs.
func naiveClosure(arcs map[int64][]int64) map[[2]int64]bool {
	out := make(map[[2]int64]bool)
	var dfs func(root, at int64, seen map[int64]bool)
	dfs = func(root, at int64, seen map[int64]bool) {
		for _, next := range arcs[at] {
			if next != root && !out[[2]int64{root, next}] {
				out[[2]int64{root, next}] = true
				if !seen[next] {
					seen[next] = true
					dfs(root, next, seen)
				}
			}
		}
	}
	for from := range arcs {
		dfs(from, from, map[int64]bool{from: true})
	}
	return out
}

func checkClosure(t *testing.T, mem *wm.Memory) {
	t.Helper()
	arcs := make(map[int64][]int64)
	for _, a := range mem.OfTemplate("arc") {
		arcs[a.Fields[0].I] = append(arcs[a.Fields[0].I], a.Fields[1].I)
	}
	want := naiveClosure(arcs)
	got := make(map[[2]int64]bool)
	for _, p := range mem.OfTemplate("path") {
		pair := [2]int64{p.Fields[0].I, p.Fields[1].I}
		if got[pair] {
			t.Errorf("duplicate path %v", pair)
		}
		got[pair] = true
	}
	if len(got) != len(want) {
		t.Errorf("paths = %d, want %d", len(got), len(want))
	}
	for pair := range want {
		if !got[pair] {
			t.Errorf("missing path %v", pair)
		}
	}
}

func TestClosureEndToEnd(t *testing.T) {
	for _, tc := range []struct {
		name   string
		load   func(ins Inserter) error
		maxCyc int
	}{
		{"chain", func(ins Inserter) error { return Chain(ins, 12) }, 40},
		{"layered", func(ins Inserter) error { return LayeredDAG(ins, 5, 4, 2, 3) }, 40},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := core.New(loadOK(t, programs.Closure), core.Options{MaxCycles: tc.maxCyc})
			if err := tc.load(e); err != nil {
				t.Fatal(err)
			}
			res, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			checkClosure(t, e.Memory())
			if res.WriteConflicts != 0 {
				t.Errorf("write conflicts = %d, want 0", res.WriteConflicts)
			}
		})
	}
}

func TestClosureCycleCountBoundedByDepth(t *testing.T) {
	// PARULEL: cycles ≈ longest path length + constant, NOT #paths.
	e := core.New(loadOK(t, programs.Closure), core.Options{MaxCycles: 100})
	if err := Chain(e, 16); err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Chain of 16 nodes: longest path 15 arcs → ~16 cycles; #paths = 120.
	if res.Cycles > 20 {
		t.Errorf("cycles = %d, want ≈ diameter (≤ 20)", res.Cycles)
	}

	seq := ops5.New(loadOK(t, programs.Closure), ops5.Options{MaxCycles: 10000})
	if err := Chain(seq, 16); err != nil {
		t.Fatal(err)
	}
	sres, err := seq.Run()
	if err != nil {
		t.Fatal(err)
	}
	checkClosure(t, seq.Memory())
	if sres.Cycles <= res.Cycles*3 {
		t.Errorf("OPS5 cycles (%d) should far exceed PARULEL cycles (%d)", sres.Cycles, res.Cycles)
	}
}

func TestClosureTreatMatcherAgrees(t *testing.T) {
	e := core.New(loadOK(t, programs.Closure), core.Options{Matcher: treat.New, MaxCycles: 60})
	if err := LayeredDAG(e, 4, 4, 2, 9); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	checkClosure(t, e.Memory())
}

func TestHotRuleWorkload(t *testing.T) {
	prog, err := compile.CompileSource(HotRuleProgram)
	if err != nil {
		t.Fatal(err)
	}
	e := core.New(prog, core.Options{MaxCycles: 10})
	if err := HotRuleFacts(e, 4, 5, 1); err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != 1 {
		t.Errorf("hot rule should fire everything in one cycle: %d", res.Cycles)
	}
	hits := e.Memory().CountOf("hit")
	if hits == 0 || hits != res.Firings {
		t.Errorf("hits = %d, firings = %d", hits, res.Firings)
	}
	// All hits must respect region equality and capacity.
	tasks := make(map[int64]*wm.WME)
	ress := make(map[int64]*wm.WME)
	for _, w := range e.Memory().OfTemplate("task") {
		tasks[w.Fields[0].I] = w
	}
	for _, w := range e.Memory().OfTemplate("res") {
		ress[w.Fields[0].I] = w
	}
	for _, h := range e.Memory().OfTemplate("hit") {
		task, res := tasks[h.Fields[0].I], ress[h.Fields[1].I]
		if task.Fields[1] != res.Fields[1] {
			t.Errorf("hit joins different regions: %v %v", task, res)
		}
		if res.Fields[2].I < task.Fields[2].I {
			t.Errorf("hit violates capacity: %v %v", task, res)
		}
	}
}

func TestJoinChainProgramCompiles(t *testing.T) {
	for _, depth := range []int{2, 4, 6} {
		src := JoinChainProgram(depth)
		prog, err := compile.CompileSource(src)
		if err != nil {
			t.Fatalf("depth %d: %v\n%s", depth, err, src)
		}
		r := prog.Rules[0]
		if r.NumPositive != depth {
			t.Errorf("depth %d: NumPositive = %d", depth, r.NumPositive)
		}
		facts := JoinChainFacts(3, depth, 2, 1)
		if len(facts) != 3*depth*2 {
			t.Errorf("depth %d: facts = %d", depth, len(facts))
		}
	}
}

func TestWorkloadInsertErrorPropagates(t *testing.T) {
	// Feeding a workload into an engine compiled without its templates
	// must surface the insert error.
	prog := loadOK(t, programs.Closure)
	e := core.New(prog, core.Options{})
	if err := Alexsys(e, 1, 1, 1); err == nil {
		t.Error("Alexsys into closure program should fail")
	}
	if err := People(e, 1); err == nil {
		t.Error("People into closure program should fail")
	}
	if err := WaltzScene(e, 1); err == nil {
		t.Error("WaltzScene into closure program should fail")
	}
	if err := HotRuleFacts(e, 1, 1, 1); err == nil {
		t.Error("HotRuleFacts into closure program should fail")
	}
}

func TestLayeredDAGShape(t *testing.T) {
	prog := loadOK(t, programs.Closure)
	e := core.New(prog, core.Options{})
	if err := LayeredDAG(e, 3, 4, 10, 1); err != nil { // fanout clamped to width
		t.Fatal(err)
	}
	arcs := e.Memory().CountOf("arc")
	if arcs != 2*4*4 { // (layers-1) × width × clamped fanout
		t.Errorf("arcs = %d, want 32", arcs)
	}
}

func TestWaltzSceneShape(t *testing.T) {
	prog := loadOK(t, programs.Waltz)
	e := core.New(prog, core.Options{})
	if err := WaltzScene(e, 3); err != nil {
		t.Fatal(err)
	}
	if n := e.Memory().CountOf("junction"); n != 21 {
		t.Errorf("junctions = %d, want 21", n)
	}
	if n := e.Memory().CountOf("edge"); n != 27 {
		t.Errorf("edges = %d, want 27", n)
	}
	// Cube 2 is occluded: exactly one tee junction.
	tees := 0
	for _, j := range e.Memory().OfTemplate("junction") {
		if j.Fields[1] == wm.Sym("tee") {
			tees++
		}
	}
	if tees != 1 {
		t.Errorf("tees = %d, want 1", tees)
	}
}
