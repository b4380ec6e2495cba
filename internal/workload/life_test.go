package workload

import (
	"reflect"
	"testing"

	"parulel/internal/core"
	"parulel/internal/ops5"
	"parulel/internal/programs"
)

func runLife(t *testing.T, w, h int, alive [][2]int, gens int) (*core.Engine, core.Result) {
	t.Helper()
	prog := loadOK(t, programs.Life)
	e := core.New(prog, core.Options{MaxCycles: 10 * (gens + 2)})
	if err := LifeGrid(e, w, h, alive, gens); err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return e, res
}

func TestLifeBlinkerOscillates(t *testing.T) {
	start := LifeBlinker(2, 2)
	// One generation: horizontal blinker becomes vertical.
	e, res := runLife(t, 5, 5, start, 1)
	got := LifeBoard(e.Memory().OfTemplate("cell"))
	want := map[[2]int]bool{{2, 1}: true, {2, 2}: true, {2, 3}: true}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("after 1 gen: %v, want %v", got, want)
	}
	if !res.Halted {
		t.Error("life should halt when generations are exhausted")
	}
	// Two generations: back to the original.
	e2, _ := runLife(t, 5, 5, start, 2)
	got2 := LifeBoard(e2.Memory().OfTemplate("cell"))
	want2 := map[[2]int]bool{{1, 2}: true, {2, 2}: true, {3, 2}: true}
	if !reflect.DeepEqual(got2, want2) {
		t.Errorf("after 2 gens: %v, want %v", got2, want2)
	}
}

func TestLifeGliderTranslates(t *testing.T) {
	// On a torus, a glider shifts by (+1,+1) every 4 generations.
	start := LifeGlider(1, 1)
	e, _ := runLife(t, 8, 8, start, 4)
	got := LifeBoard(e.Memory().OfTemplate("cell"))
	want := map[[2]int]bool{}
	for _, p := range LifeGlider(2, 2) {
		want[p] = true
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("glider after 4 gens: %v, want %v", got, want)
	}
}

func TestLifeMatchesReferenceOnRandomBoards(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		const w, h, gens = 6, 6, 5
		start := LifeRandom(w, h, 0.35, seed)
		e, res := runLife(t, w, h, start, gens)
		got := LifeBoard(e.Memory().OfTemplate("cell"))
		want := LifeReference(w, h, start, gens)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: engine %v,\nreference %v", seed, got, want)
		}
		// Two engine cycles per generation plus the halt cycle.
		if res.Cycles != 2*gens+1 {
			t.Errorf("seed %d: cycles = %d, want %d (2/generation + halt)", seed, res.Cycles, 2*gens+1)
		}
		if res.WriteConflicts != 0 {
			t.Errorf("seed %d: life must be conflict-free, got %d", seed, res.WriteConflicts)
		}
	}
}

func TestLifeCostTracksActivityNotGridSize(t *testing.T) {
	// The same blinker on a bigger grid costs the same cycles AND the
	// same firings: only changing cells produce instantiations, so the
	// engine's work is delta-driven, not grid-driven.
	_, small := runLife(t, 5, 5, LifeBlinker(2, 2), 3)
	_, big := runLife(t, 10, 10, LifeBlinker(4, 4), 3)
	if small.Cycles != big.Cycles {
		t.Errorf("cycles: %d vs %d — generation cost must not depend on grid size", small.Cycles, big.Cycles)
	}
	if small.Firings != big.Firings {
		t.Errorf("firings: %d vs %d — only changing cells should fire", small.Firings, big.Firings)
	}
	// More simultaneous activity (two blinkers) means more firings but
	// the same cycle count: that is set-oriented firing.
	_, two := runLife(t, 10, 10, append(LifeBlinker(2, 2), LifeBlinker(7, 7)...), 3)
	if two.Cycles != small.Cycles {
		t.Errorf("cycles: %d vs %d — parallel activity is free in cycles", two.Cycles, small.Cycles)
	}
	if two.Firings <= small.Firings {
		t.Errorf("firings should grow with activity: %d vs %d", small.Firings, two.Firings)
	}
}

func TestLifeSequentialBaselineAgrees(t *testing.T) {
	const w, h, gens = 5, 5, 2
	start := LifeBlinker(2, 2)
	prog := loadOK(t, programs.Life)
	e := ops5.New(prog, ops5.Options{MaxCycles: 100000, Strategy: ops5.MEA})
	if err := LifeGrid(e, w, h, start, gens); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	got := LifeBoard(e.Memory().OfTemplate("cell"))
	want := LifeReference(w, h, start, gens)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ops5 life: %v, want %v", got, want)
	}
}

func TestLifeGridErrors(t *testing.T) {
	prog := loadOK(t, programs.Life)
	e := core.New(prog, core.Options{})
	if err := LifeGrid(e, 2, 2, nil, 1); err == nil {
		t.Error("tiny grid should fail")
	}
	if err := LifeGrid(e, 5, 5, [][2]int{{9, 9}}, 1); err == nil {
		t.Error("out-of-range live cell should fail")
	}
}
