package workload

import (
	"testing"

	"parulel/internal/core"
	"parulel/internal/ops5"
	"parulel/internal/programs"
	"parulel/internal/wm"
)

// checkManners verifies a completed seating: every guest seated exactly
// once, positions 1..n contiguous, adjacent guests alternate sex and
// share a hobby.
func checkManners(t *testing.T, mem *wm.Memory, guests int) {
	t.Helper()
	type guestInfo struct {
		sex     wm.Value
		hobbies map[int64]bool
	}
	info := make(map[string]*guestInfo)
	for _, g := range mem.OfTemplate("guest") {
		name := g.Fields[0].S
		gi := info[name]
		if gi == nil {
			gi = &guestInfo{sex: g.Fields[1], hobbies: map[int64]bool{}}
			info[name] = gi
		}
		gi.hobbies[g.Fields[2].I] = true
	}
	if len(info) != guests {
		t.Fatalf("guest WMEs describe %d guests, want %d", len(info), guests)
	}

	seatAt := make(map[int64]string)
	for _, s := range mem.OfTemplate("seating") {
		pos := s.Fields[0].I
		if _, dup := seatAt[pos]; dup {
			t.Errorf("seat %d assigned twice", pos)
		}
		seatAt[pos] = s.Fields[1].S
	}
	if len(seatAt) != guests {
		t.Fatalf("seated %d of %d guests", len(seatAt), guests)
	}
	seatedNames := make(map[string]bool)
	for pos := int64(1); pos <= int64(guests); pos++ {
		name, ok := seatAt[pos]
		if !ok {
			t.Fatalf("no guest at seat %d", pos)
		}
		if seatedNames[name] {
			t.Errorf("guest %s seated twice", name)
		}
		seatedNames[name] = true
		if pos == 1 {
			continue
		}
		prev, cur := info[seatAt[pos-1]], info[name]
		if prev.sex == cur.sex {
			t.Errorf("seats %d and %d have same sex", pos-1, pos)
		}
		shared := false
		for h := range cur.hobbies {
			if prev.hobbies[h] {
				shared = true
				break
			}
		}
		if !shared {
			t.Errorf("seats %d and %d share no hobby", pos-1, pos)
		}
	}
	// The done rule must have fired.
	ctx := mem.OfTemplate("context")
	if len(ctx) != 1 || ctx[0].Fields[0] != wm.Sym("done") {
		t.Errorf("context: %v, want done", ctx)
	}
}

func TestMannersEndToEnd(t *testing.T) {
	const guests = 16
	prog := loadOK(t, programs.Manners)
	e := core.New(prog, core.Options{MaxCycles: 200})
	if err := Manners(e, guests, 3, 6, 5); err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	checkManners(t, e.Memory(), guests)
	if res.WriteConflicts != 0 {
		t.Errorf("write conflicts = %d, want 0", res.WriteConflicts)
	}
	// Seating is serialized by the meta-rule: one extension per cycle.
	if res.Cycles < guests {
		t.Errorf("cycles = %d, want >= %d (inherently serial)", res.Cycles, guests)
	}
	if res.Redactions == 0 {
		t.Error("expected redactions (candidate selection)")
	}
}

func TestMannersSequentialBaseline(t *testing.T) {
	// Under OPS5 the meta-rules are ignored; LEX picks one instantiation
	// per cycle anyway. The outcome must still be a valid seating.
	const guests = 10
	prog := loadOK(t, programs.Manners)
	e := ops5.New(prog, ops5.Options{MaxCycles: 10000})
	if err := Manners(e, guests, 3, 6, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	checkManners(t, e.Memory(), guests)
}

// TestMannersDeterministicAcrossWorkers: the seating depends on nothing
// but the program and its facts — not on scheduling or map order — so two
// fresh engines seat every guest alike, time tags included.
func TestMannersDeterministicAcrossWorkers(t *testing.T) {
	run := func() []string {
		prog := loadOK(t, programs.Manners)
		e := core.New(prog, core.Options{MaxCycles: 200})
		if err := Manners(e, 12, 2, 5, 3); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		var seats []string
		for _, s := range e.Memory().OfTemplate("seating") {
			seats = append(seats, s.String())
		}
		return seats
	}
	ref, got := run(), run()
	if len(got) != len(ref) {
		t.Fatalf("%d seats vs %d", len(got), len(ref))
	}
	for i := range ref {
		if got[i] != ref[i] {
			t.Errorf("seat %d: %s vs %s", i, got[i], ref[i])
		}
	}
}

func TestMannersGeneratorErrors(t *testing.T) {
	prog := loadOK(t, programs.Manners)
	e := core.New(prog, core.Options{})
	if err := Manners(e, 7, 2, 5, 1); err == nil {
		t.Error("odd guest count should fail")
	}
}
