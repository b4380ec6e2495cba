package rete

import (
	"math/rand"
	"testing"

	"parulel/internal/wm"
)

// TestSetAgainstMap drives a set and a map with the same random adds and
// removes, across the size at which the set starts indexing positions and
// back down to empty, and requires the same membership throughout.
func TestSetAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var s set[int]
	ref := map[int]bool{}
	check := func(step int) {
		t.Helper()
		if s.len() != len(ref) {
			t.Fatalf("step %d: %d members, want %d", step, s.len(), len(ref))
		}
		seen := map[int]bool{}
		for _, x := range s.all() {
			if !ref[x] || seen[x] {
				t.Fatalf("step %d: stray or repeated member %d", step, x)
			}
			seen[x] = true
		}
	}
	for step := 0; step < 5000; step++ {
		x := rng.Intn(3 * setScan)
		grow := (step/500)%2 == 0 // alternate growing and shrinking phases
		switch {
		case !ref[x] && (grow || rng.Intn(4) == 0):
			s.add(x)
			ref[x] = true
		default:
			s.remove(x) // often not a member: must be a no-op then
			delete(ref, x)
		}
		check(step)
	}
	for x := range ref {
		s.remove(x)
	}
	if s.len() != 0 || s.pos != nil {
		t.Fatalf("emptied set still holds %d members (index dropped: %v)", s.len(), s.pos == nil)
	}
	var absent *set[int]
	if absent.len() != 0 || len(absent.all()) != 0 {
		t.Fatal("a nil set must range as empty")
	}

	// A value index drops a bucket with its last member.
	ix := valueIndex[int]{}
	ix.add(wm.Int(1), 10)
	ix.add(wm.Int(1), 11)
	ix.add(wm.Int(2), 20)
	ix.remove(wm.Int(1), 10)
	ix.remove(wm.Int(3), 30) // no such bucket
	if len(ix) != 2 || ix[wm.Int(1)].len() != 1 {
		t.Fatalf("index after removals: %v", ix)
	}
	ix.remove(wm.Int(1), 11)
	if _, kept := ix[wm.Int(1)]; kept || len(ix) != 1 {
		t.Fatalf("empty bucket kept: %v", ix)
	}
}
