package seeded

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"parulel/internal/compile"
	"parulel/internal/wm"
)

// audit checks mem against want, the members it should hold in arrival
// order: its list links both ways, ends at its tail and counts them, and
// each member is in its bucket of every index, in arrival order too —
// unless its key is NaN, which no probe reaches.
func audit(mem *Mem, want []*Member) error {
	chain := func(head *Member, off int) (out []*Member, err error) {
		for mb, prev := head, (*Member)(nil); mb != nil; prev, mb = mb, mb.at[off].next {
			if mb.at[off].prev != prev {
				return nil, fmt.Errorf("member %v does not link back to the one before it", mb.W)
			}
			out = append(out, mb)
		}
		return out, nil
	}
	list, err := chain(mem.list.Head, mem.pat.Pos)
	if err != nil {
		return err
	}
	if !slices.Equal(list, want) || mem.N != len(want) || len(want) > 0 && mem.list.Tail != want[len(want)-1] {
		return fmt.Errorf("lists %d members ending at its tail or not, counts %d, should hold %d", len(list), mem.N, len(want))
	}
	for k, f := range mem.pat.Indexed {
		for _, mb := range want {
			key := mb.W.Fields[f]
			if key != key {
				continue
			}
			bucket, err := chain(mem.idx[k].Get(field(f), key), mem.pat.Pos+1+k)
			if err != nil {
				return err
			}
			same := slices.DeleteFunc(slices.Clone(want), func(o *Member) bool { return o.W.Fields[f] != key })
			if !slices.Equal(bucket, same) {
				return fmt.Errorf("index %d: bucket of %v holds %d members, want %d", k, key, len(bucket), len(same))
			}
		}
	}
	return nil
}

// TestMemChurn files random members in three memories of one layout, two
// of them indexed, over keys that include both zeros, which are one key,
// and NaN, which is none, and takes them out again in random order,
// auditing every memory and every member's Held after each change. Emptied,
// the memories hold no index table.
func TestMemChurn(t *testing.T) {
	tmpl, err := wm.NewSchema().Declare("t", "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	pats := []*compile.Pattern{{ID: 0, Indexed: []int{0, 1}, Pos: 0}, {ID: 1, Pos: 3}, {ID: 2, Indexed: []int{1}, Pos: 4}}
	layout := &compile.Layout{Tmpl: tmpl, Patterns: pats, NumPos: 6}
	w := New(pats, nil)
	values := []wm.Value{wm.Int(0), wm.Int(1), wm.Float(0), wm.Float(math.Copysign(0, -1)), wm.Float(math.NaN()), wm.Sym("a")}
	rng := rand.New(rand.NewSource(1))
	held := make([][]*Member, len(pats))
	var live []*Member
	check := func(step int) {
		for i := range pats {
			if err := audit(&w.Mems[i], held[i]); err != nil {
				t.Fatalf("step %d, memory %d: %v", step, i, err)
			}
		}
		for _, mb := range live {
			for i, p := range pats {
				if mb.Held(p) != slices.Contains(held[i], mb) {
					t.Fatalf("step %d: member %v reads held by memory %d = %v", step, mb.W, i, mb.Held(p))
				}
			}
		}
	}
	for step := 0; step < 4000; step++ {
		if len(live) > 0 && (rng.Intn(2) == 0 || step >= 3000) {
			n := rng.Intn(len(live))
			mb := live[n]
			live = slices.Delete(live, n, n+1)
			for i, p := range pats {
				if mb.Held(p) {
					w.Mems[i].Remove(mb)
					held[i] = slices.DeleteFunc(held[i], func(o *Member) bool { return o == mb })
				}
			}
		} else if step < 3000 {
			mb := &Member{W: wm.WME{Tmpl: tmpl, Fields: []wm.Value{values[rng.Intn(len(values))], values[rng.Intn(len(values))]}}}
			mb.Lay(layout)
			live = append(live, mb)
			for i := range pats {
				if rng.Intn(3) != 0 {
					w.Mems[i].Add(mb)
					held[i] = append(held[i], mb)
				}
			}
		}
		check(step)
	}
	for i := range w.Mems {
		if w.Mems[i].N != 0 || w.Mems[i].Bytes() != 0 {
			t.Fatalf("emptied memory %d counts %d members in %d bytes of index tables", i, w.Mems[i].N, w.Mems[i].Bytes())
		}
	}
}

// TestWitnessChurn gives random members, images with a link inline and
// members without, random witnesses of one to three slots, so that links
// are allocated, reused and outgrown, and takes them away again, auditing
// after each change every member's chain of dependents against a model of
// the witnesses: it links back through pprev and Dependents reports exactly
// the members whose witness holds this one, each with its place among the
// witness's other members.
func TestWitnessChurn(t *testing.T) {
	const n = 12
	mbs := make([]*Member, n)
	for i := range mbs {
		if mbs[i] = new(Member); i%2 == 0 {
			mbs[i] = new(Image).Init(nil)
		}
	}
	model := make(map[*Member][]*Member)
	type dep struct {
		m  *Member
		at int
	}
	order := func(ds []dep) []dep {
		slices.SortFunc(ds, func(a, b dep) int { return 16*(slices.Index(mbs, a.m)-slices.Index(mbs, b.m)) + a.at - b.at })
		return ds
	}
	rng := rand.New(rand.NewSource(1))
	check := func(step int) {
		for _, x := range mbs {
			var want, got []dep
			for o, tuple := range model {
				others := slices.DeleteFunc(slices.Clone(tuple), func(y *Member) bool { return y == o })
				if i := slices.Index(others, x); i >= 0 {
					want = append(want, dep{o, i})
				}
			}
			x.Dependents(func(d *Member, at int) { got = append(got, dep{d, at}) })
			for l, pp := x.deps, &x.deps; l != nil; pp, l = &l.next, l.next {
				if l.pprev != pp {
					t.Fatalf("step %d: a link in a chain of dependents does not point back", step)
				}
			}
			if !slices.Equal(order(got), order(want)) || (x.Dependent() == nil) != (len(want) == 0) || x.Redacted() != (model[x] != nil) {
				t.Fatalf("step %d: member %d lists dependents %v, the witnesses name it in %v", step, slices.Index(mbs, x), got, want)
			}
		}
	}
	for step := 0; step < 5000; step++ {
		mb := mbs[rng.Intn(n)]
		if mb.Redacted() {
			mb.Unwitness()
			delete(model, mb)
		} else {
			tuple := []*Member{mb}
			for _, i := range rng.Perm(n)[:rng.Intn(3)] {
				if mbs[i] != mb {
					tuple = append(tuple, mbs[i])
				}
			}
			rng.Shuffle(len(tuple), func(i, j int) { tuple[i], tuple[j] = tuple[j], tuple[i] })
			mb.Witness(tuple)
			model[mb] = tuple
		}
		check(step)
	}
	for _, mb := range mbs {
		mb.Unwitness()
	}
	clear(model)
	check(-1)
	for _, mb := range mbs {
		if mb.deps != nil {
			t.Fatal("with every witness dropped a chain of dependents is not empty")
		}
	}
}
