package matchtest

import (
	"testing"

	"parulel/internal/match"
	"parulel/internal/match/rete"
	"parulel/internal/match/treat"
	"parulel/internal/wm"
)

// TestNoStateLeakAfterFullRetraction inserts a random history and then
// removes every live WME; both matchers must return to an empty state
// (no leaked alpha items, beta tokens, or instantiations). TREAT's Bytes,
// which counts its records and tables, must be positive while it holds
// WMEs and back to a fresh matcher's after.
func TestNoStateLeakAfterFullRetraction(t *testing.T) {
	factories := []struct {
		name string
		f    match.Factory
	}{{"rete", rete.New}, {"treat", treat.New}}
	for name := range Programs {
		name := name
		t.Run(name, func(t *testing.T) {
			for _, fac := range factories {
				prog := Compiled(t, name)
				gen := Generators[name]
				fresh := fac.f(prog.Rules).MemStats().Bytes
				for seed := int64(1); seed <= 3; seed++ {
					d := NewDriver(prog, seed, fac.f)
					for step := 0; step < 80; step++ {
						d.Step(gen)
					}
					if ms := d.Matchers[0].MemStats(); fac.name == "treat" && ms.AlphaItems > 0 && ms.Bytes <= fresh {
						t.Fatalf("treat seed %d: holds %d alpha items in %d bytes, a fresh matcher %d", seed, ms.AlphaItems, ms.Bytes, fresh)
					}
					// Retract everything still alive.
					for _, w := range d.Mem.Snapshot() {
						d.Mem.Remove(w.Time)
						for _, m := range d.Matchers {
							m.Apply(wm.Delta{Removed: []*wm.WME{w}})
						}
					}
					ms := d.Matchers[0].MemStats()
					if ms.AlphaItems != 0 || ms.ConflictSet != 0 {
						t.Fatalf("%s seed %d: leaked state after full retraction: %+v", fac.name, seed, ms)
					}
					if cs := d.Matchers[0].ConflictSet(); len(cs) != 0 {
						t.Fatalf("%s seed %d: conflict set not empty: %v", fac.name, seed, cs)
					}
					if fac.name == "treat" && ms.Bytes != fresh {
						t.Fatalf("treat seed %d: %d bytes after full retraction, a fresh matcher %d", seed, ms.Bytes, fresh)
					}
					// RETE keeps only the per-rule dummy tokens plus
					// negative-node tokens derived from them; those are
					// bounded by the network shape, not the history.
					if fac.name == "rete" && ms.BetaTokens > 4*len(prog.Rules)+8 {
						t.Fatalf("rete seed %d: suspicious beta token count %d after retraction", seed, ms.BetaTokens)
					}
				}
			}
		})
	}
}

// TestRebuildEquivalence: after an arbitrary history, a freshly built
// matcher fed the current WM snapshot must agree with the incrementally
// maintained one — i.e. incremental maintenance loses nothing.
func TestRebuildEquivalence(t *testing.T) {
	factories := []struct {
		name string
		f    match.Factory
	}{{"rete", rete.New}, {"treat", treat.New}}
	for name := range Programs {
		name := name
		t.Run(name, func(t *testing.T) {
			for _, fac := range factories {
				prog := Compiled(t, name)
				gen := Generators[name]
				d := NewDriver(prog, 42, fac.f)
				for step := 0; step < 150; step++ {
					d.Step(gen)
				}
				fresh := fac.f(prog.Rules)
				fresh.Apply(wm.Delta{Added: d.Mem.Snapshot()})
				a := Keys(d.Matchers[0].ConflictSet())
				b := Keys(fresh.ConflictSet())
				if len(a) != len(b) {
					t.Fatalf("%s: incremental %d vs rebuilt %d instantiations", fac.name, len(a), len(b))
				}
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("%s: mismatch at %d: %s vs %s", fac.name, i, a[i], b[i])
					}
				}
			}
		})
	}
}
