package rete

import (
	"testing"

	"parulel/internal/compile"
	"parulel/internal/programs"
	"parulel/internal/wm"
)

// indexSlots sums the table sizes of every value index in the network.
func (n *Network) indexSlots() int {
	slots := 0
	for _, ams := range n.alphaByTmpl {
		for _, am := range ams {
			for _, ix := range am.byField {
				slots += ix.Slots()
			}
		}
	}
	for _, b := range n.betaMems {
		slots += b.mem.idx.Slots()
	}
	for _, neg := range n.negNodes {
		slots += neg.mem.idx.Slots()
	}
	return slots
}

// TestFreshNetworkOwnsNoIndexTables guards the cost of an idle session and
// of a cold create: a network built for any builtin has allocated no index
// table before its first WME.
func TestFreshNetworkOwnsNoIndexTables(t *testing.T) {
	for _, name := range programs.All() {
		prog, err := programs.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		n := NewWithOptions(prog.Rules, Options{Profile: true}).(*Network)
		if n.indexSlots() != 0 || len(n.recs) != 0 {
			t.Errorf("%s: a fresh network of %d rules owns %d index slots and %d WME records", name, len(prog.Rules), n.indexSlots(), len(n.recs))
		}
	}
}

// TestNetworkChurn keeps one network alive through 100k assert/retract
// rounds over a bounded live set whose join keys never repeat, beside two
// WMEs that stay — a long-lived ingest session. State sizes must return to
// the baseline, no WME record may outlive its WME, the index tables must
// stay the size the live set needs however many keys have passed through
// them, and the records of the two WMEs that stay must not collect the
// tokens and join results of everything that has passed by.
func TestNetworkChurn(t *testing.T) {
	prog, err := compile.CompileSource(`
(literalize item id group kind)
(literalize tag  id label)
(literalize hold id)
(literalize mode on)
(literalize ban  kind)
(rule tagged
  (item ^id <i> ^group <g>)
  (tag  ^id <i> ^label <l>)
  - (hold ^id <i>)
-->
  (halt))
(rule paired
  (item ^id <i> ^group <g>)
  (item ^id (<> <i>) ^group <g>)
-->
  (halt))
(rule moded
  (item ^id <i>)
  (mode ^on yes)
-->
  (halt))
(rule allowed
  (item ^id <i> ^kind <k>)
  - (ban ^kind <k>)
-->
  (halt))
`)
	if err != nil {
		t.Fatal(err)
	}
	n := NewWithOptions(prog.Rules, Options{Profile: true}).(*Network)
	mem := wm.NewMemory(prog.Schema)
	base := n.MemStats()
	insert := func(tmpl string, fields map[string]wm.Value) *wm.WME {
		w, err := mem.Insert(tmpl, fields)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	stay := []*wm.WME{
		insert("mode", map[string]wm.Value{"on": wm.Sym("yes")}),
		insert("ban", map[string]wm.Value{"kind": wm.Sym("k")}),
	}
	n.Apply(wm.Delta{Added: stay})

	const window = 16
	var live [][]*wm.WME
	maxSlots, maxTokens := 0, 0
	rounds := 100000
	if testing.Short() {
		rounds = 5000
	}
	for i := 0; i < rounds; i++ {
		id := wm.Int(int64(i))
		added := []*wm.WME{
			insert("item", map[string]wm.Value{"id": id, "group": wm.Int(int64(i / 4)), "kind": wm.Sym("k")}),
			insert("tag", map[string]wm.Value{"id": id, "label": wm.Sym("l")}),
		}
		if i%3 == 0 {
			added = append(added, insert("hold", map[string]wm.Value{"id": id}))
		}
		delta := wm.Delta{Added: added}
		live = append(live, added)
		if len(live) > window {
			delta.Removed = live[0]
			live = live[1:]
			for _, w := range delta.Removed {
				mem.Remove(w.Time)
			}
		}
		n.Apply(delta)
		maxSlots = max(maxSlots, n.indexSlots())
		maxTokens = max(maxTokens, n.MemStats().BetaTokens)
	}
	// 16 rounds of at most 3 WMEs live at once: a few dozen buckets per
	// index, eight indexes.
	if maxSlots > 8*128 {
		t.Fatalf("index tables grew to %d slots over a live set of %d rounds", maxSlots, window)
	}
	if maxTokens > 40*window {
		t.Fatalf("token memories grew to %d tokens over a live set of %d rounds", maxTokens, window)
	}
	for _, w := range stay {
		r, listed := n.recs[w], 0
		for tok := r.tokens; tok != nil; tok = tok.wnext {
			listed++
		}
		if listed > 4*window || len(r.neg) > 4*window {
			t.Fatalf("%v lists %d tokens and %d join results after %d rounds with %d items live", w, listed, len(r.neg), rounds, window)
		}
	}
	for _, ws := range append(live, stay) {
		n.Apply(wm.Delta{Removed: ws})
	}
	if ms := n.MemStats(); ms != base {
		t.Fatalf("state after retracting everything %+v, baseline %+v", ms, base)
	}
	if len(n.recs) != 0 || n.indexSlots() != 0 {
		t.Fatalf("%d WME records and %d index slots outlive their WMEs", len(n.recs), n.indexSlots())
	}
}
