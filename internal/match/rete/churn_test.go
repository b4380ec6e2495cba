package rete

import (
	"fmt"
	"reflect"
	"testing"

	"parulel/internal/compile"
	"parulel/internal/programs"
	"parulel/internal/valueindex"
	"parulel/internal/wm"
)

// TestRecordsHoldNoPointers keeps the network's records out of the
// collector's sight: a field that is not a 32-bit integer — a pointer, a
// slice, an interface, a string — would make every arena chunk memory to
// scan again, and is the edit this test is here to refuse.
func TestRecordsHoldNoPointers(t *testing.T) {
	// (instRec, which holds a production token's instantiation, is the
	// arena that is scanned.)
	for _, rec := range []any{token{}, wmeRec{}, membership{}, negResult{}} {
		typ := reflect.TypeOf(rec)
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.Type.Kind() != reflect.Int32 {
				t.Errorf("%s.%s is a %s; records hold int32 handles only", typ.Name(), f.Name, f.Type)
			}
		}
	}
	if size := reflect.TypeOf(token{}).Size(); size > 48 {
		t.Errorf("a token is %d bytes, budget 48", size)
	}
}

// audit checks every record in use against the ones it names: each
// handle it holds is to a live record (the accessors panic on a freed
// one), each list it is on links it both ways, each memory holds as many
// records as it counts, and each record ever handed out is in use or on
// its arena's free list.
func (n *Network) audit() (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("audit: %v", r)
		}
	}()
	must := func(ok bool, format string, args ...any) {
		if !ok {
			panic(fmt.Sprintf(format, args...))
		}
	}
	// heads reports whether h, with no predecessor, is where its memory's
	// list — or, by its key, its bucket — starts. No probe finds a NaN key.
	heads := func(m *memory, o valueindex.Keyer[int32], h int32) bool {
		if !m.indexed {
			return m.all.Head == h
		}
		k := o.Key(h)
		return k != k || m.idx.Get(o, k) == h
	}
	held := make([]int, len(n.nodes))
	for h := int32(1); h < n.tokens.next; h++ {
		t := n.tokens.at(h)
		if t.node < 0 {
			continue
		}
		held[t.node]++
		if t.parent != 0 {
			must(t.prev != 0 || n.tok(t.parent).child == h, "token %d is not its parent's first child and has no elder", h)
		}
		must(t.prev == 0 || n.tok(t.prev).next == h, "token %d: elder sibling does not link to it", h)
		must(t.next == 0 || n.tok(t.next).prev == h, "token %d: younger sibling does not link back", h)
		for c := t.child; c != 0; c = n.tok(c).next {
			must(n.tok(c).parent == h, "token %d lists %d, whose parent is another", h, c)
		}
		if t.rec != 0 {
			must(n.wmes[t.rec] != nil, "token %d is built on record %d, which has no WME", h, t.rec)
			must(t.wprev != 0 || n.rec(t.rec).tokens == h, "token %d is not on the list of its WME", h)
			must(t.wprev == 0 || n.tok(t.wprev).wnext == h, "token %d: the token before it on its WME's list does not link to it", h)
			must(t.wnext == 0 || n.tok(t.wnext).wprev == h, "token %d: the token after it on its WME's list does not link back", h)
		}
		mem := memOf(n.nodes[t.node])
		switch n.nodes[t.node].(type) {
		case *productionNode:
			must(n.insts.at(*t.inst()).live >= 0 && n.insts.at(*t.inst()).in != nil && t.child == 0, "production token %d has no instantiation, or a child", h)
			continue
		case *negativeNode:
			must(t.rec == 0, "token %d of a negative node is built on a WME", h)
			for j, prev := *t.blockers(), int32(0); j != 0; prev, j = j, n.result(j).onext {
				must(n.result(j).owner == h && n.result(j).oprev == prev, "join result %d of token %d is linked wrongly", j, h)
			}
		}
		must(t.bprev != 0 || heads(&mem.memory, mem, h), "token %d is not in the memory of node %d", h, t.node)
		must(t.bprev == 0 || n.tok(t.bprev).bnext == h, "token %d: the token before it in its memory does not link to it", h)
		must(t.bnext == 0 || n.tok(t.bnext).bprev == h, "token %d: the token after it in its memory does not link back", h)
	}
	insts := 0
	for id, nd := range n.nodes {
		if mem := memOf(nd); mem != nil {
			must(held[id] == int(mem.n), "the memory of node %d counts %d tokens, holds %d", id, mem.n, held[id])
		} else {
			insts += held[id]
		}
	}
	must(insts == int(n.insts.live), "%d production tokens, %d instantiations", insts, n.insts.live)
	for r := int32(1); r < n.recs.next; r++ {
		if rec := n.recs.at(r); rec.mems >= 0 {
			must(n.wmes[r] != nil && n.table.Get(n.wmes[r], n.wmes) == r, "record %d is not found by its WME", r)
			must(rec.mems != 0 && (rec.tokens == 0 || n.tok(rec.tokens).wprev == 0) && (rec.results == 0 || n.result(rec.results).wprev == 0), "record %d: a list does not start at its head", r)
		}
	}
	must(n.table.Len() == int(n.recs.live), "the WME table holds %d records of %d", n.table.Len(), n.recs.live)
	inChain := make([]int, len(n.chains))
	for h := int32(1); h < n.mships.next; h++ {
		if m := n.mships.at(h); m.rec >= 0 {
			inChain[m.chain]++
			n.rec(m.rec)
			must(m.of == 0 || n.mship(m.of).rec == m.rec, "membership %d links to another WME's", h)
			must(m.prev != 0 || heads(&n.chains[m.chain].memory, n.chains[m.chain], h), "membership %d is not in chain %d", h, m.chain)
			must(m.prev == 0 || n.mship(m.prev).next == h, "membership %d: the one before it does not link to it", h)
			must(m.next == 0 || n.mship(m.next).prev == h, "membership %d: the one after it does not link back", h)
		}
	}
	for _, c := range n.chains {
		must(inChain[c.id] == int(c.n), "alpha chain %d counts %d WMEs, holds %d", c.id, c.n, inChain[c.id])
	}
	for h := int32(1); h < n.results.next; h++ {
		if j := n.results.at(h); j.owner >= 0 {
			n.tok(j.owner)
			must(j.wprev != 0 || n.rec(j.rec).results == h, "join result %d is not on the list of its WME", h)
			must(j.wprev == 0 || n.result(j.wprev).wnext == h, "join result %d: the one before it on its WME's list does not link to it", h)
			must(j.wnext == 0 || n.result(j.wnext).wprev == h, "join result %d: the one after it on its WME's list does not link back", h)
			must(j.oprev != 0 || *n.tok(j.owner).blockers() == h, "join result %d is not on the list of its token", h)
			must(j.onext == 0 || n.result(j.onext).oprev == h, "join result %d: the one after it on its token's list does not link back", h)
		}
	}
	for name, free := range map[string][2]int{
		"tokens":         {n.tokens.freed(), max(int(n.tokens.next)-1, 0) - int(n.tokens.live)},
		"WME records":    {n.recs.freed(), max(int(n.recs.next)-1, 0) - int(n.recs.live)},
		"memberships":    {n.mships.freed(), max(int(n.mships.next)-1, 0) - int(n.mships.live)},
		"join results":   {n.results.freed(), max(int(n.results.next)-1, 0) - int(n.results.live)},
		"instantiations": {n.insts.freed(), max(int(n.insts.next)-1, 0) - int(n.insts.live)},
	} {
		must(free[0] == free[1], "%s: %d on the free list, %d handed out and not in use", name, free[0], free[1])
	}
	return nil
}

// freed counts the arena's free list, checking every record on it is
// stamped dead.
func (a *arena[T, P]) freed() (n int) {
	for h := a.free; h != 0; n++ {
		s := *P(a.at(h)).stamp()
		if s >= 0 {
			panic("a record on the free list is not stamped dead")
		}
		h = -1 - s
	}
	return n
}

// indexSlots sums the table sizes of every value index in the network.
func (n *Network) indexSlots() int {
	slots := 0
	for _, c := range n.chains {
		slots += c.idx.Slots()
	}
	for _, nd := range n.nodes {
		if mem := memOf(nd); mem != nil {
			slots += mem.idx.Slots()
		}
	}
	return slots
}

// TestFreshNetworkOwnsNoIndexTables guards the cost of an idle session and
// of a cold create: a network built for any builtin has allocated no index
// table and no WME table before its first WME, and of its arenas only the
// first small chunk of tokens, for its rules' dummy tokens.
func TestFreshNetworkOwnsNoIndexTables(t *testing.T) {
	for _, name := range programs.All() {
		prog, err := programs.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		n := NewWithOptions(prog.Rules, Options{Profile: true}).(*Network)
		if n.indexSlots() != 0 || n.recs.live != 0 || n.table.Bytes() != 0 {
			t.Errorf("%s: a fresh network of %d rules owns %d index slots, %d WME records and a table of %d bytes", name, len(prog.Rules), n.indexSlots(), n.recs.live, n.table.Bytes())
		}
		if b := n.MemStats().Bytes; b > 4<<10 || b != n.tokens.bytes() {
			t.Errorf("%s: a fresh network of %d rules holds %d bytes, %d of them tokens; budget 4 KiB, all tokens", name, len(prog.Rules), b, n.tokens.bytes())
		}
	}
}

// TestNetworkChurn keeps one network alive through 100k assert/retract
// rounds over a bounded live set whose join keys never repeat, beside two
// WMEs that stay — a long-lived ingest session. State sizes must return to
// the baseline, no WME record may outlive its WME, the index tables must
// stay the size the live set needs however many keys have passed through
// them, the arenas the size they reached in the first rounds — freed
// records are reused — the records of the two WMEs that stay must not
// collect the tokens and join results of everything that has passed by,
// and no live record may list a freed one.
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
	maxSlots, maxTokens, warmBytes := 0, 0, 0
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
		if i == 4*window {
			warmBytes = n.MemStats().Bytes
		}
		if i%1009 == 0 {
			if err := n.audit(); err != nil {
				t.Fatalf("round %d: %v", i, err)
			}
		}
	}
	if got := n.MemStats().Bytes; got > warmBytes {
		t.Fatalf("the network holds %d bytes after %d rounds, %d after %d: freed records are not reused", got, rounds, warmBytes, 4*window)
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
		r, listed, blocked := n.rec(n.table.Get(w, n.wmes)), 0, 0
		for h := r.tokens; h != 0; h = n.tok(h).wnext {
			listed++
		}
		for j := r.results; j != 0; j = n.result(j).wnext {
			blocked++
		}
		if listed > 4*window || blocked > 4*window {
			t.Fatalf("%v lists %d tokens and %d join results after %d rounds with %d items live", w, listed, blocked, rounds, window)
		}
	}
	for _, ws := range append(live, stay) {
		n.Apply(wm.Delta{Removed: ws})
	}
	if err := n.audit(); err != nil {
		t.Fatal(err)
	}
	// The token arena keeps the chunks it grew to; everything else is
	// given back with its last record.
	ms := n.MemStats()
	if ms.Bytes != n.tokens.bytes() || ms.Bytes > warmBytes {
		t.Fatalf("%d bytes held after retracting everything, %d of them tokens, %d while churning", ms.Bytes, n.tokens.bytes(), warmBytes)
	}
	if ms.Bytes = base.Bytes; ms != base {
		t.Fatalf("state after retracting everything %+v, baseline %+v", ms, base)
	}
	if n.recs.live != 0 || n.indexSlots() != 0 || n.wmes != nil || n.table.Bytes() != 0 {
		t.Fatalf("%d WME records and %d index slots outlive their WMEs", n.recs.live, n.indexSlots())
	}
}
