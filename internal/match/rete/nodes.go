// Package rete implements an incremental RETE match network in the style
// of Doorenbos ("Production Matching for Large Learning Systems", CMU,
// 1995): a constant-test alpha layer feeding alpha memories, and a beta
// layer of join nodes, beta memories and negative nodes per rule, ending in
// production nodes that maintain the conflict set.
//
// Join and negative nodes with at least one equality join test are
// hash-indexed (Doorenbos' "memory indexing"): the alpha memory keeps a
// per-field value index and the parent beta memory (or the negative node's
// own token memory) is bucketed by the corresponding token binding, so
// each activation probes one bucket instead of scanning the whole opposite
// memory. Nodes without an equality test keep the nested-loop path, and
// Options.DisableJoinIndex forces it everywhere, as the differential tests'
// reference.
//
// The network's state is records, not objects. Tokens, what the network
// knows about a WME (wmeRec), a WME's places in the alpha memories
// (membership) and negative join results (negResult) are structs of 32-bit
// integers in per-network arenas (arena.go), and refer to one another by
// handle; memories and index buckets are lists threaded through the
// records they hold. None of it contains a pointer, so the collector
// neither scans nor walks it, and a record costs the allocator nothing:
// freed ones are reused. Because a reused record must not be reachable
// through a handle to its previous life, a record that dies is unlinked
// at once from everything that lists it, and following a handle to a
// freed record panics. The only pointers are one []*wm.WME beside the WME
// records and the production nodes' instantiations (instRec). WMEs
// themselves are shared, read-only, with the engine and with any other
// matcher fed the same deltas; nothing is written to them.
//
// A Network is used by exactly one goroutine. The PARULEL engine builds
// one over all of a program's rules.
package rete

import (
	"slices"

	"parulel/internal/compile"
	"parulel/internal/match"
	"parulel/internal/valueindex"
	"parulel/internal/wm"
)

// token is a partial match: a chain of WMEs, one per positive CE joined so
// far, read by following parent and taking the WME of each token that has
// one. Tokens propagated by negative nodes add none (they assert the
// *absence* of a match).
type token struct {
	parent int32
	// child heads the list of this token's children, linked through next
	// and prev, so that adding a child and unhooking one are O(1) however
	// wide the fan-out.
	child, next, prev int32
	// rec is the record of the WME the token adds to its parent's match,
	// and wnext and wprev link the tokens built on that WME
	// (wmeRec.tokens). rec is zero for the dummy token and the tokens
	// negative nodes build, which are on no such list; a negative node's
	// own token keeps something else in wnext (blockers).
	rec, wnext, wprev int32
	// node is the id of the node whose memory holds the token.
	node int32
	// bnext and bprev are the token's neighbours in that memory: in its
	// list or, when the memory is indexed, in its bucket. A production
	// node keeps no list, and its token something else in bnext (inst).
	bnext, bprev int32
}

// blockers is, for a token held by a negative node, the head of the join
// results that block it, linked through onext and oprev; its children exist
// iff there are none.
func (t *token) blockers() *int32 { return &t.wnext }

// inst is, for a token held by a production node, the handle of its
// instantiation in Network.insts.
func (t *token) inst() *int32 { return &t.bnext }

// wmeRec is everything one network knows about one WME, found through
// Network.table once per WME addition and removal; Network.wmes holds the
// WME itself.
type wmeRec struct {
	// mems heads the WME's memberships, linked through of; tokens the
	// tokens whose last element it is, through wnext; results the join
	// results it causes, through wnext.
	mems, tokens, results int32
}

// membership is a WME's place in one chain of an alpha memory: the list
// of all its WMEs, or one field index's bucket.
type membership struct {
	rec        int32 // the WME's record
	of         int32 // the same WME's next membership
	chain      int32 // the chain, by its place in Network.chains
	next, prev int32 // neighbours in the chain
}

// negResult records that a WME matches, and so blocks, a negative node's
// token. It is on the token's list and on the WME's, and whichever of the
// two goes first takes it off the other's.
type negResult struct {
	owner, rec   int32
	onext, oprev int32
	wnext, wprev int32
}

func (t *token) stamp() *int32      { return &t.node }
func (r *wmeRec) stamp() *int32     { return &r.mems }
func (m *membership) stamp() *int32 { return &m.rec }
func (j *negResult) stamp() *int32  { return &j.owner }

func (n *Network) tok(h int32) *token {
	t := n.tokens.at(h)
	if t.node < 0 {
		panic(deadHandle)
	}
	return t
}

func (n *Network) rec(h int32) *wmeRec {
	r := n.recs.at(h)
	if r.mems < 0 {
		panic(deadHandle)
	}
	return r
}

func (n *Network) mship(h int32) *membership {
	m := n.mships.at(h)
	if m.rec < 0 {
		panic(deadHandle)
	}
	return m
}

func (n *Network) result(h int32) *negResult {
	j := n.results.at(h)
	if j.owner < 0 {
		panic(deadHandle)
	}
	return j
}

// wmeAt returns the WME of the token up parent links above h.
func (n *Network) wmeAt(h, up int32) *wm.WME {
	t := n.tok(h)
	for ; up > 0; up-- {
		t = n.tok(t.parent)
	}
	return n.wmes[t.rec]
}

// vector fills vec with the last len(vec) WMEs of h's match, in order.
func (n *Network) vector(vec []*wm.WME, h int32) {
	for i := len(vec) - 1; i >= 0; {
		t := n.tok(h)
		if t.rec != 0 {
			vec[i] = n.wmes[t.rec]
			i--
		}
		h = t.parent
	}
}

// newToken returns a child of token h, built on the WME of record r when
// that is not zero.
func (n *Network) newToken(h int32, t *token, r int32) (int32, *token) {
	nh, nt := n.tokens.alloc()
	nt.parent, nt.next, nt.rec = h, t.child, r
	if t.child != 0 {
		n.tok(t.child).prev = nh
	}
	t.child = nh
	if r != 0 {
		rec := n.rec(r)
		if nt.wnext = rec.tokens; rec.tokens != 0 {
			n.tok(rec.tokens).wprev = nh
		}
		rec.tokens = nh
	}
	return nh, nt
}

// memory lists records of one kind — the tokens of a beta memory or a
// negative node, the memberships of an alpha memory — in arrival order:
// in one chain or, when the node reading it equality-joins, in the buckets
// of a value index. Which is fixed when the network is built. The records
// carry the links, so removal looks nothing up.
type memory struct {
	all valueindex.Chain[int32]
	idx *valueindex.Index[int32] // made by an indexed memory's first record
	// net, field and up are for the memory's owner, which says what an
	// indexed memory's records are keyed by: field of a WME it knows how to
	// find, for a token up parent links above it.
	net       *Network
	n         int32
	field, up int32
	indexed   bool
}

// push appends h and returns the record it follows, or zero. o is the
// tokenMem or alphaChain the memory is part of.
func (m *memory) push(o valueindex.Keyer[int32], h int32) (prev int32) {
	m.n++
	if !m.indexed {
		return m.all.Push(h)
	}
	if m.idx == nil {
		m.idx = new(valueindex.Index[int32])
	}
	return m.idx.Add(o, h)
}

// drop takes out h, whose neighbours are prev and next.
func (m *memory) drop(o valueindex.Keyer[int32], h, prev, next int32) {
	m.n--
	if m.indexed {
		m.idx.Remove(o, h, prev, next)
	} else {
		m.all.Drop(prev, next)
	}
}

// tokenMem is the token store of a beta memory or negative node. When it
// is bucketed, by the token-side binding of an equality join test, the
// binding lies up parent links above the tokens it holds.
type tokenMem struct{ memory }

func (m *tokenMem) Key(h int32) wm.Value { return m.net.wmeAt(h, m.up).Fields[m.field] }

func (m *tokenMem) add(h int32, t *token) {
	if t.bprev = m.push(m, h); t.bprev != 0 {
		m.net.tok(t.bprev).bnext = h
	}
}

func (m *tokenMem) remove(h int32, t *token) {
	m.drop(m, h, t.bprev, t.bnext)
	if t.bprev != 0 {
		m.net.tok(t.bprev).bnext = t.bnext
	}
	if t.bnext != 0 {
		m.net.tok(t.bnext).bprev = t.bprev
	}
}

// memOf returns the token memory of a node that has one: a beta memory's
// or a negative node's.
func memOf(nd node) *tokenMem {
	switch nd := nd.(type) {
	case *betaMem:
		return &nd.mem
	case *negativeNode:
		return &nd.mem
	}
	return nil
}

// bucketBy makes m a memory bucketed by the token-side binding of jt.
func (m *tokenMem) bucketBy(jt *compile.JoinTest, up int32) {
	m.indexed, m.field, m.up = true, int32(jt.OtherField), up
}

// node is a beta-layer node that can receive tokens from above.
type node interface {
	// leftActivate receives a new token from the parent node.
	leftActivate(h int32, t *token)
	// removeToken removes a token from this node's memory (cascade
	// deletion has already handled its children).
	removeToken(h int32, t *token)
}

// rightNode additionally receives alpha-memory activations.
type rightNode interface {
	node
	rightAdd(r int32, w *wm.WME)
}

// alphaMem is an alpha memory: the set of WMEs passing one CE's constant
// and intra-element tests. Alpha memories are shared between structurally
// identical CEs of the network's rules.
type alphaMem struct {
	// rep is a representative CE carrying the alpha tests.
	rep   *compile.CondElem
	succs []rightNode
	// profs lists the rules with a node among succs, each once.
	profs []*ruleProf
	// list chains the memory's WMEs, and the rest of chains, which starts
	// with it, are one value index per field some attached node
	// equality-joins on: the subset of the WMEs whose field equals each
	// value. Registered at build time, maintained on every add/remove.
	list   alphaChain
	chains []*alphaChain
}

// alphaChain is one of an alpha memory's chains of memberships; a value
// index is over memory.field of the members' WMEs.
type alphaChain struct {
	memory
	am *alphaMem
	id int32 // the chain's place in Network.chains
}

func (c *alphaChain) Key(m int32) wm.Value { return c.net.wmes[c.net.mship(m).rec].Fields[c.field] }

// chain enters c among the memory's chains and the network's.
func (n *Network) chain(am *alphaMem, c *alphaChain) *alphaChain {
	c.net, c.am, c.id = n, am, int32(len(n.chains))
	n.chains = append(n.chains, c)
	am.chains = append(am.chains, c)
	return c
}

// indexField registers (or returns the existing) value index over field f.
// Indexes are registered while the network is built, before any WME.
func (n *Network) indexField(am *alphaMem, f int) *alphaChain {
	for _, c := range am.chains[1:] {
		if int(c.field) == f {
			return c
		}
	}
	c := &alphaChain{}
	c.indexed, c.field = true, int32(f)
	return n.chain(am, c)
}

// add appends the WME of record r to the memory and its indexes.
func (am *alphaMem) add(n *Network, r int32, rec *wmeRec) {
	for _, c := range am.chains {
		h, m := n.mships.alloc()
		m.rec, m.chain, m.of = r, c.id, rec.mems
		rec.mems = h
		if m.prev = c.push(c, h); m.prev != 0 {
			n.mship(m.prev).next = h
		}
	}
}

// betaMem stores tokens and forwards them to its child node.
type betaMem struct {
	net   *Network
	id    int32
	mem   tokenMem
	succs []node
	prof  *ruleProf
}

func (b *betaMem) leftActivate(h int32, t *token) {
	t.node = b.id
	b.mem.add(h, t)
	for _, s := range b.succs {
		s.leftActivate(h, t)
	}
}

func (b *betaMem) removeToken(h int32, t *token) {
	b.prof.lost++
	b.mem.remove(h, t)
}

// joiner is what a join node and a negative node share: the alpha memory
// on the right, the CE's variable-consistency tests, and the hash-join
// state. When the CE has an equality join test the node probes hash
// indexes on both memories instead of scanning them.
type joiner struct {
	net  *Network
	amem *alphaMem
	ce   *compile.CondElem
	// eqTest is the index within ce.JoinTests of the equality test the
	// hash indexes are built on, or -1 for the nested-loop path. When it is
	// set, the token memory is bucketed by the joined binding, alphaIdx is
	// the alpha memory's index over the tested field, and eqUp is how many
	// parent links lie between a token the node tests and the token built
	// on the WME that the test reads.
	eqTest   int32
	eqUp     int32
	alphaIdx *alphaChain
	// tested says the CE has other tests, or filters, and env holds what
	// they read: the vector of the token under test, which bind reads off
	// the token's chain from element lo on — the first any of them reads —
	// and after it the candidate WME. The vector never escapes EvalFilters.
	lo     int32
	tested bool
	env    compile.VecEnv
	prof   *ruleProf
}

// bind makes h the token that passes tests candidates against.
func (j *joiner) bind(h int32) {
	if j.tested {
		if j.env.Vec == nil {
			j.env.Vec = make([]*wm.WME, j.ce.BetaLevel+1)
		}
		j.net.vector(j.env.Vec[int(j.lo):j.ce.BetaLevel], h)
	}
}

// passes applies the CE's join tests and filters to the bound token and a
// candidate WME. The equality test the hash indexes are built on (eqTest)
// is skipped: both activation paths reach passes only through an index
// probe on exactly that test's value, and the index's key equality is
// OpEq's.
func (j *joiner) passes(w *wm.WME) bool {
	j.prof.probes++
	if !j.tested {
		return true
	}
	vec := j.env.Vec
	for i := range j.ce.JoinTests {
		if i == int(j.eqTest) {
			continue
		}
		jt := &j.ce.JoinTests[i]
		if !jt.Op.Apply(w.Fields[jt.Field], vec[jt.OtherCE].Fields[jt.OtherField]) {
			return false
		}
	}
	if len(j.ce.Filters) > 0 {
		vec[j.ce.BetaLevel] = w
		return match.EvalFilters(j.ce, &j.env)
	}
	return true
}

// right returns the first membership of the WMEs token h can join with.
func (j *joiner) right(h int32) int32 {
	if j.eqTest < 0 {
		return j.amem.list.all.Head
	}
	jt := &j.ce.JoinTests[j.eqTest]
	return j.alphaIdx.idx.Get(j.alphaIdx, j.net.wmeAt(h, j.eqUp).Fields[jt.OtherField])
}

// left returns the first of mem's tokens that WME w can join with.
func (j *joiner) left(mem *tokenMem, w *wm.WME) int32 {
	if j.eqTest < 0 {
		return mem.all.Head
	}
	return mem.idx.Get(mem, w.Fields[j.ce.JoinTests[j.eqTest].Field])
}

// joinNode joins tokens from its parent beta memory with WMEs from its
// alpha memory, applying the CE's tests and any attached filter
// expressions.
type joinNode struct {
	joiner
	parent *betaMem
	child  node // betaMem or productionNode
}

func (j *joinNode) propagate(h int32, t *token, r int32) {
	j.prof.tokens++
	j.child.leftActivate(j.net.newToken(h, t, r))
}

func (j *joinNode) leftActivate(h int32, t *token) {
	j.bind(h)
	for m := j.right(h); m != 0; {
		mm := j.net.mship(m)
		if j.passes(j.net.wmes[mm.rec]) {
			j.propagate(h, t, mm.rec)
		}
		m = mm.next
	}
}

func (j *joinNode) removeToken(int32, *token) {
	// Join nodes hold no memory; nothing to do. (Tokens are held by beta
	// memories, negative nodes and production nodes.)
}

func (j *joinNode) rightAdd(r int32, w *wm.WME) {
	for h := j.left(&j.parent.mem, w); h != 0; {
		t := j.net.tok(h)
		if j.bind(h); j.passes(w) {
			j.propagate(h, t, r)
		}
		h = t.bnext
	}
}

// negativeNode implements negated condition elements. It stores the tokens
// flowing through it; a token's children exist exactly while no WME in the
// alpha memory matches it. Join results are tracked per (token, wme) pair,
// on the token and on the WME's record. Like join nodes, a negative node
// with an equality join test probes a value index over the alpha memory
// and keeps its own tokens bucketed by the joined binding.
type negativeNode struct {
	joiner
	id    int32
	mem   tokenMem
	child node
}

// block records that the WME of record r matches the node's token h.
func (n *negativeNode) block(h int32, t *token, r int32) {
	rec := n.net.rec(r)
	jh, j := n.net.results.alloc()
	j.owner, j.rec, j.onext, j.wnext = h, r, *t.blockers(), rec.results
	if j.onext != 0 {
		n.net.result(j.onext).oprev = jh
	}
	if j.wnext != 0 {
		n.net.result(j.wnext).wprev = jh
	}
	*t.blockers(), rec.results = jh, jh
}

func (n *negativeNode) propagate(h int32, t *token) {
	n.child.leftActivate(n.net.newToken(h, t, 0))
}

func (n *negativeNode) leftActivate(h int32, t *token) {
	// Create this node's own token rather than adopting the incoming one:
	// the incoming token is owned by a beta memory, and a token must live
	// in exactly one node's memory for deletion to be complete.
	n.prof.tokens++
	nh, nt := n.net.newToken(h, t, 0)
	nt.node = n.id
	n.mem.add(nh, nt)
	n.bind(nh)
	for m := n.right(nh); m != 0; {
		mm := n.net.mship(m)
		if n.passes(n.net.wmes[mm.rec]) {
			n.block(nh, nt, mm.rec)
		}
		m = mm.next
	}
	if *nt.blockers() == 0 {
		n.propagate(nh, nt)
	}
}

// removeToken also takes the token's join results off the records of the
// WMEs that block it.
func (n *negativeNode) removeToken(h int32, t *token) {
	n.prof.lost++
	n.mem.remove(h, t)
	for jh := *t.blockers(); jh != 0; {
		j := n.net.result(jh)
		if j.wprev != 0 {
			n.net.result(j.wprev).wnext = j.wnext
		} else {
			n.net.rec(j.rec).results = j.wnext
		}
		if j.wnext != 0 {
			n.net.result(j.wnext).wprev = j.wprev
		}
		next := j.onext
		n.net.results.release(jh)
		jh = next
	}
}

func (n *negativeNode) rightAdd(r int32, w *wm.WME) {
	for h := n.left(&n.mem, w); h != 0; {
		t := n.net.tok(h)
		if n.bind(h); n.passes(w) {
			if *t.blockers() == 0 {
				// Absence no longer holds: retract descendants.
				n.net.deleteDescendants(t)
			}
			n.block(h, t, r)
		}
		h = t.bnext
	}
}

// productionNode terminates a rule's chain and turns the tokens that
// reach it into instantiations; the network's conflict set is
// Network.insts, over all its production nodes.
type productionNode struct {
	net  *Network
	id   int32
	rule *compile.Rule
	prof *ruleProf
}

// instRec holds the instantiation of a production node's token: the one
// record with a pointer, in the one arena the collector scans.
type instRec struct {
	in   *match.Instantiation
	live int32
}

func (r *instRec) stamp() *int32 { return &r.live }

func (p *productionNode) leftActivate(h int32, t *token) {
	p.prof.insts++
	// The match is read off its token chain for NewInstantiation to copy.
	vec := slices.Grow(p.net.vec[:0], p.rule.NumPositive)[:p.rule.NumPositive]
	p.net.vec = vec
	p.net.vector(vec, h)
	ih, ir := p.net.insts.alloc()
	ir.in = match.NewInstantiation(p.rule, vec)
	t.node, *t.inst() = p.id, ih
	p.net.coll.Add(ir.in)
}

func (p *productionNode) removeToken(h int32, t *token) {
	p.prof.lost++
	ir := p.net.insts.at(*t.inst())
	p.net.coll.Remove(ir.in)
	ir.in = nil
	p.net.insts.release(*t.inst())
}
