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
// The memories use no Go maps. Membership is intrusive: a token records
// its position in the one memory that holds it, and everything the network
// knows about a WME — the alpha memories holding it and where, the tokens
// built on it, the negative join results it causes — hangs off one
// network-private record (wmeRec) that alpha memories and their indexes
// hold in place of the *wm.WME. WMEs themselves are shared, read-only,
// between the networks of different workers; nothing is written to them.
//
// Each Network instance owns a partition of rules and is used by exactly
// one goroutine; the PARULEL engine achieves match parallelism by running
// one Network per worker over disjoint rule partitions (production-level
// parallelism).
package rete

import (
	"slices"

	"parulel/internal/compile"
	"parulel/internal/match"
	"parulel/internal/valueindex"
	"parulel/internal/wm"
)

// token is a partial match: a chain of WMEs, one per positive CE joined so
// far. Tokens propagated by negative nodes add no element to the vector
// (they assert the *absence* of a match).
type token struct {
	parent *token
	wnext  *token // next token built on the same WME (wmeRec.tokens)
	owner  node   // the node whose memory holds this token
	// child heads the list of this token's children, linked through next
	// and prev, so that adding a child and unhooking one are O(1) and
	// allocate nothing however wide the fan-out.
	child, next, prev *token
	// vec is the positive-CE WME vector accumulated so far. buf backs it
	// for the short vectors nearly every rule has, making a token one
	// allocation.
	vec []*wm.WME
	buf [4]*wm.WME
	// inst, for tokens held by a production node, is the token's
	// instantiation.
	inst *match.Instantiation
	// slot is the token's position in its owner's memory: in the list, or
	// in its bucket when the memory is indexed. It is deadSlot once the
	// token is deleted, so stale entries in the per-WME lists are skipped
	// when consumed.
	slot int32
	// nresults, for tokens held in a negative node's memory, counts WMEs
	// currently matching the negated pattern; the token's children exist
	// iff nresults == 0.
	nresults int32
}

const deadSlot = -1

func (t *token) dead() bool { return t.slot == deadSlot }

func (t *token) KeyAt(ce, field int) wm.Value { return t.vec[ce].Fields[field] }

func (t *token) addChild(c *token) {
	c.next = t.child
	if t.child != nil {
		t.child.prev = c
	}
	t.child = c
}

func (t *token) dropChild(c *token) {
	if c.prev != nil {
		c.prev.next = c.next
	} else {
		t.child = c.next
	}
	if c.next != nil {
		c.next.prev = c.prev
	}
	c.next, c.prev = nil, nil
}

// tokenMem is the token store of a beta memory, negative node or
// production node: a dense list, or — when the node reading it
// equality-joins — the buckets of a value index and nothing else. Which
// is fixed when the network is built. Either way token.slot is the
// token's position, so removal looks nothing up.
type tokenMem struct {
	list    []*token
	idx     valueindex.Index[*token]
	indexed bool
}

// bucketedBy returns an empty memory bucketed by the token-side binding of
// an equality join test.
func bucketedBy(jt *compile.JoinTest) tokenMem {
	return tokenMem{indexed: true, idx: valueindex.Index[*token]{CE: jt.OtherCE, Field: jt.OtherField}}
}

func (m *tokenMem) len() int {
	if m.indexed {
		return m.idx.Len()
	}
	return len(m.list)
}

func (m *tokenMem) add(t *token) {
	if m.indexed {
		t.slot = int32(m.idx.Add(t))
		return
	}
	t.slot = int32(len(m.list))
	m.list = append(m.list, t)
}

func (m *tokenMem) remove(t *token) {
	if m.indexed {
		if moved, ok := m.idx.Remove(t, int(t.slot)); ok {
			moved.slot = t.slot
		}
		return
	}
	last := len(m.list) - 1
	moved := m.list[last]
	m.list[t.slot] = moved
	moved.slot = t.slot
	m.list[last] = nil
	m.list = m.list[:last]
}

// wmeRec is everything one network knows about one WME. WMEs are shared
// between the networks of different workers and never written to, so each
// network keeps its own record, found through Network.recs once per WME
// addition and removal; alpha memories and tokens reach it by pointer.
type wmeRec struct {
	wme *wm.WME
	// mems lists the alpha memories holding the WME and where.
	mems []membership
	// tokens heads the list, through token.wnext, of the tokens whose last
	// element is this WME, and neg lists the negative-node tokens the WME
	// blocks. A token deleted from above stays on both until the WME goes
	// or, so that a long-lived WME joined with short-lived ones does not
	// collect them for ever, until the dead outnumber the living: ntokens
	// counts the list and is checked against sweepAt, neg is swept when
	// it would have to grow.
	tokens           *token
	neg              []negJoinResult
	ntokens, sweepAt int32
	// memBuf and posBuf back mems and its positions for a WME in a couple
	// of alpha memories, which nearly every WME is, making a record one
	// allocation.
	memBuf [2]membership
	posBuf [4]int32
}

func (r *wmeRec) KeyAt(_, field int) wm.Value { return r.wme.Fields[field] }

// addToken puts t, just built on r's WME, on its token list.
func (r *wmeRec) addToken(t *token) {
	if r.ntokens >= r.sweepAt {
		r.ntokens = 0
		for p := &r.tokens; *p != nil; {
			if (*p).dead() {
				*p = (*p).wnext
			} else {
				r.ntokens++
				p = &(*p).wnext
			}
		}
		r.sweepAt = 2*r.ntokens + 8
	}
	t.wnext = r.tokens
	r.tokens = t
	r.ntokens++
}

// addNeg records that r's WME blocks the negative node's token t.
func (r *wmeRec) addNeg(t *token, n *negativeNode) {
	if len(r.neg) == cap(r.neg) {
		live := r.neg[:0]
		for _, jr := range r.neg {
			if !jr.owner.dead() {
				live = append(live, jr)
			}
		}
		clear(r.neg[len(live):])
		if r.neg = live; 2*len(live) > cap(live) {
			r.neg = slices.Grow(live, cap(live))
		}
	}
	r.neg = append(r.neg, negJoinResult{owner: t, node: n})
}

// membership is a WME's place in one alpha memory: pos[0] is its position
// in the memory's list, pos[1+k] its position in its bucket of the
// memory's k-th field index.
type membership struct {
	am  *alphaMem
	pos []int32
}

// in returns r's membership of am.
func (r *wmeRec) in(am *alphaMem) *membership {
	for i := range r.mems {
		if r.mems[i].am == am {
			return &r.mems[i]
		}
	}
	panic("rete: WME record is not in the alpha memory")
}

// negJoinResult records that a WME matches a negative node's token.
type negJoinResult struct {
	owner *token
	node  *negativeNode
}

// node is a beta-layer node that can receive tokens from above.
type node interface {
	// leftActivate receives a new token from the parent node.
	leftActivate(t *token)
	// removeToken removes a token from this node's memory (cascade
	// deletion has already handled its children).
	removeToken(t *token)
}

// rightNode additionally receives alpha-memory activations.
type rightNode interface {
	node
	rightAdd(r *wmeRec)
}

// alphaMem is an alpha memory: the set of WMEs passing one CE's constant
// and intra-element tests. Alpha memories are shared between structurally
// identical CEs of the partition's rules.
type alphaMem struct {
	// rep is a representative CE carrying the alpha tests.
	rep   *compile.CondElem
	wmes  []*wmeRec
	succs []rightNode
	// profs lists the rules with a node among succs, each once.
	profs []*ruleProf
	// byField holds one value index per field some attached node
	// equality-joins on: the subset of wmes whose field equals each value.
	// Registered at build time, maintained on every add/remove.
	byField []*valueindex.Index[*wmeRec]
}

// indexField registers (or returns the existing) value index over field f.
// Indexes are registered while the network is built, before any WME.
func (am *alphaMem) indexField(f int) *valueindex.Index[*wmeRec] {
	for _, ix := range am.byField {
		if ix.Field == f {
			return ix
		}
	}
	ix := &valueindex.Index[*wmeRec]{Field: f}
	am.byField = append(am.byField, ix)
	return ix
}

// add appends r to the memory and its indexes, recording the positions in
// m, r's membership of this memory.
func (am *alphaMem) add(r *wmeRec, m *membership) {
	m.pos[0] = int32(len(am.wmes))
	am.wmes = append(am.wmes, r)
	for k, ix := range am.byField {
		m.pos[1+k] = int32(ix.Add(r))
	}
}

func (am *alphaMem) remove(r *wmeRec, m *membership) {
	last := len(am.wmes) - 1
	moved := am.wmes[last]
	am.wmes[m.pos[0]] = moved
	moved.in(am).pos[0] = m.pos[0]
	am.wmes[last] = nil
	am.wmes = am.wmes[:last]
	for k, ix := range am.byField {
		if moved, ok := ix.Remove(r, int(m.pos[1+k])); ok {
			moved.in(am).pos[1+k] = m.pos[1+k]
		}
	}
}

// betaMem stores tokens and forwards them to its child node.
type betaMem struct {
	net   *Network
	mem   tokenMem
	succs []node
	prof  *ruleProf
}

func (b *betaMem) leftActivate(t *token) {
	t.owner = b
	b.mem.add(t)
	for _, s := range b.succs {
		s.leftActivate(t)
	}
}

func (b *betaMem) removeToken(t *token) {
	b.prof.lost++
	b.mem.remove(t)
}

// joinNode joins tokens from its parent beta memory with WMEs from its
// alpha memory, applying the CE's variable-consistency tests and any
// attached filter expressions. When the CE has an equality join test the
// node probes hash indexes on both memories instead of scanning them.
type joinNode struct {
	net    *Network
	parent *betaMem
	amem   *alphaMem
	ce     *compile.CondElem
	child  node // betaMem, negativeNode or productionNode
	// eqTest is the index within ce.JoinTests of the equality test the
	// hash indexes are built on, or -1 for the nested-loop path. When it is
	// set, the parent memory is bucketed by the joined binding and
	// alphaIdx is the alpha memory's index over the tested field.
	eqTest   int
	alphaIdx *valueindex.Index[*wmeRec]
	// env is the reused filter-evaluation environment; its vector never
	// escapes EvalFilters.
	env  compile.VecEnv
	prof *ruleProf
}

// passes applies the CE's join tests and filters to a candidate pair. The
// equality test the hash indexes are built on (eqTest) is skipped: both
// activation paths reach passes only through an index probe on exactly
// that test's value, and the index's key equality is OpEq's.
func (j *joinNode) passes(t *token, w *wm.WME) bool {
	j.prof.probes++
	for i, jt := range j.ce.JoinTests {
		if i == j.eqTest {
			continue
		}
		if !jt.Op.Apply(w.Fields[jt.Field], t.vec[jt.OtherCE].Fields[jt.OtherField]) {
			return false
		}
	}
	if len(j.ce.Filters) > 0 {
		// Filters need the vector including this WME; reuse the node's
		// buffer rather than allocating per candidate.
		j.env.Vec = append(append(j.env.Vec[:0], t.vec...), w)
		return match.EvalFilters(j.ce, &j.env)
	}
	return true
}

func (j *joinNode) propagate(t *token, r *wmeRec) {
	j.prof.tokens++
	nt := &token{parent: t}
	nt.vec = append(append(nt.buf[:0], t.vec...), r.wme)
	t.addChild(nt)
	r.addToken(nt)
	j.child.leftActivate(nt)
}

func (j *joinNode) leftActivate(t *token) {
	cands := j.amem.wmes
	if j.eqTest >= 0 {
		jt := &j.ce.JoinTests[j.eqTest]
		cands = j.alphaIdx.Get(t.vec[jt.OtherCE].Fields[jt.OtherField])
	}
	for _, r := range cands {
		if j.passes(t, r.wme) {
			j.propagate(t, r)
		}
	}
}

func (j *joinNode) removeToken(*token) {
	// Join nodes hold no memory; nothing to do. (Tokens are held by beta
	// memories, negative nodes and production nodes.)
}

func (j *joinNode) rightAdd(r *wmeRec) {
	cands := j.parent.mem.list
	if j.eqTest >= 0 {
		cands = j.parent.mem.idx.Get(r.wme.Fields[j.ce.JoinTests[j.eqTest].Field])
	}
	for _, t := range cands {
		if j.passes(t, r.wme) {
			j.propagate(t, r)
		}
	}
}

// negativeNode implements negated condition elements. It stores the tokens
// flowing through it; a token's children exist exactly while no WME in the
// alpha memory matches it. Join results are tracked per (token, wme) pair
// on the WME's record. Like join nodes, a negative node with an equality
// join test probes a value index over the alpha memory and keeps its own
// tokens bucketed by the joined binding.
type negativeNode struct {
	net   *Network
	amem  *alphaMem
	ce    *compile.CondElem
	mem   tokenMem
	child node
	// eqTest / alphaIdx mirror joinNode's hash-join state.
	eqTest   int
	alphaIdx *valueindex.Index[*wmeRec]
	prof     *ruleProf
}

// passes applies the negated CE's join tests, skipping the indexed
// equality test (see joinNode.passes).
func (n *negativeNode) passes(t *token, w *wm.WME) bool {
	n.prof.probes++
	for i, jt := range n.ce.JoinTests {
		if i == n.eqTest {
			continue
		}
		if !jt.Op.Apply(w.Fields[jt.Field], t.vec[jt.OtherCE].Fields[jt.OtherField]) {
			return false
		}
	}
	return true
}

func (n *negativeNode) propagate(t *token) {
	nt := &token{parent: t, vec: t.vec}
	t.addChild(nt)
	n.child.leftActivate(nt)
}

func (n *negativeNode) leftActivate(t *token) {
	// Create this node's own token rather than adopting the incoming one:
	// the incoming token may already be owned by a beta memory, and a
	// token must live in exactly one node's memory for deletion to be
	// complete.
	n.prof.tokens++
	nt := &token{parent: t, vec: t.vec, owner: n}
	t.addChild(nt)
	n.mem.add(nt)
	cands := n.amem.wmes
	if n.eqTest >= 0 {
		jt := &n.ce.JoinTests[n.eqTest]
		cands = n.alphaIdx.Get(nt.vec[jt.OtherCE].Fields[jt.OtherField])
	}
	for _, r := range cands {
		if n.passes(nt, r.wme) {
			nt.nresults++
			r.addNeg(nt, n)
		}
	}
	if nt.nresults == 0 {
		n.propagate(nt)
	}
}

func (n *negativeNode) removeToken(t *token) {
	n.prof.lost++
	n.mem.remove(t)
	// This token's join results stay on the WMEs' records; they are
	// skipped when consumed (Network.removeWME) or swept (wmeRec.addNeg).
}

func (n *negativeNode) rightAdd(r *wmeRec) {
	cands := n.mem.list
	if n.eqTest >= 0 {
		cands = n.mem.idx.Get(r.wme.Fields[n.ce.JoinTests[n.eqTest].Field])
	}
	for _, t := range cands {
		if !n.passes(t, r.wme) {
			continue
		}
		if t.nresults == 0 {
			// Absence no longer holds: retract descendants.
			n.net.deleteDescendants(t)
		}
		t.nresults++
		r.addNeg(t, n)
	}
}

// productionNode terminates a rule's chain and maintains its
// instantiations; the network's conflict set is the union over its
// production nodes.
type productionNode struct {
	net  *Network
	rule *compile.Rule
	// mem lists the complete matches; each carries its instantiation.
	mem  tokenMem
	prof *ruleProf
}

func (p *productionNode) leftActivate(t *token) {
	p.prof.insts++
	t.owner = p
	t.inst = match.NewInstantiation(p.rule, t.vec)
	p.mem.add(t)
	p.net.coll.Add(t.inst)
}

func (p *productionNode) removeToken(t *token) {
	p.prof.lost++
	p.mem.remove(t)
	p.net.coll.Remove(t.inst)
}
