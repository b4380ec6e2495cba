// Package rete implements an incremental RETE match network in the style
// of Doorenbos ("Production Matching for Large Learning Systems", CMU,
// 1995): a constant-test alpha layer feeding alpha memories, and a beta
// layer of join nodes, beta memories and negative nodes per rule, ending in
// production nodes that maintain the conflict set.
//
// Join and negative nodes with at least one equality join test are
// hash-indexed (Doorenbos' "memory indexing"): the alpha memory keeps a
// per-field value index and the parent beta memory (or the negative node's
// own token memory) an index on the corresponding token binding, so each
// activation probes one bucket instead of scanning the whole opposite
// memory. Nodes without an equality test keep the nested-loop path, and
// Options.DisableJoinIndex forces it everywhere for ablation measurements.
//
// Each Network instance owns a partition of rules and is used by exactly
// one goroutine; the PARULEL engine achieves match parallelism by running
// one Network per worker over disjoint rule partitions (production-level
// parallelism).
package rete

import (
	"parulel/internal/compile"
	"parulel/internal/match"
	"parulel/internal/wm"
)

// token is a partial match: a chain of WMEs, one per positive CE joined so
// far. Tokens propagated by negative nodes carry a nil wme (they assert
// the *absence* of a match and add no element to the vector).
type token struct {
	parent *token
	wme    *wm.WME // nil for the dummy top token and for negative-node children
	wnext  *token  // next token built on wme (Network.wmeTokens)
	owner  node    // the node whose memory holds this token
	// child heads the list of this token's children, linked through next
	// and prev, so that adding a child and unhooking one are O(1) and
	// allocate nothing however wide the fan-out.
	child, next, prev *token
	// vec is the positive-CE WME vector accumulated so far. buf backs it
	// for the short vectors nearly every rule has, making a token one
	// allocation.
	vec []*wm.WME
	buf [4]*wm.WME
	// nresults, for tokens held in a negative node's memory, counts WMEs
	// currently matching the negated pattern; the token's children exist
	// iff nresults == 0.
	nresults int
	// inst and slot, for tokens held by a production node, are the
	// token's instantiation and its position in the node's token list.
	inst *match.Instantiation
	slot int
	// dead marks tokens already deleted, so stale entries in the per-WME
	// indexes are skipped when consumed.
	dead bool
}

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

// node is a beta-layer node that can receive tokens from above and WME
// (right) activations from an alpha memory.
type node interface {
	// leftActivate receives a new token from the parent node.
	leftActivate(t *token)
	// removeToken removes a token from this node's memory (cascade
	// deletion has already handled its children).
	removeToken(t *token)
	// profOf returns the owning rule's profile. Beta-layer nodes are
	// private to one rule's chain, so the mapping is total.
	profOf() *ruleProf
}

// rightNode additionally receives alpha-memory activations.
type rightNode interface {
	node
	rightAdd(w *wm.WME)
	rightRemove(w *wm.WME)
}

// alphaMem is an alpha memory: the set of WMEs passing one CE's constant
// and intra-element tests. Alpha memories are shared between structurally
// identical CEs of the partition's rules.
type alphaMem struct {
	// rep is a representative CE carrying the alpha tests.
	rep   *compile.CondElem
	wmes  set[*wm.WME]
	succs []rightNode
	// byField holds one value index per field some attached node
	// equality-joins on: the subset of wmes whose field equals each value.
	// Registered at build time, maintained on every add/remove.
	byField []alphaIndex
}

type alphaIndex struct {
	field int
	idx   valueIndex[*wm.WME]
}

// indexField registers (or returns the existing) value index over field f,
// backfilling it from the current memory contents.
func (am *alphaMem) indexField(f int) valueIndex[*wm.WME] {
	for _, ai := range am.byField {
		if ai.field == f {
			return ai.idx
		}
	}
	idx := make(valueIndex[*wm.WME])
	for _, w := range am.wmes.all() {
		idx.add(w.Fields[f], w)
	}
	am.byField = append(am.byField, alphaIndex{field: f, idx: idx})
	return idx
}

func (am *alphaMem) add(w *wm.WME) {
	am.wmes.add(w)
	for _, ai := range am.byField {
		ai.idx.add(w.Fields[ai.field], w)
	}
}

func (am *alphaMem) remove(w *wm.WME) {
	am.wmes.remove(w)
	for _, ai := range am.byField {
		ai.idx.remove(w.Fields[ai.field], w)
	}
}

// betaMem stores tokens and forwards them to its child nodes.
type betaMem struct {
	net    *Network
	tokens set[*token]
	succs  []node
	// byVal holds one value index per (ce, field) binding some successor
	// join node equality-tests against.
	byVal []betaIndex
	prof  *ruleProf
}

// betaIndex indexes a beta memory's tokens by the binding at (positive
// CE, field) of each token's vector.
type betaIndex struct {
	ce, field int
	idx       valueIndex[*token]
}

func (b *betaMem) profOf() *ruleProf { return b.prof }

// indexOn registers (or returns the existing) token index on the binding
// at (ce, field), backfilling from current contents.
func (b *betaMem) indexOn(ce, field int) valueIndex[*token] {
	for _, bi := range b.byVal {
		if bi.ce == ce && bi.field == field {
			return bi.idx
		}
	}
	idx := make(valueIndex[*token])
	for _, t := range b.tokens.all() {
		idx.add(t.vec[ce].Fields[field], t)
	}
	b.byVal = append(b.byVal, betaIndex{ce: ce, field: field, idx: idx})
	return idx
}

func (b *betaMem) leftActivate(t *token) {
	t.owner = b
	b.tokens.add(t)
	for _, bi := range b.byVal {
		bi.idx.add(t.vec[bi.ce].Fields[bi.field], t)
	}
	for _, s := range b.succs {
		s.leftActivate(t)
	}
}

func (b *betaMem) removeToken(t *token) {
	b.tokens.remove(t)
	for _, bi := range b.byVal {
		bi.idx.remove(t.vec[bi.ce].Fields[bi.field], t)
	}
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
	// hash indexes are built on, or -1 for the nested-loop path.
	eqTest int
	// alphaIdx / betaIdx are the probe indexes when eqTest >= 0: the alpha
	// memory's WMEs by the tested field, and the parent beta memory's
	// tokens by the joined binding.
	alphaIdx valueIndex[*wm.WME]
	betaIdx  valueIndex[*token]
	// env is the reused filter-evaluation environment; its vector never
	// escapes EvalFilters.
	env  compile.VecEnv
	prof *ruleProf
}

func (j *joinNode) profOf() *ruleProf { return j.prof }

// passes applies the CE's join tests and filters to a candidate pair. The
// equality test the hash indexes are built on (eqTest) is skipped: both
// activation paths reach passes only through an index probe on exactly
// that test's value, and map-key equality coincides with OpEq.
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
		return match.EvalFilters(j.ce, &j.env, j.net.opts.EvalMode)
	}
	return true
}

func (j *joinNode) propagate(t *token, w *wm.WME) {
	j.prof.tokens++
	nt := &token{parent: t, wme: w, wnext: j.net.wmeTokens[w]}
	nt.vec = append(append(nt.buf[:0], t.vec...), w)
	t.addChild(nt)
	j.net.wmeTokens[w] = nt
	j.child.leftActivate(nt)
}

func (j *joinNode) leftActivate(t *token) {
	if j.eqTest >= 0 {
		jt := &j.ce.JoinTests[j.eqTest]
		for _, w := range j.alphaIdx[t.vec[jt.OtherCE].Fields[jt.OtherField]].all() {
			if j.passes(t, w) {
				j.propagate(t, w)
			}
		}
		return
	}
	for _, w := range j.amem.wmes.all() {
		if j.passes(t, w) {
			j.propagate(t, w)
		}
	}
}

func (j *joinNode) removeToken(*token) {
	// Join nodes hold no memory; nothing to do. (Tokens are held by beta
	// memories, negative nodes and production nodes.)
}

func (j *joinNode) rightAdd(w *wm.WME) {
	if j.eqTest >= 0 {
		jt := &j.ce.JoinTests[j.eqTest]
		for _, t := range j.betaIdx[w.Fields[jt.Field]].all() {
			if j.passes(t, w) {
				j.propagate(t, w)
			}
		}
		return
	}
	for _, t := range j.parent.tokens.all() {
		if j.passes(t, w) {
			j.propagate(t, w)
		}
	}
}

func (j *joinNode) rightRemove(*wm.WME) {
	// Token deletion is driven by the network's wmeTokens index; join
	// nodes need no right-removal work of their own.
}

// negativeNode implements negated condition elements. It stores the tokens
// flowing through it; a token's children exist exactly while no WME in the
// alpha memory matches it. Join results are tracked per (token, wme) pair
// via the network's wmeNegResults index. Like join nodes, a negative node
// with an equality join test probes a value index over the alpha memory
// and keeps its own tokens indexed by the joined binding.
type negativeNode struct {
	net    *Network
	amem   *alphaMem
	ce     *compile.CondElem
	tokens set[*token]
	child  node
	// eqTest / alphaIdx mirror joinNode's hash-join state; tokensByVal
	// indexes this node's own token memory by the joined binding.
	eqTest      int
	alphaIdx    valueIndex[*wm.WME]
	tokensByVal valueIndex[*token]
	prof        *ruleProf
}

func (n *negativeNode) profOf() *ruleProf { return n.prof }

type negJoinResult struct {
	owner *token
	wme   *wm.WME
	node  *negativeNode
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
	nt := &token{parent: t, wme: nil, vec: t.vec}
	t.addChild(nt)
	n.child.leftActivate(nt)
}

// probeValue is the token-side binding of the indexed equality test.
func (n *negativeNode) probeValue(t *token) wm.Value {
	jt := &n.ce.JoinTests[n.eqTest]
	return t.vec[jt.OtherCE].Fields[jt.OtherField]
}

func (n *negativeNode) leftActivate(t *token) {
	// Create this node's own token rather than adopting the incoming one:
	// the incoming token may already be owned by a beta memory, and a
	// token must live in exactly one node's memory for deletion to be
	// complete.
	n.prof.tokens++
	nt := &token{parent: t, vec: t.vec, owner: n}
	t.addChild(nt)
	n.tokens.add(nt)
	if n.eqTest >= 0 {
		v := n.probeValue(nt)
		n.tokensByVal.add(v, nt)
		for _, w := range n.alphaIdx[v].all() {
			if n.passes(nt, w) {
				nt.nresults++
				jr := &negJoinResult{owner: nt, wme: w, node: n}
				n.net.wmeNegResults[w] = append(n.net.wmeNegResults[w], jr)
			}
		}
	} else {
		for _, w := range n.amem.wmes.all() {
			if n.passes(nt, w) {
				nt.nresults++
				jr := &negJoinResult{owner: nt, wme: w, node: n}
				n.net.wmeNegResults[w] = append(n.net.wmeNegResults[w], jr)
			}
		}
	}
	if nt.nresults == 0 {
		n.propagate(nt)
	}
}

func (n *negativeNode) removeToken(t *token) {
	n.tokens.remove(t)
	if n.eqTest >= 0 {
		n.tokensByVal.remove(n.probeValue(t), t)
	}
	// This token's join results stay in the per-WME index; they are
	// filtered out via the dead flag when consumed (Network.removeWME).
}

func (n *negativeNode) blockToken(t *token, w *wm.WME) {
	if t.nresults == 0 {
		// Absence no longer holds: retract descendants.
		n.net.deleteDescendants(t)
	}
	t.nresults++
	jr := &negJoinResult{owner: t, wme: w, node: n}
	n.net.wmeNegResults[w] = append(n.net.wmeNegResults[w], jr)
}

func (n *negativeNode) rightAdd(w *wm.WME) {
	if n.eqTest >= 0 {
		jt := &n.ce.JoinTests[n.eqTest]
		for _, t := range n.tokensByVal[w.Fields[jt.Field]].all() {
			if n.passes(t, w) {
				n.blockToken(t, w)
			}
		}
		return
	}
	for _, t := range n.tokens.all() {
		if n.passes(t, w) {
			n.blockToken(t, w)
		}
	}
}

func (n *negativeNode) rightRemove(*wm.WME) {
	// Handled centrally via wmeNegResults in Network.removeWME.
}

// productionNode terminates a rule's chain and maintains its
// instantiations; the network's conflict set is the union over its
// production nodes.
type productionNode struct {
	net  *Network
	rule *compile.Rule
	// tokens lists the complete matches; each carries its instantiation
	// and its index here, for O(1) retraction.
	tokens []*token
	prof   *ruleProf
}

func (p *productionNode) profOf() *ruleProf { return p.prof }

func (p *productionNode) leftActivate(t *token) {
	p.prof.insts++
	t.owner = p
	t.inst = match.NewInstantiation(p.rule, t.vec)
	t.slot = len(p.tokens)
	p.tokens = append(p.tokens, t)
	p.net.coll.Add(t.inst)
}

func (p *productionNode) removeToken(t *token) {
	last := p.tokens[len(p.tokens)-1]
	p.tokens[t.slot] = last
	last.slot = t.slot
	p.tokens[len(p.tokens)-1] = nil
	p.tokens = p.tokens[:len(p.tokens)-1]
	p.net.coll.Remove(t.inst)
}
