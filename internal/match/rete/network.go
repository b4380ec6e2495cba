package rete

import (
	"fmt"
	"slices"
	"strings"
	"time"
	"unsafe"

	"parulel/internal/compile"
	"parulel/internal/match"
	"parulel/internal/wm"
)

// Options configures a Network.
type Options struct {
	// DisableJoinIndex turns off the hash-join indexes over alpha and beta
	// memories, forcing every join and negative node onto the nested-loop
	// path: the reference arm of the differential grid
	// (internal/core/differential_test.go) and of BenchmarkNetworkApply.
	// No binary and no facade field sets it.
	DisableJoinIndex bool
	// Profile attributes match time per rule: the addition or removal of
	// each WME is timed, at the cost of two monotonic clock reads, and the
	// time split over the rules it activated in proportion to the work —
	// tokens built, join candidates tested, tokens deleted — each did for
	// it. The activity counters (tokens, probes, instantiations) are
	// maintained regardless; Profile only gates the timing.
	Profile bool
}

// ruleProf accumulates one rule's match-layer activity. Every beta-layer
// node of a rule's chain points at its rule's ruleProf; counters are plain
// increments on the single goroutine that owns the network.
type ruleProf struct {
	name    string
	matchNS int64
	tokens  uint64
	probes  uint64
	insts   uint64
	// lost counts the tokens deleted from the rule's memories. paid is how
	// much of the rule's work — tokens+probes+lost — matchNS has been
	// charged for, and due is Network.charge's scratch.
	lost, paid, due uint64
}

// Network is a RETE network over a set of rules. It implements
// match.Matcher. A Network must be used by a single goroutine.
type Network struct {
	rules []*compile.Rule
	opts  Options

	alphaByTmpl map[*wm.Template][]*alphaMem
	alphaBySig  map[string]*alphaMem

	// The arenas of the network's records (see nodes.go). wmes holds the
	// WME of every wmeRec, by the record's handle, and table finds the
	// record of every WME some alpha memory holds (WMEs are shared with
	// other matchers, so RETE state cannot live on the WME itself); it is
	// consulted once per WME addition and removal.
	tokens  arena[token, *token]
	recs    arena[wmeRec, *wmeRec]
	mships  arena[membership, *membership]
	results arena[negResult, *negResult]
	insts   arena[instRec, *instRec]
	wmes    []*wm.WME
	table   match.WMETable
	// matched is addWME's scratch list of the alpha memories a WME passes,
	// and vec the production nodes' scratch vector.
	matched []*alphaMem
	vec     []*wm.WME

	coll *match.ChangeCollector

	// nodes holds the nodes that own tokens, by id (token.node); there is
	// no node zero. chains holds every chain of every alpha memory.
	nodes  []node
	chains []*alphaChain

	// profs holds one profile per rule, in declaration order. profile gates the timing attribution only: epoch is when
	// the Apply in progress began and clock how far into it the last lap
	// ended.
	profs   []*ruleProf
	profile bool
	epoch   time.Time
	clock   time.Duration

	// delStack is the reused traversal stack of deleteTokenAndDescendants,
	// so deep token chains neither recurse nor reallocate per deletion.
	delStack []int32
}

var _ match.Matcher = (*Network)(nil)

// New builds a RETE network with default options for the given rules. It
// satisfies match.Factory.
func New(rules []*compile.Rule) match.Matcher { return NewWithOptions(rules, Options{}) }

// Factory returns a match.Factory that builds networks with fixed options.
func Factory(opts Options) match.Factory {
	return func(rules []*compile.Rule) match.Matcher { return NewWithOptions(rules, opts) }
}

// NewWithOptions builds a RETE network for the given rules.
func NewWithOptions(rules []*compile.Rule, opts Options) match.Matcher {
	n := &Network{
		rules:       rules,
		opts:        opts,
		alphaByTmpl: make(map[*wm.Template][]*alphaMem),
		alphaBySig:  make(map[string]*alphaMem),
		coll:        match.NewChangeCollector(),
		profile:     opts.Profile,
	}
	// A rule has a beta memory above every CE and a production node, and
	// a negated CE its own node.
	owners := 1
	for _, r := range rules {
		owners += len(r.CEs) + 1
		for _, ce := range r.CEs {
			if ce.Negated {
				owners++
			}
		}
	}
	n.nodes = make([]node, 1, owners)
	for _, r := range rules {
		n.addRule(r)
	}
	return n
}

// alphaSignature identifies structurally identical alpha tests so that
// alpha memories are shared between CEs.
func alphaSignature(ce *compile.CondElem) string {
	var b strings.Builder
	b.WriteString(ce.Tmpl.Name)
	for _, t := range ce.ConstTests {
		fmt.Fprintf(&b, "|c%d %s %s %d", t.Field, t.Op, t.Val, t.Val.Kind)
	}
	for _, t := range ce.DisjTests {
		fmt.Fprintf(&b, "|d%d", t.Field)
		for _, v := range t.Vals {
			fmt.Fprintf(&b, " %s %d", v, v.Kind)
		}
	}
	for _, t := range ce.IntraTests {
		fmt.Fprintf(&b, "|i%d %s %d", t.Field, t.Op, t.OtherField)
	}
	return b.String()
}

func (n *Network) alpha(ce *compile.CondElem) *alphaMem {
	sig := alphaSignature(ce)
	if am, ok := n.alphaBySig[sig]; ok {
		return am
	}
	am := &alphaMem{rep: ce}
	n.chain(am, &am.list)
	n.alphaBySig[sig] = am
	n.alphaByTmpl[ce.Tmpl] = append(n.alphaByTmpl[ce.Tmpl], am)
	return am
}

// attach registers a right node with an alpha memory. Nodes are prepended
// so that, within a rule chain, deeper nodes are right-activated first —
// the standard RETE ordering that prevents duplicate propagation when one
// WME feeds two join levels through a shared alpha memory.
func (am *alphaMem) attach(rn rightNode, prof *ruleProf) {
	am.succs = append([]rightNode{rn}, am.succs...)
	if !slices.Contains(am.profs, prof) {
		am.profs = append(am.profs, prof)
	}
}

// eqJoinTest picks the equality join test the hash indexes are built on:
// the first OpEq test (strict equality — == over wm.Value, which is the
// value indexes' key equality). Returns -1 when the CE has none or indexing
// is disabled.
func (n *Network) eqJoinTest(ce *compile.CondElem) int {
	if n.opts.DisableJoinIndex {
		return -1
	}
	for i := range ce.JoinTests {
		if ce.JoinTests[i].Op == compile.OpEq {
			return i
		}
	}
	return -1
}

// own gives a node that holds tokens its id.
func (n *Network) own(nd node) int32 {
	n.nodes = append(n.nodes, nd)
	return int32(len(n.nodes) - 1)
}

// addRule builds the beta chain for one rule: a private top beta memory
// with a dummy token, then one join or negative node per condition
// element, ending in a production node.
func (n *Network) addRule(r *compile.Rule) {
	prof := &ruleProf{name: r.Name}
	n.profs = append(n.profs, prof)
	// A token's WMEs are read by walking up its parents, so a memory
	// bucketed by a binding is told how far up the binding is: depth counts
	// the tokens from the dummy down to the ones in the memory being built
	// — a positive CE adds one, a negated CE two, its node's own and the
	// one that passes on — and built[p] is the depth of the tokens built on
	// the WME of positive CE p.
	var depth int32
	var built []int32
	// newMem makes the beta memory that the node of CE next reads. A join
	// node with an equality test reads it by the joined binding, so the
	// memory is bucketed by that; anything else gets a list.
	newMem := func(next int) *betaMem {
		b := &betaMem{net: n, prof: prof}
		b.id, b.mem.net = n.own(b), n
		if ce := r.CEs[next]; !ce.Negated {
			if eq := n.eqJoinTest(ce); eq >= 0 {
				b.mem.bucketBy(&ce.JoinTests[eq], depth-built[ce.JoinTests[eq].OtherCE])
			}
		}
		return b
	}
	cur := newMem(0)
	cur.leftActivate(n.tokens.alloc())

	for i, ce := range r.CEs {
		am := n.alpha(ce)
		eq := n.eqJoinTest(ce)
		j := joiner{net: n, amem: am, ce: ce, eqTest: int32(eq), prof: prof}
		if others := len(ce.JoinTests) - min(eq+1, 1); others > 0 || len(ce.Filters) > 0 {
			if j.tested = true; len(ce.Filters) == 0 {
				j.lo = int32(ce.BetaLevel)
			}
			for i, jt := range ce.JoinTests {
				if i != eq {
					j.lo = min(j.lo, int32(jt.OtherCE))
				}
			}
		}
		// A join node tests the tokens of cur, a negative node its own,
		// one further down.
		if ce.Negated {
			depth++
		}
		if eq >= 0 {
			j.alphaIdx = n.indexField(am, ce.JoinTests[eq].Field)
			j.eqUp = depth - built[ce.JoinTests[eq].OtherCE]
		}
		if depth++; !ce.Negated {
			built = append(built, depth)
		}
		var child node
		var collector *betaMem
		if i == len(r.CEs)-1 {
			prod := &productionNode{net: n, rule: r, prof: prof}
			prod.id = n.own(prod)
			child = prod
		} else {
			collector = newMem(i + 1)
			child = collector
		}
		var succ rightNode
		if ce.Negated {
			neg := &negativeNode{joiner: j, child: child}
			neg.id, neg.mem.net = n.own(neg), n
			if eq >= 0 {
				neg.mem.bucketBy(&ce.JoinTests[eq], j.eqUp)
			}
			succ = neg
		} else {
			succ = &joinNode{joiner: j, parent: cur, child: child}
		}
		cur.succs = append(cur.succs, succ)
		am.attach(succ, prof)
		// Flow the existing tokens through the new node: the dummy, and
		// below leading negated CEs the tokens it has already produced.
		// They bind nothing, so the memory holding them is never indexed.
		for h := cur.mem.all.Head; h != 0; {
			t := n.tok(h)
			succ.leftActivate(h, t)
			h = t.bnext
		}
		cur = collector
	}
}

// Apply feeds a working-memory delta and returns conflict-set changes,
// netting out instantiations that were both added and removed within the
// one delta (e.g. created by one WME and retracted by a later WME's
// negative match).
func (n *Network) Apply(delta wm.Delta) match.Changes {
	if n.profile {
		n.epoch, n.clock = time.Now(), 0
	}
	for _, w := range delta.Removed {
		n.removeWME(w)
	}
	for _, w := range delta.Added {
		n.addWME(w)
	}
	return n.coll.Take()
}

// lap returns the time since the previous lap of this Apply, at the cost
// of one monotonic clock read.
func (n *Network) lap() int64 {
	now := time.Since(n.epoch)
	d := now - n.clock
	n.clock = now
	return int64(d)
}

// charge splits the lap just ended, spent adding or removing r's WME,
// over the rules that did the work. Only rules with a node on one of the
// WME's alpha memories can have: a right activation, a token built on the
// WME and a negative join result all start there, and their cascades stay
// in the rule's private beta chain. The activations of one WME interleave
// rule by rule, and a clock read costs more than building a token — a
// time.Now and time.Since around every activation, as the profile used to
// take, were 5–6% of a waltz run — so the WME is timed once and the time
// split by work counts.
func (n *Network) charge(r *wmeRec) {
	elapsed := float64(n.lap())
	var total uint64
	for h := r.mems; h != 0; {
		m := n.mship(h)
		for _, p := range n.chains[m.chain].am.profs {
			if d := p.tokens + p.probes + p.lost - p.paid; d > 0 {
				p.due = d
				p.paid += d
				total += d
			}
		}
		h = m.of
	}
	// A rule on two of the memories is due nothing the second time round.
	for h := r.mems; h != 0; {
		m := n.mship(h)
		for _, p := range n.chains[m.chain].am.profs {
			if p.due > 0 {
				p.matchNS += int64(elapsed * float64(p.due) / float64(total))
				p.due = 0
			}
		}
		h = m.of
	}
}

func (n *Network) addWME(w *wm.WME) {
	matched := n.matched[:0]
	for _, am := range n.alphaByTmpl[w.Tmpl] {
		if am.rep.MatchesAlpha(w) {
			matched = append(matched, am)
		}
	}
	n.matched = matched
	if len(matched) == 0 {
		return
	}
	if n.profile {
		n.lap() // the alpha tests are no rule's
	}
	r, rec := n.recs.alloc()
	for int(r) >= len(n.wmes) {
		n.wmes = append(n.wmes, nil)
	}
	n.wmes[r] = w
	n.table.Put(r, n.wmes)
	for _, am := range matched {
		// A memory's successors are activated before the WME enters the
		// next memory: a token they build must not find the WME there
		// ahead of that memory's own right activation.
		am.add(n, r, rec)
		for _, s := range am.succs {
			s.rightAdd(r, w)
		}
	}
	if n.profile {
		n.charge(rec)
	}
}

func (n *Network) removeWME(w *wm.WME) {
	r := n.table.Remove(w, n.wmes)
	if r == 0 {
		return
	}
	rec := n.rec(r)

	// 1. Remove from alpha memories so in-flight joins no longer see it.
	for h := rec.mems; h != 0; {
		m := n.mship(h)
		c := n.chains[m.chain]
		c.drop(c, h, m.prev, m.next)
		if m.prev != 0 {
			n.mship(m.prev).next = m.next
		}
		if m.next != 0 {
			n.mship(m.next).prev = m.prev
		}
		h = m.of
	}

	// 2. Delete every token built on this WME, cascading to descendants.
	if n.profile {
		n.lap()
	}
	for rec.tokens != 0 {
		n.deleteTokenAndDescendants(rec.tokens)
	}

	// 3. Negative join results: the blocked tokens may become unblocked.
	for rec.results != 0 {
		jh := rec.results
		j := n.result(jh)
		h, t := j.owner, n.tok(j.owner)
		if j.oprev != 0 {
			n.result(j.oprev).onext = j.onext
		} else {
			*t.blockers() = j.onext
		}
		if j.onext != 0 {
			n.result(j.onext).oprev = j.oprev
		}
		rec.results = j.wnext
		n.results.release(jh)
		if *t.blockers() == 0 {
			n.nodes[t.node].(*negativeNode).propagate(h, t)
		}
	}
	if n.profile {
		n.charge(rec)
	}
	for h := rec.mems; h != 0; {
		next := n.mship(h).of
		n.mships.release(h)
		h = next
	}
	n.wmes[r] = nil
	if n.recs.release(r); n.recs.live == 0 {
		n.wmes = nil
	}
}

// deleteTokenAndDescendants removes a token and its whole subtree,
// unhooking each token from its owner's memory, from the list of its WME's
// tokens and — for the root only — from its parent's child list
// (descendants' parents are deleted with them, so their child lists need
// no surgery). The traversal uses an explicit, reused list: long join
// chains and large closure DAGs produce token trees deep enough that
// recursion risks unbounded goroutine stack growth.
func (n *Network) deleteTokenAndDescendants(h int32) {
	// Unhook the root from its (still live) parent; every descendant's
	// parent is deleted in the same sweep.
	t := n.tok(h)
	if t.prev != 0 {
		n.tok(t.prev).next = t.next
	} else {
		n.tok(t.parent).child = t.next
	}
	if t.next != 0 {
		n.tok(t.next).prev = t.prev
	}
	// The subtree is listed parents first and deleted from the end: a
	// token's key in an indexed memory is read off its ancestors, which
	// must outlive it.
	stack := append(n.delStack[:0], h)
	for i := 0; i < len(stack); i++ {
		for c := n.tok(stack[i]).child; c != 0; c = n.tok(c).next {
			stack = append(stack, c)
		}
	}
	for i := len(stack) - 1; i >= 0; i-- {
		h, t := stack[i], n.tok(stack[i])
		n.nodes[t.node].removeToken(h, t)
		if t.rec != 0 {
			if t.wprev != 0 {
				n.tok(t.wprev).wnext = t.wnext
			} else {
				n.rec(t.rec).tokens = t.wnext
			}
			if t.wnext != 0 {
				n.tok(t.wnext).wprev = t.wprev
			}
		}
		n.tokens.release(h)
	}
	n.delStack = stack[:0]
}

// deleteDescendants removes a token's subtree but keeps the token itself
// (used by negative nodes when an absence stops holding).
func (n *Network) deleteDescendants(t *token) {
	for t.child != 0 {
		n.deleteTokenAndDescendants(t.child)
	}
}

// ConflictSet returns the current instantiations in deterministic order.
func (n *Network) ConflictSet() []*match.Instantiation {
	out := make([]*match.Instantiation, 0, n.insts.live)
	for h := int32(1); h < n.insts.next; h++ {
		if r := n.insts.at(h); r.live >= 0 {
			out = append(out, r.in)
		}
	}
	match.SortInstantiations(out)
	return out
}

// RuleProfiles returns per-rule match activity in declaration order,
// implementing match.RuleProfiler. Match time is attributed only when the
// network was built with Options.Profile; the counters are always live.
func (n *Network) RuleProfiles() []match.RuleProfile {
	out := make([]match.RuleProfile, len(n.profs))
	for i, p := range n.profs {
		out[i] = match.RuleProfile{
			Rule:    p.name,
			MatchNS: p.matchNS,
			Tokens:  p.tokens,
			Probes:  p.probes,
			Insts:   p.insts,
		}
	}
	return out
}

// MemStats reports current state sizes. Bytes is what the arenas, the
// WME table and the index tables hold, whether or not a record in them is
// in use.
func (n *Network) MemStats() match.MemStats {
	ms := match.MemStats{Bytes: n.tokens.bytes() + n.recs.bytes() + n.mships.bytes() + n.results.bytes() + n.insts.bytes() +
		cap(n.wmes)*int(unsafe.Sizeof(n.wmes[0])) + n.table.Bytes()}
	for _, c := range n.chains {
		if ms.Bytes += c.idx.Bytes(); !c.indexed {
			ms.AlphaItems += int(c.n)
		}
	}
	for _, nd := range n.nodes {
		if mem := memOf(nd); mem != nil {
			ms.BetaTokens += int(mem.n)
			ms.Bytes += mem.idx.Bytes()
		}
	}
	ms.ConflictSet = int(n.insts.live)
	return ms
}
