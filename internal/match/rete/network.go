package rete

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"parulel/internal/compile"
	"parulel/internal/match"
	"parulel/internal/valueindex"
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

// Network is a RETE network over a partition of rules. It implements
// match.Matcher. A Network must be used by a single goroutine.
type Network struct {
	rules []*compile.Rule
	opts  Options

	alphaByTmpl map[*wm.Template][]*alphaMem
	alphaBySig  map[string]*alphaMem

	// recs holds the record of every WME some alpha memory holds (WMEs are
	// shared across partitions, so RETE state cannot live on the WME
	// itself). It is consulted once per WME addition and removal.
	recs map[*wm.WME]*wmeRec
	// matched is addWME's scratch list of the alpha memories a WME passes.
	matched []*alphaMem

	coll *match.ChangeCollector

	betaMems []*betaMem
	negNodes []*negativeNode
	prods    []*productionNode

	// profs holds one profile per rule, in declaration order of the
	// partition. profile gates the timing attribution only: epoch is when
	// the Apply in progress began and clock how far into it the last lap
	// ended.
	profs   []*ruleProf
	profile bool
	epoch   time.Time
	clock   time.Duration

	// delStack is the reused traversal stack of deleteTokenAndDescendants,
	// so deep token chains neither recurse nor reallocate per deletion.
	delStack []*token
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
		recs:        make(map[*wm.WME]*wmeRec),
		coll:        match.NewChangeCollector(),
		profile:     opts.Profile,
	}
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

// addRule builds the beta chain for one rule: a private top beta memory
// with a dummy token, then one join or negative node per condition
// element, ending in a production node.
func (n *Network) addRule(r *compile.Rule) {
	prof := &ruleProf{name: r.Name}
	n.profs = append(n.profs, prof)
	// newMem makes the beta memory that the node of CE next reads. A join
	// node with an equality test reads it by the joined binding, so the
	// memory is bucketed by that; anything else gets a list.
	newMem := func(next int) *betaMem {
		b := &betaMem{net: n, prof: prof}
		if ce := r.CEs[next]; !ce.Negated {
			if eq := n.eqJoinTest(ce); eq >= 0 {
				b.mem = bucketedBy(&ce.JoinTests[eq])
			}
		}
		n.betaMems = append(n.betaMems, b)
		return b
	}
	cur := newMem(0)
	cur.mem.add(&token{owner: cur})

	for i, ce := range r.CEs {
		var child node
		var collector *betaMem
		if i == len(r.CEs)-1 {
			prod := &productionNode{net: n, rule: r, prof: prof}
			n.prods = append(n.prods, prod)
			child = prod
		} else {
			collector = newMem(i + 1)
			child = collector
		}
		am := n.alpha(ce)
		eq := n.eqJoinTest(ce)
		var alphaIdx *valueindex.Index[*wmeRec]
		if eq >= 0 {
			alphaIdx = am.indexField(ce.JoinTests[eq].Field)
		}
		var succ rightNode
		if ce.Negated {
			neg := &negativeNode{net: n, amem: am, ce: ce, child: child, eqTest: eq, alphaIdx: alphaIdx, prof: prof}
			if eq >= 0 {
				neg.mem = bucketedBy(&ce.JoinTests[eq])
			}
			n.negNodes = append(n.negNodes, neg)
			succ = neg
		} else {
			succ = &joinNode{net: n, parent: cur, amem: am, ce: ce, child: child, eqTest: eq, alphaIdx: alphaIdx, prof: prof}
		}
		cur.succs = append(cur.succs, succ)
		am.attach(succ, prof)
		// Flow the existing tokens through the new node: the dummy, and
		// below leading negated CEs the tokens it has already produced.
		// They bind nothing, so the memory holding them is never indexed.
		for _, t := range cur.mem.list {
			succ.leftActivate(t)
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
	for i := range r.mems {
		for _, p := range r.mems[i].am.profs {
			if d := p.tokens + p.probes + p.lost - p.paid; d > 0 {
				p.due = d
				p.paid += d
				total += d
			}
		}
	}
	// A rule on two of the memories is due nothing the second time round.
	for i := range r.mems {
		for _, p := range r.mems[i].am.profs {
			if p.due > 0 {
				p.matchNS += int64(elapsed * float64(p.due) / float64(total))
				p.due = 0
			}
		}
	}
}

func (n *Network) addWME(w *wm.WME) {
	matched, npos := n.matched[:0], 0
	for _, am := range n.alphaByTmpl[w.Tmpl] {
		if am.rep.MatchesAlpha(w) {
			matched = append(matched, am)
			npos += 1 + len(am.byField)
		}
	}
	n.matched = matched
	if len(matched) == 0 {
		return
	}
	if n.profile {
		n.lap() // the alpha tests are no rule's
	}
	r := &wmeRec{wme: w}
	n.recs[w] = r
	r.mems = fit(r.memBuf[:], len(matched))
	pos := fit(r.posBuf[:], npos)
	for i, am := range matched {
		m := &r.mems[i]
		m.am, m.pos, pos = am, pos[:1+len(am.byField)], pos[1+len(am.byField):]
		// A memory's successors are activated before the WME enters the
		// next memory: a token they build must not find the WME there
		// ahead of that memory's own right activation.
		am.add(r, m)
		for _, s := range am.succs {
			s.rightAdd(r)
		}
	}
	if n.profile {
		n.charge(r)
	}
}

// fit returns n elements of buf, or of a new slice when buf is too short.
func fit[T any](buf []T, n int) []T {
	if n <= len(buf) {
		return buf[:n]
	}
	return make([]T, n)
}

func (n *Network) removeWME(w *wm.WME) {
	r := n.recs[w]
	if r == nil {
		return
	}
	delete(n.recs, w)

	// 1. Remove from alpha memories so in-flight joins no longer see it.
	for i := range r.mems {
		r.mems[i].am.remove(r, &r.mems[i])
	}

	// 2. Delete every token built on this WME, cascading to descendants.
	if n.profile {
		n.lap()
	}
	for t := r.tokens; t != nil; t = t.wnext {
		n.deleteTokenAndDescendants(t)
	}

	// 3. Negative join results: the blocked tokens may become unblocked.
	for _, jr := range r.neg {
		if jr.owner.dead() {
			continue
		}
		jr.owner.nresults--
		if jr.owner.nresults == 0 {
			jr.node.propagate(jr.owner)
		}
	}
	if n.profile {
		n.charge(r)
	}
}

// deleteTokenAndDescendants removes a token and its whole subtree,
// unhooking each token from its owner's memory and — for the root only —
// from its parent's child list (descendants' parents are deleted with
// them, so their child lists need no surgery). The traversal uses an
// explicit, reused stack: long join chains and large closure DAGs produce
// token trees deep enough that recursion risks unbounded goroutine stack
// growth.
func (n *Network) deleteTokenAndDescendants(t *token) {
	if t.dead() {
		return
	}
	// Unhook the root from its (still live) parent; every descendant's
	// parent is deleted in the same sweep.
	if t.parent != nil {
		t.parent.dropChild(t)
	}
	stack := append(n.delStack[:0], t)
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if cur.dead() {
			continue
		}
		for c := cur.child; c != nil; c = c.next {
			stack = append(stack, c)
		}
		cur.child, cur.next, cur.prev, cur.parent = nil, nil, nil, nil
		if cur.owner != nil {
			cur.owner.removeToken(cur)
			cur.owner = nil
		}
		cur.slot = deadSlot
	}
	n.delStack = stack[:0]
}

// deleteDescendants removes a token's subtree but keeps the token itself
// (used by negative nodes when an absence stops holding).
func (n *Network) deleteDescendants(t *token) {
	for t.child != nil {
		n.deleteTokenAndDescendants(t.child)
	}
}

// ConflictSet returns the current instantiations in deterministic order.
func (n *Network) ConflictSet() []*match.Instantiation {
	var out []*match.Instantiation
	for _, p := range n.prods {
		for _, t := range p.mem.list {
			out = append(out, t.inst)
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

// MemStats reports current state sizes.
func (n *Network) MemStats() match.MemStats {
	var ms match.MemStats
	for _, am := range n.alphaByTmpl {
		for _, a := range am {
			ms.AlphaItems += len(a.wmes)
		}
	}
	for _, b := range n.betaMems {
		ms.BetaTokens += b.mem.len()
	}
	for _, neg := range n.negNodes {
		ms.BetaTokens += neg.mem.len()
	}
	for _, p := range n.prods {
		ms.ConflictSet += p.mem.len()
	}
	return ms
}
