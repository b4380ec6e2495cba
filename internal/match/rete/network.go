package rete

import (
	"fmt"
	"strings"
	"time"

	"parulel/internal/compile"
	"parulel/internal/match"
	"parulel/internal/wm"
)

// Options configures a Network.
type Options struct {
	// DisableJoinIndex turns off the hash-join indexes over alpha and beta
	// memories, forcing every join and negative node onto the nested-loop
	// path. Exists for ablation measurements (experiment E11); production
	// callers should leave it false.
	DisableJoinIndex bool
	// Profile attributes match time per rule: every top-level beta
	// activation (and token-deletion cascade) is timed and charged to the
	// owning rule's profile, at the cost of two clock reads per
	// activation. The activity counters (tokens, probes, instantiations)
	// are maintained regardless; Profile only gates the timing.
	Profile bool
	// EvalMode selects the filter-expression backend: the bytecode VM
	// (the zero value, the default) or the tree-walking interpreter
	// (compile.EvalInterp, the reference semantics and the E13 ablation
	// baseline).
	EvalMode compile.EvalMode
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
	// losing counts the tokens this rule is losing to the WME removal in
	// progress (Network.removeWME); zero between removals.
	losing int
}

// Network is a RETE network over a partition of rules. It implements
// match.Matcher. A Network must be used by a single goroutine.
type Network struct {
	rules []*compile.Rule
	opts  Options

	alphaByTmpl map[*wm.Template][]*alphaMem
	alphaBySig  map[string]*alphaMem

	// Per-WME bookkeeping (WMEs are shared across partitions, so RETE
	// state cannot live on the WME itself).
	wmeAlpha      map[*wm.WME][]*alphaMem
	wmeTokens     map[*wm.WME]*token // head of the list through token.wnext
	wmeNegResults map[*wm.WME][]*negJoinResult

	coll *match.ChangeCollector

	betaMems []*betaMem
	negNodes []*negativeNode
	prods    []*productionNode

	// profs holds one profile per rule, in declaration order of the
	// partition. profile gates the timing attribution only.
	profs   []*ruleProf
	profile bool

	// losers is removeWME's scratch list of the rules losing tokens.
	losers []*ruleProf

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
		rules:         rules,
		opts:          opts,
		alphaByTmpl:   make(map[*wm.Template][]*alphaMem),
		alphaBySig:    make(map[string]*alphaMem),
		wmeAlpha:      make(map[*wm.WME][]*alphaMem),
		wmeTokens:     make(map[*wm.WME]*token),
		wmeNegResults: make(map[*wm.WME][]*negJoinResult),
		coll:          match.NewChangeCollector(),
		profile:       opts.Profile,
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
func (am *alphaMem) attach(rn rightNode) {
	am.succs = append([]rightNode{rn}, am.succs...)
}

// eqJoinTest picks the equality join test the hash indexes are built on:
// the first OpEq test (strict equality — exactly map-key equality over
// wm.Value). Returns -1 when the CE has none or indexing is disabled.
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
	top := &betaMem{net: n, prof: prof}
	n.betaMems = append(n.betaMems, top)
	dummy := &token{vec: nil, owner: top}
	top.tokens.add(dummy)

	cur := top
	for i, ce := range r.CEs {
		last := i == len(r.CEs)-1
		var child node
		var collector *betaMem
		if last {
			prod := &productionNode{net: n, rule: r, prof: prof}
			n.prods = append(n.prods, prod)
			child = prod
		} else {
			collector = &betaMem{net: n, prof: prof}
			n.betaMems = append(n.betaMems, collector)
			child = collector
		}
		am := n.alpha(ce)
		eq := n.eqJoinTest(ce)
		if ce.Negated {
			neg := &negativeNode{
				net:    n,
				amem:   am,
				ce:     ce,
				child:  child,
				eqTest: eq,
				prof:   prof,
			}
			if eq >= 0 {
				jt := &ce.JoinTests[eq]
				neg.alphaIdx = am.indexField(jt.Field)
				neg.tokensByVal = make(valueIndex[*token])
			}
			n.negNodes = append(n.negNodes, neg)
			cur.succs = append(cur.succs, neg)
			am.attach(neg)
			// Flow the existing tokens (initially just the dummy) through
			// the new node.
			for _, t := range cur.tokens.all() {
				neg.leftActivate(t)
			}
		} else {
			j := &joinNode{net: n, parent: cur, amem: am, ce: ce, child: child, eqTest: eq, prof: prof}
			if eq >= 0 {
				jt := &ce.JoinTests[eq]
				j.alphaIdx = am.indexField(jt.Field)
				j.betaIdx = cur.indexOn(jt.OtherCE, jt.OtherField)
			}
			cur.succs = append(cur.succs, j)
			am.attach(j)
			for _, t := range cur.tokens.all() {
				j.leftActivate(t)
			}
		}
		cur = collector
	}
}

// Apply feeds a working-memory delta and returns conflict-set changes,
// netting out instantiations that were both added and removed within the
// one delta (e.g. created by one WME and retracted by a later WME's
// negative match).
func (n *Network) Apply(delta wm.Delta) match.Changes {
	for _, w := range delta.Removed {
		n.removeWME(w)
	}
	for _, w := range delta.Added {
		n.addWME(w)
	}
	return n.coll.Take()
}

func (n *Network) addWME(w *wm.WME) {
	for _, am := range n.alphaByTmpl[w.Tmpl] {
		if !am.rep.MatchesAlpha(w) {
			continue
		}
		am.add(w)
		n.wmeAlpha[w] = append(n.wmeAlpha[w], am)
		// Each right activation cascades only through its own rule's
		// private beta chain, so timing the top-level call attributes the
		// whole subtree to that rule.
		if n.profile {
			for _, s := range am.succs {
				t0 := time.Now()
				s.rightAdd(w)
				s.profOf().matchNS += int64(time.Since(t0))
			}
		} else {
			for _, s := range am.succs {
				s.rightAdd(w)
			}
		}
	}
}

func (n *Network) removeWME(w *wm.WME) {
	// 1. Remove from alpha memories so in-flight joins no longer see it.
	for _, am := range n.wmeAlpha[w] {
		am.remove(w)
	}
	delete(n.wmeAlpha, w)

	// 2. Delete every token built on this WME, cascading to descendants.
	// A token's whole subtree lives in one rule's chain, so a deletion
	// cascade belongs to the owner's rule. The WME's tokens interleave
	// rule by rule, and a clock read costs more than deleting a token, so
	// the whole removal is timed once and split over the rules by the
	// number of tokens each loses here.
	var t0 time.Time
	if n.profile {
		t0 = time.Now()
	}
	lost := 0
	for t := n.wmeTokens[w]; t != nil; t = t.wnext {
		if n.profile && !t.dead && t.owner != nil {
			p := t.owner.profOf()
			if p.losing == 0 {
				n.losers = append(n.losers, p)
			}
			p.losing++
			lost++
		}
		n.deleteTokenAndDescendants(t)
	}
	if lost > 0 {
		elapsed := int64(time.Since(t0))
		for _, p := range n.losers {
			p.matchNS += elapsed * int64(p.losing) / int64(lost)
			p.losing = 0
		}
		n.losers = n.losers[:0]
	}
	delete(n.wmeTokens, w)

	// 3. Negative join results: the blocked tokens may become unblocked.
	for _, jr := range n.wmeNegResults[w] {
		if jr.owner.dead {
			continue
		}
		jr.owner.nresults--
		if jr.owner.nresults == 0 {
			if n.profile {
				t0 := time.Now()
				jr.node.propagate(jr.owner)
				jr.node.prof.matchNS += int64(time.Since(t0))
			} else {
				jr.node.propagate(jr.owner)
			}
		}
	}
	delete(n.wmeNegResults, w)
}

// deleteTokenAndDescendants removes a token and its whole subtree,
// unhooking each token from its owner's memory and — for the root only —
// from its parent's child list (descendants' parents are deleted with
// them, so their child lists need no surgery). The traversal uses an
// explicit, reused stack: long join chains and large closure DAGs produce
// token trees deep enough that recursion risks unbounded goroutine stack
// growth.
func (n *Network) deleteTokenAndDescendants(t *token) {
	if t.dead {
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
		if cur.dead {
			continue
		}
		cur.dead = true
		for c := cur.child; c != nil; c = c.next {
			stack = append(stack, c)
		}
		cur.child, cur.next, cur.prev, cur.parent = nil, nil, nil, nil
		if cur.owner != nil {
			cur.owner.removeToken(cur)
			cur.owner = nil
		}
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
		for _, t := range p.tokens {
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
			ms.AlphaItems += a.wmes.len()
		}
	}
	for _, b := range n.betaMems {
		ms.BetaTokens += b.tokens.len()
	}
	for _, neg := range n.negNodes {
		ms.BetaTokens += neg.tokens.len()
	}
	for _, p := range n.prods {
		ms.ConflictSet += len(p.tokens)
	}
	return ms
}
