// Package match defines the interface between the execution engines and
// the incremental match algorithms (RETE in match/rete, TREAT in
// match/treat), and the Instantiation type both produce.
//
// A Matcher owns a set of rules. The PARULEL engine and the OPS5 baseline
// each run one matcher over all of a program's rules.
package match

import (
	"fmt"
	"slices"
	"strings"

	"parulel/internal/compile"
	"parulel/internal/wm"
)

// Instantiation is a complete match of one rule: one WME per positive
// condition element. Instantiations are immutable, but for Slot.
type Instantiation struct {
	Rule *compile.Rule
	// WMEs holds the matched elements indexed by positive CE. The vector
	// is the instantiation's own.
	WMEs []*wm.WME
	key  Key
	// Slot belongs to the engine whose conflict set holds the
	// instantiation: the PARULEL engine keeps there the instantiation's
	// index in its conflict-set table. Matchers neither read nor write it.
	Slot int
}

// Key is a compact, comparable instantiation identity: the rule's
// declaration index, the length of the WME vector, the first keyTagsInline
// time tags verbatim, and an FNV-1a hash folding in the whole time-tag
// vector. Building a Key performs no heap allocation, unlike the
// fmt-formatted string key it replaced, and Keys hash as fixed-size values
// in the maps that file instantiations by identity (TREAT's conflict set,
// the OPS5 engine's conflict and refraction sets, checkpointed refraction,
// change collectors). The PARULEL engine's cycle hashes none: it reaches
// an instantiation's entry through Slot.
//
// Keys are a pure function of (rule index, time-tag vector), so equal
// instantiations produced by different matcher implementations have equal
// Keys. For rules with up to keyTagsInline positive
// condition elements — every embedded program — the key is exact. Deeper
// rules additionally rely on the 64-bit hash over the tail: two distinct
// instantiations of the same rule collide only if they agree on the first
// keyTagsInline tags, the vector length, and the FNV-1a hash of the full
// vector (probability ~2^-64 per candidate pair).
type Key struct {
	Rule int32
	Len  uint16
	Hash uint64
	Tags [keyTagsInline]int64
}

// keyTagsInline is the number of leading time tags stored verbatim in a
// Key. Four covers the deepest rules of every embedded program.
const keyTagsInline = 4

// FNV-1a 64-bit parameters (hash/fnv, inlined to keep key construction
// allocation- and interface-free).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// NewInstantiation builds an instantiation of a copy of wmes, and its
// dedup key. The copy is in the instantiation's allocation for the short
// vectors nearly every rule has.
func NewInstantiation(rule *compile.Rule, wmes []*wm.WME) *Instantiation {
	buf := &struct {
		in  Instantiation
		vec [4]*wm.WME
	}{}
	in := &buf.in
	in.Rule, in.WMEs, in.key = rule, append(buf.vec[:0], wmes...), KeyOf(rule, wmes)
	return in
}

// KeyOf returns the key of the instantiation of rule over wmes without
// building it.
func KeyOf(rule *compile.Rule, wmes []*wm.WME) Key {
	k := Key{Rule: int32(rule.Index), Len: uint16(len(wmes))}
	h := uint64(fnvOffset64)
	for i, w := range wmes {
		t := uint64(w.Time)
		for s := uint(0); s < 64; s += 8 {
			h = (h ^ (t >> s & 0xff)) * fnvPrime64
		}
		if i < keyTagsInline {
			k.Tags[i] = w.Time
		}
	}
	k.Hash = h
	return k
}

// Key is a unique, deterministic identifier derived from the rule index
// and the time tags of the matched WMEs. Equal instantiations produced by
// different matcher implementations have equal keys.
func (in *Instantiation) Key() Key { return in.key }

// KeyString renders the identity in the legacy human-readable form
// `ruleIndex:tag:tag:…`. Used for gensym symbols and test diagnostics;
// hot paths use the comparable Key instead.
func (in *Instantiation) KeyString() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d", in.Rule.Index)
	for _, w := range in.WMEs {
		fmt.Fprintf(&b, ":%d", w.Time)
	}
	return b.String()
}

// Tag returns the instantiation's recency tag: the maximum time tag among
// its WMEs. Exposed to meta-rules as `(tag <i>)`.
func (in *Instantiation) Tag() int64 {
	var max int64
	for _, w := range in.WMEs {
		if w.Time > max {
			max = w.Time
		}
	}
	return max
}

// Compare imposes the deterministic total instantiation order used by
// `(precedes <i> <j>)` and by the engines for reproducible iteration:
// first by rule declaration index, then by the WME time-tag vector
// lexicographically.
func (in *Instantiation) Compare(o *Instantiation) int {
	switch {
	case in.Rule.Index < o.Rule.Index:
		return -1
	case in.Rule.Index > o.Rule.Index:
		return 1
	}
	n := len(in.WMEs)
	if len(o.WMEs) < n {
		n = len(o.WMEs)
	}
	for i := 0; i < n; i++ {
		switch {
		case in.WMEs[i].Time < o.WMEs[i].Time:
			return -1
		case in.WMEs[i].Time > o.WMEs[i].Time:
			return 1
		}
	}
	switch {
	case len(in.WMEs) < len(o.WMEs):
		return -1
	case len(in.WMEs) > len(o.WMEs):
		return 1
	}
	return 0
}

// Binding returns the value of a compiled variable reference.
func (in *Instantiation) Binding(ref compile.VarRef) wm.Value {
	return in.WMEs[ref.CE].Fields[ref.Field]
}

// String renders the instantiation for traces: rule name plus time tags.
func (in *Instantiation) String() string {
	var b strings.Builder
	b.WriteString(in.Rule.Name)
	b.WriteString(" [")
	for i, w := range in.WMEs {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%d", w.Time)
	}
	b.WriteString("]")
	return b.String()
}

// Changes reports the conflict-set delta produced by one working-memory
// delta: what entered and what left, each in no particular order
// (SortInstantiations imposes the deterministic order where one is
// needed). An instantiation in Removed is the very one an earlier Added
// reported, not an equal copy: engines find it by what they stored in it.
type Changes struct {
	Added   []*Instantiation
	Removed []*Instantiation
}

// MemStats reports a matcher's state-size counters, used by experiment E4
// (RETE vs TREAT memory).
type MemStats struct {
	// AlphaItems counts WMEs held across alpha memories (with sharing, a
	// WME in two alpha memories counts twice).
	AlphaItems int
	// BetaTokens counts partial-match tokens (RETE only; TREAT and the meta
	// level hold no beta state).
	BetaTokens int
	// ConflictSet counts complete instantiations currently held.
	ConflictSet int
	// Bytes is the memory the matcher's own records take: for RETE exactly
	// what its arenas, WME table and index tables hold, in use or free; for
	// TREAT its records, their WME table and the index tables; for the meta
	// level its images and index tables. The WMEs and the instantiations
	// are not the matcher's.
	Bytes int
}

// RuleProfile attributes match-layer activity to one rule. It is the unit
// of the per-rule profiles served at /metrics; Fires is filled in by the
// engine (the match layer never sees firings).
type RuleProfile struct {
	Rule string `json:"rule"`
	// MatchNS is the match time attributed to this rule's join work
	// (beta-network propagation for RETE, seeded joins for TREAT). Shared
	// alpha-memory maintenance is not attributable and is excluded. Only
	// populated by matchers built with profiling enabled.
	MatchNS int64 `json:"match_ns"`
	// Tokens counts partial matches materialized (RETE beta tokens /
	// TREAT seeded-join extensions).
	Tokens uint64 `json:"tokens"`
	// Probes counts candidate pairs tested at join and negation points.
	Probes uint64 `json:"probes"`
	// Insts counts instantiations added to the conflict set.
	Insts uint64 `json:"insts"`
	// Fires counts instantiations fired (engine-filled).
	Fires uint64 `json:"fires"`
}

// RuleProfiler is implemented by matchers that attribute work per rule.
// The engine joins the profiles with its firing counts via this
// interface, so implementations lacking it simply contribute nothing.
type RuleProfiler interface {
	// RuleProfiles returns one profile per rule of the matcher, in
	// declaration order.
	RuleProfiles() []RuleProfile
}

// Matcher is an incremental match algorithm over a fixed set of rules.
// Implementations are not safe for concurrent use; an engine drives its
// matcher from one goroutine at a time.
type Matcher interface {
	// Apply feeds a working-memory delta (removals first, then additions)
	// and returns the resulting conflict-set changes.
	Apply(delta wm.Delta) Changes
	// ConflictSet returns the current complete matches in the deterministic
	// instantiation order.
	ConflictSet() []*Instantiation
	// MemStats reports current state sizes.
	MemStats() MemStats
}

// Factory constructs a matcher over a set of rules. rete.New and
// treat.New satisfy this signature.
type Factory func(rules []*compile.Rule) Matcher

// EvalFilters evaluates a CE's filter expressions against env's WME vector.
// A filter that errors at runtime (e.g. comparing incompatible values fed
// by a weakly constrained pattern) counts as a failed test, matching OPS5
// practice of treating predicate failure as no-match.
func EvalFilters(ce *compile.CondElem, env *compile.VecEnv) bool {
	for _, f := range ce.Filters {
		if !f.Holds(env) {
			return false
		}
	}
	return true
}

// SortInstantiations sorts a slice in the deterministic total order.
func SortInstantiations(ins []*Instantiation) {
	slices.SortFunc(ins, (*Instantiation).Compare)
}
