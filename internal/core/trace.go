package core

import "time"

// Phase names one of the four cycle phases for Tracer callbacks.
type Phase uint8

// Cycle phases, in execution order.
const (
	PhaseMatch Phase = iota
	PhaseRedact
	PhaseFire
	PhaseApply
)

func (p Phase) String() string {
	switch p {
	case PhaseMatch:
		return "match"
	case PhaseRedact:
		return "redact"
	case PhaseFire:
		return "fire"
	default:
		return "apply"
	}
}

// Tracer receives structured engine events as each cycle executes. All
// callbacks are invoked on the goroutine running the engine, in a fixed
// order per cycle:
//
//	CycleStart
//	PhaseEnd(PhaseMatch) InstantiationsFound
//	PhaseEnd(PhaseRedact) Redacted
//	PhaseEnd(PhaseFire) RuleFired*        (once per distinct rule fired)
//	PhaseEnd(PhaseApply) Commit
//
// A cycle that reaches quiescence after the match phase (no eligible
// instantiations) never commits: implementations must discard a
// CycleStart that is not followed by Commit. A fully redacted cycle
// commits with zero fired rules and an empty delta.
//
// Options.Tracer is nil-checked at every call site, so the disabled path
// costs one branch per event and performs no allocation.
type Tracer interface {
	// CycleStart begins cycle n (1-based, cumulative across runs).
	CycleStart(n int)
	// PhaseEnd reports one phase's wall-clock duration.
	PhaseEnd(p Phase, d time.Duration)
	// InstantiationsFound reports the global conflict-set size and the
	// eligible subset (conflict set minus refraction) after the match phase.
	InstantiationsFound(conflictSet, eligible int)
	// Redacted reports the meta-rule fixpoint outcome: instantiations
	// redacted, synchronous rounds taken, and survivors left to fire.
	Redacted(redacted, rounds, survivors int)
	// RuleFired reports that a rule fired count instantiations this cycle.
	// Calls are made in lexicographic rule-name order.
	RuleFired(rule string, count int)
	// Commit completes the cycle with the reconciled working-memory delta
	// size, the write-conflict count, and whether a (halt) fired.
	Commit(deltaSize, writeConflicts int, halted bool)
}
