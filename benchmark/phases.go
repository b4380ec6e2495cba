package main

import (
	"time"

	"parulel/internal/core"
)

// phaseTracer implements core.Tracer — the engine's existing public hook —
// in the harness, so the per-phase account is kept on this side of the
// boundary. It is called from the engine's own goroutine only.
type phaseTracer struct {
	phase          [4]time.Duration // indexed by core.Phase
	cycles         int
	eligible       int // instantiations found, summed over cycles
	conflictPeak   int
	redacted       int
	fired          int
	writeConflicts int
}

func (t *phaseTracer) CycleStart(int) {}

func (t *phaseTracer) PhaseEnd(p core.Phase, d time.Duration) { t.phase[p] += d }

func (t *phaseTracer) InstantiationsFound(conflictSet, eligible int) {
	t.eligible += eligible
	if conflictSet > t.conflictPeak {
		t.conflictPeak = conflictSet
	}
}

func (t *phaseTracer) Redacted(redacted, _, _ int) { t.redacted += redacted }

func (t *phaseTracer) RuleFired(_ string, count int) { t.fired += count }

func (t *phaseTracer) Commit(_, writeConflicts int, _ bool) {
	t.cycles++
	t.writeConflicts += writeConflicts
}
