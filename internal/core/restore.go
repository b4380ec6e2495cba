package core

import (
	"fmt"
	"sort"

	"parulel/internal/match"
	"parulel/internal/wm"
)

// This file exposes the engine state a durability layer must capture and
// restore beyond the working-memory contents. The engine is deterministic
// for a fixed program and mutation history (the property the differential
// tests enforce), so the replayable state is small:
//
//   - the run counters (cycles, firings, redactions, …) and the halted flag;
//   - the working memory's time-tag counter — tags feed meta-rule recency
//     tests and gensym values, so replayed insertions must mint the exact
//     tags the original process did;
//   - the refraction set — keys of fired instantiations still present in
//     the conflict set. The conflict set itself is *not* serialized: it is
//     recomputed by re-matching the restored working memory, and because
//     instantiation keys are a pure function of (rule index, time-tag
//     vector), the recomputed keys line up with the serialized ones.
//
// Everything else (matcher networks, pending delta bookkeeping) is
// derivable: a restored engine queues its whole working memory as the
// pending delta and the first Step rebuilds the match state.

// Counters is the engine's replayable counter state.
type Counters struct {
	Cycles          int   `json:"cycles"`
	Firings         int   `json:"firings"`
	Redactions      int   `json:"redactions"`
	RedactionRounds int   `json:"redaction_rounds"`
	WriteConflicts  int   `json:"write_conflicts"`
	Halted          bool  `json:"halted,omitempty"`
	NextTime        int64 `json:"next_time"`
}

// Counters returns the current replayable counter state.
func (e *Engine) Counters() Counters {
	return Counters{
		Cycles:          e.result.Cycles,
		Firings:         e.result.Firings,
		Redactions:      e.result.Redactions,
		RedactionRounds: e.result.RedactionRounds,
		WriteConflicts:  e.result.WriteConflicts,
		Halted:          e.halted,
		NextTime:        e.mem.NextTime(),
	}
}

// RestoreCounters installs checkpointed counter state into a freshly
// built engine (Options.NoInitialFacts, before any Step).
func (e *Engine) RestoreCounters(c Counters) {
	e.result.Cycles = c.Cycles
	e.result.Firings = c.Firings
	e.result.Redactions = c.Redactions
	e.result.RedactionRounds = c.RedactionRounds
	e.result.WriteConflicts = c.WriteConflicts
	e.result.Halted = c.Halted
	e.halted = c.Halted
	e.mem.SetNextTime(c.NextTime)
}

// RestoreWME reinstates a checkpointed working-memory element under its
// original time tag and queues it for the first match phase, exactly as
// if it were still the pending insertion of a committed cycle.
func (e *Engine) RestoreWME(template string, fields map[string]wm.Value, time int64) (*wm.WME, error) {
	w, err := e.mem.InsertAt(template, fields, time)
	if err != nil {
		return nil, err
	}
	e.pending.Added = append(e.pending.Added, w)
	return w, nil
}

// FiredKeys returns the refraction set — the keys of instantiations that
// have fired and are still continuously present in the conflict set — in
// a deterministic order, for checkpointing. Before the first match phase
// after a restore, that is the restored set.
func (e *Engine) FiredKeys() []match.Key {
	keys := make([]match.Key, 0, e.refracted+len(e.restored))
	for i := range e.cs {
		if e.cs[i].fired {
			keys = append(keys, e.cs[i].in.Key())
		}
	}
	for k := range e.restored {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		switch {
		case a.Rule != b.Rule:
			return a.Rule < b.Rule
		case a.Tags != b.Tags:
			for t := range a.Tags {
				if a.Tags[t] != b.Tags[t] {
					return a.Tags[t] < b.Tags[t]
				}
			}
		case a.Len != b.Len:
			return a.Len < b.Len
		}
		return a.Hash < b.Hash
	})
	return keys
}

// RestoreFired reinstates a checkpointed refraction set into a freshly
// built engine. The keys refer to instantiations of the restored working
// memory; when the first match phase recomputes the conflict set, these
// instantiations are recognized as already fired and excluded from the
// eligible set — without this, recovery would re-fire rules the crashed
// process already fired. A key that phase does not find named an
// instantiation the checkpointed engine's pending delta was about to
// remove; it is forgotten with the rest of the set when the phase ends.
func (e *Engine) RestoreFired(keys []match.Key) {
	if len(keys) == 0 {
		return
	}
	e.restored = make(map[match.Key]bool, len(keys))
	for _, k := range keys {
		e.restored[k] = true
	}
}

// CurrentResult returns the cumulative result of all cycles run so far,
// without requiring another Run call. The durability layer uses it to
// seed a rehydrated session's last-result bookkeeping.
func (e *Engine) CurrentResult() Result { return e.result }

// ReplaySteps re-executes exactly n committed cycles of a logged run.
// The engine's determinism guarantees the replayed cycles reproduce the
// original working-memory evolution; the cycle counter is verified after
// replay and a mismatch is reported as divergence (a corrupt log or a
// determinism bug, never silently accepted).
func (e *Engine) ReplaySteps(n int) error {
	before := e.result.Cycles
	for i := 0; i < n; i++ {
		if _, err := e.Step(); err != nil {
			return fmt.Errorf("core: replay step %d/%d: %w", i+1, n, err)
		}
	}
	if got := e.result.Cycles - before; got != n {
		return fmt.Errorf("core: replay diverged: %d cycles committed, log recorded %d", got, n)
	}
	return nil
}
