// Package stats aggregates cycle phase timings and counters: the phase
// breakdown experiment E5 reports, and the percentile summaries and
// latency histograms behind the server's /metrics.
package stats

import "time"

// Cycle is one committed engine cycle as Summarize reads it: 64 bytes, the
// sample /metrics keeps per cycle of its engine.window.
type Cycle struct {
	// Phase wall-clock durations.
	Match  time.Duration // matcher delta application
	Redact time.Duration // meta-rule fixpoint
	Fire   time.Duration // RHS evaluation of every survivor
	Apply  time.Duration // working-memory delta reconciliation + commit

	// Counters.
	ConflictSize int // eligible instantiations before redaction
	Redacted     int // instantiations removed by meta-rules
	Fired        int // instantiations fired
	DeltaSize    int // WM changes produced
}

// Breakdown returns each phase's share of a run's phase time — match,
// redact, fire, apply, the order the engines' Result.Phases keep — in
// percent. Shares are zero when no time was recorded at all.
func Breakdown(phases [4]time.Duration) (matchPct, redactPct, firePct, applyPct float64) {
	total := phases[0] + phases[1] + phases[2] + phases[3]
	if total == 0 {
		return 0, 0, 0, 0
	}
	pct := func(d time.Duration) float64 { return 100 * float64(d) / float64(total) }
	return pct(phases[0]), pct(phases[1]), pct(phases[2]), pct(phases[3])
}
