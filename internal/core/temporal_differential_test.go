package core_test

// Differential coverage for the temporal subsystem: a streamed workload
// with TTL expiry and window aggregates must produce bit-identical
// firing sequences and final working memory across the full
// {RETE, TREAT} × {index on, off} × {lowered, unlowered program} grid. Expiry is
// an engine-driven retract, so a matcher that mishandles removals (or an
// eval backend that mis-scores a window test) would diverge here.

import (
	"sort"
	"testing"

	"parulel/internal/compile"
	"parulel/internal/core"
	"parulel/internal/match"
	"parulel/internal/temporal"
	"parulel/internal/wm"
	"parulel/internal/workload"
)

// runTemporalOutcome streams eight frames of the fraud workload into an
// engine under one grid configuration — insert, tick, run to quiescence
// per frame, plus a per-fact TTL override on every fifth transaction —
// then drains the stream with six empty ticks so everything expirable
// expires.
func runTemporalOutcome(t *testing.T, prog *compile.Program, f match.Factory) (outcome, int, int64) {
	t.Helper()
	tr := &firingTracer{}
	e := core.New(prog, core.Options{MaxCycles: 1 << 20, Matcher: f, Tracer: tr})
	m := temporal.New(prog, e)

	var out outcome
	expired := 0
	step := func(facts []map[string]wm.Value, frame int) {
		for i, fields := range facts {
			w, err := e.Insert("txn", fields)
			if err != nil {
				t.Fatal(err)
			}
			if i%5 == 0 {
				m.SetTTL(w, 2) // override: hot-path facts die faster
			}
		}
		res := m.Tick()
		expired += res.Expired
		r, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		out.cycles += r.Cycles
		out.firings += r.Firings
		out.redactions += r.Redactions
		out.conflicts += r.WriteConflicts
		_ = frame
	}
	for frame := 0; frame < 8; frame++ {
		step(workload.FraudTxns(frame, 24, 6, 1), frame)
	}
	for i := 0; i < 6; i++ {
		step(nil, -1)
	}

	snap := e.Memory().Snapshot()
	out.wm = make([]string, len(snap))
	for i, w := range snap {
		out.wm[i] = w.String()
	}
	sort.Strings(out.wm)
	out.firing = tr.firing
	return out, expired, m.Now()
}

// TestTemporalDifferentialGrid sweeps the streamed fraud workload across
// all six matcher/index/eval configurations: identical firing
// sequences, final working memory, expiry counts and clock values.
func TestTemporalDifferentialGrid(t *testing.T) {
	progs := compileBoth(t, workload.FraudStreamProgram)
	base, baseExpired, baseNow := runTemporalOutcome(t, progs[matcherConfigs[0].prog], matcherConfigs[0].factory)
	if baseExpired == 0 {
		t.Fatal("no facts expired; the temporal dimension of this test is vacuous")
	}
	if len(base.wm) == 0 || base.firings == 0 {
		t.Fatal("empty baseline run; test is vacuous")
	}
	for _, cfg := range matcherConfigs[1:] {
		got, gotExpired, gotNow := runTemporalOutcome(t, progs[cfg.prog], cfg.factory)
		if gotExpired != baseExpired {
			t.Fatalf("%s: expired %d facts, want %d", cfg.name, gotExpired, baseExpired)
		}
		if gotNow != baseNow {
			t.Fatalf("%s: clock at %d, want %d", cfg.name, gotNow, baseNow)
		}
		diffOutcomes(t, cfg.name, base, got)
	}
}
