package core_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"parulel/internal/compile"
	"parulel/internal/core"
	"parulel/internal/obs"
	"parulel/internal/programs"
	"parulel/internal/workload"
)

// TestEngineTraceOutput: the one-line-per-cycle text trace is a rendering
// of the tracer's events (it lives here, outside the package, because obs
// imports core).
func TestEngineTraceOutput(t *testing.T) {
	prog, err := compile.CompileSource(`
(literalize a x)
(rule r (a ^x <v>) --> (remove 1))
(wm (a ^x 1))
`)
	if err != nil {
		t.Fatal(err)
	}
	var trace bytes.Buffer
	if _, err := core.New(prog, core.Options{Tracer: obs.NewTextWriter(&trace)}).Run(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(trace.String(), "cycle 1:") {
		t.Errorf("trace missing: %q", trace.String())
	}
}

// TestPhasesWithinWall: the four phase times a run reports are parts of
// its wall time, so they sum to more than nothing and to no more than a
// wall clock read around Run. (A benchmark row once showed 959 ms of redact
// inside a 777 ms wall — by taking the two from different repetitions; the
// engine's own timers must never be able to.) The "w1" in the names is
// the engine's one fire loop.
func TestPhasesWithinWall(t *testing.T) {
	for _, tc := range []struct {
		prog string
		load func(workload.Inserter) error
	}{
		{programs.Alexsys, func(i workload.Inserter) error { return workload.Alexsys(i, 40, 30, 1) }},
		{programs.Waltz, func(i workload.Inserter) error { return workload.WaltzScene(i, 10) }},
	} {
		t.Run(tc.prog+"/w1", func(t *testing.T) {
			prog, err := programs.Load(tc.prog)
			if err != nil {
				t.Fatal(err)
			}
			e := core.New(prog, core.Options{MaxCycles: 1 << 20})
			if err := tc.load(e); err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			res, err := e.Run()
			wall := time.Since(start)
			if err != nil {
				t.Fatal(err)
			}
			m, r, f, a := res.Phases[core.PhaseMatch], res.Phases[core.PhaseRedact], res.Phases[core.PhaseFire], res.Phases[core.PhaseApply]
			if phases := m + r + f + a; phases <= 0 || phases > wall {
				t.Errorf("phases sum to %v (match %v, redact %v, fire %v, apply %v), wall is %v", phases, m, r, f, a, wall)
			}
		})
	}
}
