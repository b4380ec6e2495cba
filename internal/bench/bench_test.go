package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"parulel/internal/compile"
)

// TestExperimentsRunQuick executes every experiment at quick size and
// sanity-checks the emitted tables.
func TestExperimentsRunQuick(t *testing.T) {
	wantHeader := map[string]string{
		"e1":  "cycle-ratio",
		"e2":  "match-pot",
		"e3":  "split-k",
		"e4":  "matcher",
		"e5":  "redact%",
		"e6":  "over-allocated-orders",
		"e9":  "strategy",
		"e10": "beta-tokens",
	}
	for _, id := range Order {
		id := id
		t.Run(id, func(t *testing.T) {
			var buf bytes.Buffer
			if err := Experiments[id](&buf, true); err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			out := buf.String()
			if !strings.Contains(out, wantHeader[id]) {
				t.Errorf("%s output missing %q:\n%s", id, wantHeader[id], out)
			}
			if lines := strings.Count(out, "\n"); lines < 4 {
				t.Errorf("%s output too short (%d lines):\n%s", id, lines, out)
			}
		})
	}
}

func TestOrderCoversExperiments(t *testing.T) {
	if len(Order) != len(Experiments) {
		t.Fatalf("Order has %d ids, Experiments %d", len(Order), len(Experiments))
	}
	for _, id := range Order {
		if Experiments[id] == nil {
			t.Errorf("experiment %s missing", id)
		}
	}
}

func TestPotential(t *testing.T) {
	if p := potential(nil); p != 1 {
		t.Errorf("potential(nil) = %v, want 1", p)
	}
	if p := potential([]time.Duration{4, 4, 4, 4}); p != 4 {
		t.Errorf("balanced potential = %v, want 4", p)
	}
	if p := potential([]time.Duration{8, 0, 0, 0}); p != 1 {
		t.Errorf("serial potential = %v, want 1", p)
	}
	if p := potential([]time.Duration{6, 2}); p != (8.0 / 6.0) {
		t.Errorf("skewed potential = %v, want %v", p, 8.0/6.0)
	}
}

// TestSuiteRowPhasesWithinWall: a suite row's four phase times are parts
// of its wall time, so they may not sum to more than it. They did when the
// wall came from the fastest repetition and the phases from the last one
// (the "959 ms of redact inside a 777 ms wall" row of BENCH_after.json);
// three repetitions at quick size give a slower last repetition every
// chance to show.
func TestSuiteRowPhasesWithinWall(t *testing.T) {
	doc, err := runSuite(true, 3, compile.EvalBytecode)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Results) != len(suite(true))*len(jsonConfigs) {
		t.Fatalf("%d rows, want one per workload and configuration", len(doc.Results))
	}
	for _, r := range doc.Results {
		if phases := r.MatchNS + r.RedactNS + r.FireNS + r.ApplyNS; phases <= 0 || phases > r.WallNS {
			t.Errorf("%s [%s w=%d]: phases sum to %d ns, wall is %d ns", r.Workload, r.Matcher, r.Workers, phases, r.WallNS)
		}
	}
}
