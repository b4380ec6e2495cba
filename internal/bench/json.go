package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"parulel/internal/compile"
	"parulel/internal/core"
	"parulel/internal/match"
	"parulel/internal/match/rete"
	"parulel/internal/match/treat"
	"parulel/internal/programs"
)

// Machine-readable benchmark output (`parbench -json`): one BENCH_*.json
// document per invocation, so the performance trajectory across PRs can be
// tracked by diffing documents instead of scraping tables.

// JSONResult is one (workload, configuration) measurement.
type JSONResult struct {
	Workload         string  `json:"workload"`
	Engine           string  `json:"engine"`
	Matcher          string  `json:"matcher"`
	Workers          int     `json:"workers"`
	WallNS           int64   `json:"wall_ns"` // fastest of the repetitions
	Cycles           int     `json:"cycles"`
	Firings          int     `json:"firings"`
	Redactions       int     `json:"redactions"`
	WriteConflicts   int     `json:"write_conflicts"`
	WMSize           int     `json:"wm_size"`
	MatchNS          int64   `json:"match_ns"`
	RedactNS         int64   `json:"redact_ns"`
	FireNS           int64   `json:"fire_ns"`
	ApplyNS          int64   `json:"apply_ns"`
	PotentialSpeedup float64 `json:"potential_speedup"` // sum/max of worker match time
	// TopRules are the five most-fired rules of the final repetition,
	// ordered by firing count — enough to spot a workload whose hot rule
	// set shifted between benchmark documents.
	TopRules []RuleFiring `json:"top_rules,omitempty"`
}

// RuleFiring is one rule's firing count within a result.
type RuleFiring struct {
	Rule  string `json:"rule"`
	Fires int    `json:"fires"`
}

// topRules ranks a RuleFires map and keeps the hottest n.
func topRules(fires map[string]int, n int) []RuleFiring {
	out := make([]RuleFiring, 0, len(fires))
	for rule, c := range fires {
		out = append(out, RuleFiring{Rule: rule, Fires: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Fires != out[j].Fires {
			return out[i].Fires > out[j].Fires
		}
		return out[i].Rule < out[j].Rule
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// JSONDoc is the whole document.
type JSONDoc struct {
	Schema      string       `json:"schema"` // "parulel-bench/v1"
	GeneratedAt string       `json:"generated_at"`
	GoVersion   string       `json:"go_version"`
	GOOS        string       `json:"goos"`
	GOARCH      string       `json:"goarch"`
	NumCPU      int          `json:"num_cpu"`
	Quick       bool         `json:"quick"`
	EvalMode    string       `json:"eval_mode"` // expression backend the suite ran with
	Results     []JSONResult `json:"results"`
}

// jsonConfigs are the engine configurations measured per workload: the
// worker-scaling axis on RETE plus a TREAT point, mirroring E2/E4.
var jsonConfigs = []struct {
	matcher string
	factory func(mode compile.EvalMode) match.Factory
	workers int
}{
	{"rete", func(m compile.EvalMode) match.Factory { return rete.Factory(rete.Options{EvalMode: m}) }, 1},
	{"rete", func(m compile.EvalMode) match.Factory { return rete.Factory(rete.Options{EvalMode: m}) }, 2},
	{"rete", func(m compile.EvalMode) match.Factory { return rete.Factory(rete.Options{EvalMode: m}) }, 4},
	{"treat", func(m compile.EvalMode) match.Factory { return treat.Factory(treat.Options{EvalMode: m}) }, 4},
}

// RunJSON measures the standard workload suite under the given expression
// backend and returns the document.
func RunJSON(quick bool, mode compile.EvalMode) (*JSONDoc, error) {
	return runSuite(quick, reps(quick), mode)
}

// runSuite is RunJSON with the repetition count explicit. Every number of
// a row — wall time, phase times, counters, worker balance — comes from
// one and the same repetition, the fastest, so a row's phases always sum
// to at most its wall time.
func runSuite(quick bool, reps int, mode compile.EvalMode) (*JSONDoc, error) {
	doc := &JSONDoc{
		Schema:      "parulel-bench/v1",
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		Quick:       quick,
		EvalMode:    mode.String(),
	}
	for _, spec := range suite(quick) {
		for _, cfg := range jsonConfigs {
			var last *core.Engine
			var lastRes core.Result
			var wall time.Duration
			for rep := 0; rep < reps; rep++ {
				prog, err := programs.Load(spec.prog)
				if err != nil {
					return nil, err
				}
				e := core.New(prog, core.Options{
					Workers:   cfg.workers,
					Matcher:   cfg.factory(mode),
					MaxCycles: 1 << 20,
					EvalMode:  mode,
				})
				if err := spec.load(e); err != nil {
					return nil, err
				}
				start := time.Now()
				res, err := e.Run()
				d := time.Since(start)
				if err != nil {
					return nil, fmt.Errorf("%s [%s w=%d]: %w", spec.name, cfg.matcher, cfg.workers, err)
				}
				if last == nil || d < wall {
					last, lastRes, wall = e, res, d
				}
			}
			m, r, f, a := lastRes.Stats.Totals()
			matchWork, _ := last.WorkerWork()
			var sum, max time.Duration
			for _, d := range matchWork {
				sum += d
				if d > max {
					max = d
				}
			}
			speedup := 1.0
			if max > 0 {
				speedup = float64(sum) / float64(max)
			}
			doc.Results = append(doc.Results, JSONResult{
				Workload:         spec.name,
				Engine:           "parulel",
				Matcher:          cfg.matcher,
				Workers:          cfg.workers,
				WallNS:           wall.Nanoseconds(),
				Cycles:           lastRes.Cycles,
				Firings:          lastRes.Firings,
				Redactions:       lastRes.Redactions,
				WriteConflicts:   lastRes.WriteConflicts,
				WMSize:           last.Memory().Len(),
				MatchNS:          m.Nanoseconds(),
				RedactNS:         r.Nanoseconds(),
				FireNS:           f.Nanoseconds(),
				ApplyNS:          a.Nanoseconds(),
				PotentialSpeedup: speedup,
				TopRules:         topRules(last.RuleFires(), 5),
			})
		}
	}
	return doc, nil
}

// WriteJSON renders the document, indented for diff-friendliness.
func WriteJSON(w io.Writer, doc *JSONDoc) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
