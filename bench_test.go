// Benchmarks, one family per experiment of the reconstructed evaluation
// (DESIGN.md §3). Run with:
//
//	go test -run '^$' -bench . -benchmem
//
// Each attaches the counters its table in EXPERIMENTS.md reports as custom
// metrics. E10 and E11 are benchmarks beside the code they measure
// (internal/reorder, internal/match/rete); E2 and E3 are retired.
package parulel

import (
	"fmt"
	"io"
	"testing"

	"parulel/internal/compile"
	"parulel/internal/core"
	"parulel/internal/match"
	"parulel/internal/match/rete"
	"parulel/internal/match/treat"
	"parulel/internal/obs"
	"parulel/internal/ops5"
	"parulel/internal/programs"
	"parulel/internal/stats"
	"parulel/internal/wm"
	"parulel/internal/workload"
)

type loader func(ins workload.Inserter) error

var benchWorkloads = []struct {
	name string
	prog string
	load loader
}{
	{"waltz", programs.Waltz, func(i workload.Inserter) error { return workload.WaltzScene(i, 20) }},
	{"alexsys", programs.Alexsys, func(i workload.Inserter) error { return workload.Alexsys(i, 60, 40, 1) }},
	{"closure", programs.Closure, func(i workload.Inserter) error { return workload.LayeredDAG(i, 5, 4, 2, 1) }},
}

func mustLoad(b *testing.B, name string) *compile.Program {
	b.Helper()
	p, err := programs.Load(name)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// --- E1: PARULEL vs OPS5, cycles and firings ---

func BenchmarkE1(b *testing.B) {
	for _, wl := range benchWorkloads {
		b.Run("parulel/"+wl.name, func(b *testing.B) {
			var res core.Result
			for i := 0; i < b.N; i++ {
				e := core.New(mustLoad(b, wl.prog), core.Options{MaxCycles: 1 << 20})
				if err := wl.load(e); err != nil {
					b.Fatal(err)
				}
				var err error
				if res, err = e.Run(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Cycles), "cycles")
			b.ReportMetric(float64(res.Firings), "firings")
		})
		b.Run("ops5/"+wl.name, func(b *testing.B) {
			var res ops5.Result
			for i := 0; i < b.N; i++ {
				e := ops5.New(mustLoad(b, wl.prog), ops5.Options{MaxCycles: 1 << 24})
				if err := wl.load(e); err != nil {
					b.Fatal(err)
				}
				var err error
				if res, err = e.Run(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Cycles), "cycles")
			b.ReportMetric(float64(res.Firings), "firings")
		})
	}
}

// --- E4: RETE vs TREAT ---

// BenchmarkE4 loads a join chain of each depth into a fresh matcher and
// then replaces every seventh WME, and reports the state left: beta
// tokens, conflict-set size and the bytes of the matcher's own records
// (match.MemStats).
func BenchmarkE4(b *testing.B) {
	shapes := []struct{ depth, keys, copies int }{{2, 60, 2}, {4, 20, 2}, {6, 8, 2}}
	factories := []struct {
		name string
		f    match.Factory
	}{{"rete", rete.New}, {"treat", treat.New}}
	for _, sh := range shapes {
		prog, err := compile.CompileSource(workload.JoinChainProgram(sh.depth))
		if err != nil {
			b.Fatal(err)
		}
		facts := workload.JoinChainFacts(sh.keys, sh.depth, sh.copies, 1)
		tmpl := prog.Schema.MustLookup("rec")
		for _, f := range factories {
			b.Run(fmt.Sprintf("%s/depth=%d", f.name, sh.depth), func(b *testing.B) {
				var ms match.MemStats
				for i := 0; i < b.N; i++ {
					m := f.f(prog.Rules)
					mem := wm.NewMemory(prog.Schema)
					wmes := make([]*wm.WME, 0, len(facts))
					for _, fields := range facts {
						vec := make([]wm.Value, tmpl.Arity())
						for attr, v := range fields {
							idx, _ := tmpl.AttrIndex(attr)
							vec[idx] = v
						}
						wme := mem.InsertFields(tmpl, vec)
						wmes = append(wmes, wme)
						m.Apply(wm.Delta{Added: []*wm.WME{wme}})
					}
					for j := 0; j < len(wmes); j += 7 {
						old := wmes[j]
						mem.Remove(old.Time)
						nw := mem.InsertFields(old.Tmpl, old.Fields)
						m.Apply(wm.Delta{Removed: []*wm.WME{old}, Added: []*wm.WME{nw}})
						wmes[j] = nw
					}
					ms = m.MemStats()
				}
				b.ReportMetric(float64(ms.BetaTokens), "beta-tokens")
				b.ReportMetric(float64(ms.ConflictSet), "conflict-set")
				b.ReportMetric(float64(ms.Bytes), "bytes")
			})
		}
	}
}

// --- E5: phase breakdown ---

func BenchmarkE5(b *testing.B) {
	for _, wl := range benchWorkloads {
		b.Run(wl.name, func(b *testing.B) {
			var m, r, f, a float64
			for i := 0; i < b.N; i++ {
				e := core.New(mustLoad(b, wl.prog), core.Options{MaxCycles: 1 << 20})
				if err := wl.load(e); err != nil {
					b.Fatal(err)
				}
				res, err := e.Run()
				if err != nil {
					b.Fatal(err)
				}
				m, r, f, a = stats.Breakdown(res.Phases)
			}
			b.ReportMetric(m, "match%")
			b.ReportMetric(r, "redact%")
			b.ReportMetric(f, "fire%")
			b.ReportMetric(a, "apply%")
		})
	}
}

// --- Observability: trace hook overhead ---

// BenchmarkTracerOverhead measures the engine's trace hooks on waltz:
// the nil case is the default production path (one nil check per hook
// site and must stay within noise of a build without hooks), "ring" is
// the paruleld per-session ring buffer, and "jsonl" the CLI's encoder.
func BenchmarkTracerOverhead(b *testing.B) {
	variants := []struct {
		name   string
		tracer func() core.Tracer
	}{
		{"nil", func() core.Tracer { return nil }},
		{"ring", func() core.Tracer { return obs.NewRing(512) }},
		{"jsonl", func() core.Tracer { return obs.NewJSONLWriter(io.Discard) }},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := core.New(mustLoad(b, programs.Waltz), core.Options{
					MaxCycles: 1 << 20,
					Tracer:    v.tracer(),
				})
				if err := workload.WaltzScene(e, 20); err != nil {
					b.Fatal(err)
				}
				if _, err := e.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E6: meta-rules vs write conflicts ---

func BenchmarkE6(b *testing.B) {
	variants := []struct {
		name string
		load func() (*compile.Program, error)
	}{
		{"with-meta", func() (*compile.Program, error) { return programs.Load(programs.Alexsys) }},
		{"without-meta", func() (*compile.Program, error) { return programs.LoadWithoutMetaRules(programs.Alexsys) }},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			var res core.Result
			for i := 0; i < b.N; i++ {
				prog, err := v.load()
				if err != nil {
					b.Fatal(err)
				}
				e := core.New(prog, core.Options{MaxCycles: 1 << 20})
				if err := workload.Alexsys(e, 60, 40, 1); err != nil {
					b.Fatal(err)
				}
				if res, err = e.Run(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.WriteConflicts), "conflicts")
			b.ReportMetric(float64(res.Redactions), "redactions")
		})
	}
}
