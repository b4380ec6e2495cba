package core_test

import (
	"testing"
	"time"

	"parulel/internal/core"
	"parulel/internal/match/rete"
	"parulel/internal/programs"
	"parulel/internal/workload"
)

// phaseSum accumulates per-phase time the way the repository benchmark's
// tracer does.
type phaseSum struct{ phase [4]time.Duration }

func (p *phaseSum) CycleStart(int)                          {}
func (p *phaseSum) PhaseEnd(ph core.Phase, d time.Duration) { p.phase[ph] += d }
func (p *phaseSum) InstantiationsFound(int, int)            {}
func (p *phaseSum) Redacted(int, int, int)                  {}
func (p *phaseSum) RuleFired(string, int)                   {}
func (p *phaseSum) Commit(int, int, bool)                   {}

// BenchmarkRedactionBound runs the repository benchmark's alexsys_run
// instance (40 pools × 32 orders, seed 1) and its waltz_run instance
// (32 cubes) on a bare engine configured the way a server session is, and
// reports the per-phase times next to ns/op and allocations.
func BenchmarkRedactionBound(b *testing.B) {
	for _, wl := range []struct {
		name, prog string
		load       func(workload.Inserter) error
	}{
		{"alexsys", programs.Alexsys, func(i workload.Inserter) error { return workload.Alexsys(i, 40, 32, 1) }},
		{"waltz", programs.Waltz, func(i workload.Inserter) error { return workload.WaltzScene(i, 32) }},
	} {
		b.Run(wl.name, func(b *testing.B) {
			prog, err := programs.Load(wl.prog)
			if err != nil {
				b.Fatal(err)
			}
			var ph phaseSum
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e := core.New(prog, core.Options{Workers: 4, MaxCycles: 1 << 20, Tracer: &ph,
					Matcher: rete.Factory(rete.Options{Profile: true})})
				if err := wl.load(e); err != nil {
					b.Fatal(err)
				}
				if _, err := e.Run(); err != nil {
					b.Fatal(err)
				}
			}
			for p, name := range []string{"match-ns/op", "redact-ns/op", "fire-ns/op", "apply-ns/op"} {
				b.ReportMetric(float64(ph.phase[p].Nanoseconds())/float64(b.N), name)
			}
		})
	}
}
