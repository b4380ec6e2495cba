package core

import (
	"slices"
	"testing"
	"time"

	"parulel/internal/compile"
	"parulel/internal/match"
	"parulel/internal/match/rete"
	"parulel/internal/programs"
	"parulel/internal/workload"
)

// phaseSum accumulates per-phase time the way the repository benchmark's
// tracer does.
type phaseSum struct{ phase [4]time.Duration }

func (p *phaseSum) CycleStart(int)                     {}
func (p *phaseSum) PhaseEnd(ph Phase, d time.Duration) { p.phase[ph] += d }
func (p *phaseSum) InstantiationsFound(int, int)       {}
func (p *phaseSum) Redacted(int, int, int)             {}
func (p *phaseSum) RuleFired(string, int)              {}
func (p *phaseSum) Commit(int, int, bool)              {}

// redactionInstances are the engine-level instances EXPERIMENTS.md tables:
// the repository benchmark's alexsys_run (40 pools × 32 orders, seed 1) and
// waltz_run (32 cubes) instances first, then a larger alexsys, the programs
// whose firings replace the conflict set every cycle (manners, quickstart),
// the small-conflict-set ones (circuit, closure) and one without meta-rules.
var redactionInstances = []struct {
	name, prog string
	load       func(workload.Inserter) error
}{
	{"alexsys", programs.Alexsys, func(i workload.Inserter) error { return workload.Alexsys(i, 40, 32, 1) }},
	{"waltz", programs.Waltz, func(i workload.Inserter) error { return workload.WaltzScene(i, 32) }},
	{"alexsys150x100", programs.Alexsys, func(i workload.Inserter) error { return workload.Alexsys(i, 150, 100, 1) }},
	{"manners64", programs.Manners, func(i workload.Inserter) error { return workload.Manners(i, 64, 3, 8, 1) }},
	{"manners16", programs.Manners, func(i workload.Inserter) error { return workload.Manners(i, 16, 3, 8, 1) }},
	{"quickstart40", programs.Quickstart, func(i workload.Inserter) error { return workload.People(i, 40) }},
	{"circuit-bus", programs.Circuit, func(i workload.Inserter) error { return workload.GenBusCircuit(8, 10, 12, 1).Insert(i) }},
	{"closure", programs.Closure, func(i workload.Inserter) error { return workload.LayeredDAG(i, 5, 4, 2, 1) }},
	{"life", programs.Life, func(i workload.Inserter) error {
		return workload.LifeGrid(i, 8, 8, workload.LifeRandom(8, 8, 0.4, 1), 4)
	}},
}

// BenchmarkRedactionBound runs each instance to quiescence on a bare engine
// configured the way a server session is (RETE, per-rule profiling on),
// and reports the per-phase times next to ns/op and allocations. The
// oracle arm is the same engine with the per-cycle joiner of
// redact_oracle_test.go in place of the meta level:
// what redaction cost before it was incremental, and the bar for programs
// whose conflict set turns over every cycle.
func BenchmarkRedactionBound(b *testing.B) {
	for _, wl := range redactionInstances {
		prog, err := programs.Load(wl.prog)
		if err != nil {
			b.Fatal(err)
		}
		for _, arm := range []struct {
			name   string
			oracle bool
		}{{"w1", false}, {"oracle", true}} {
			b.Run(wl.name+"/"+arm.name, func(b *testing.B) {
				var ph phaseSum
				opts := Options{MaxCycles: 1 << 20, Tracer: &ph,
					Matcher: rete.Factory(rete.Options{Profile: true})}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if arm.oracle {
						e := newOracleEngine(prog, opts)
						if err := wl.load(e); err != nil {
							b.Fatal(err)
						}
						e.run(b)
						ph.phase[PhaseRedact] += e.redactTime
						continue
					}
					e := New(prog, opts)
					if err := wl.load(e); err != nil {
						b.Fatal(err)
					}
					if _, err := e.Run(); err != nil {
						b.Fatal(err)
					}
				}
				names := []string{"match-ns/op", "redact-ns/op", "fire-ns/op", "apply-ns/op"}
				if arm.oracle {
					names = []string{PhaseRedact: "redact-ns/op"} // the skeleton times nothing else
				}
				for p, name := range names {
					if name != "" {
						b.ReportMetric(float64(ph.phase[p].Nanoseconds())/float64(b.N), name)
					}
				}
			})
		}
	}
}

// eligibleDelta is what one redact phase was fed: the instantiations that
// stopped being eligible since the last one and those that became
// eligible, by their index in the stream's instantiations.
type eligibleDelta struct {
	left, entered []int
}

// recordEligible runs a builtin to quiescence and returns the delta stream
// its meta level was fed, reconstructed from the eligible sets the redact
// phases saw, over the instantiations it returns.
func recordEligible(tb testing.TB, builtin string, load func(workload.Inserter) error) (*compile.Program, []*match.Instantiation, []eligibleDelta) {
	tb.Helper()
	prog, err := programs.Load(builtin)
	if err != nil {
		tb.Fatal(err)
	}
	e := New(prog, Options{MaxCycles: 1 << 20})
	if err := load(e); err != nil {
		tb.Fatal(err)
	}
	var ins []*match.Instantiation
	var stream []eligibleDelta
	prev := map[*match.Instantiation]int{}
	for progress := true; progress; {
		var eligible []*match.Instantiation
		eligible, _, progress = observeStep(tb, e)
		var d eligibleDelta
		cur := make(map[*match.Instantiation]int, len(eligible))
		for _, in := range eligible {
			id, ok := prev[in]
			if !ok {
				id = len(ins)
				ins = append(ins, in)
				d.entered = append(d.entered, id)
			}
			cur[in] = id
		}
		for in, id := range prev {
			if _, ok := cur[in]; !ok {
				d.left = append(d.left, id)
			}
		}
		slices.SortFunc(d.left, func(a, b int) int { return ins[a].Compare(ins[b]) })
		stream = append(stream, d)
		prev = cur
	}
	return prog, ins, stream
}

// BenchmarkMetaLevel replays onto a fresh meta level per iteration the
// eligible-set deltas of three engine runs: alexsys_run's instance, where
// instantiations stay eligible for cycles, and manners(64) and
// quickstart(40), where every cycle replaces them all. One op is the whole
// stream; ns/probe is the figure to compare across them, research-probes
// says how many of the probes were spent finding a new witness after one
// left, and tuples how many witnesses were found.
func BenchmarkMetaLevel(b *testing.B) {
	for _, wl := range redactionInstances {
		switch wl.name {
		case "alexsys", "manners64", "quickstart40":
		default:
			continue
		}
		prog, ins, stream := recordEligible(b, wl.prog, wl.load)
		b.Run(wl.name, func(b *testing.B) {
			b.ReportAllocs()
			var probes, researchProbes, tuples uint64
			imgs := make([]*image, len(ins))
			for i := 0; i < b.N; i++ {
				m := newMetaLevel(prog)
				sum := func() (n uint64) {
					for _, p := range m.profs {
						n += p.Probes
					}
					return n
				}
				for _, d := range stream {
					for _, id := range d.left {
						m.leave(imgs[id])
					}
					before := sum()
					m.sync() // what left goes first in any case
					researchProbes += sum() - before
					for _, id := range d.entered {
						imgs[id] = m.enter(ins[id])
					}
					m.sync()
				}
				probes += sum()
				for _, p := range m.profs {
					tuples += p.insts
				}
			}
			b.ReportMetric(float64(probes)/float64(b.N), "probes/op")
			b.ReportMetric(float64(researchProbes)/float64(b.N), "research-probes/op")
			b.ReportMetric(float64(tuples)/float64(b.N), "tuples/op")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(probes), "ns/probe")
		})
	}
}
