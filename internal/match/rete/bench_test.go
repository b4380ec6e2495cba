package rete_test

import (
	"runtime"
	"testing"

	"parulel/internal/compile"
	"parulel/internal/core"
	"parulel/internal/match"
	"parulel/internal/match/rete"
	"parulel/internal/programs"
	"parulel/internal/wm"
	"parulel/internal/workload"
)

// stream is what the network of an engine run was given: its rules and
// every delta in order, to be replayed onto fresh networks.
type stream struct {
	rules  []*compile.Rule
	deltas []wm.Delta
}

func (s *stream) replay(opts rete.Options) match.Matcher {
	n := rete.NewWithOptions(s.rules, opts)
	for _, d := range s.deltas {
		n.Apply(d)
	}
	return n
}

// tap is a matcher that logs its deltas on the way through.
type tap struct {
	match.Matcher
	s *stream
}

func (t tap) Apply(d wm.Delta) match.Changes {
	t.s.deltas = append(t.s.deltas, wm.Delta{
		Added:   append([]*wm.WME(nil), d.Added...),
		Removed: append([]*wm.WME(nil), d.Removed...),
	})
	return t.Matcher.Apply(d)
}

// record runs a builtin on an engine to quiescence and returns the delta
// stream of its match network.
func record(tb testing.TB, builtin string, load func(workload.Inserter) error) *stream {
	tb.Helper()
	prog, err := programs.Load(builtin)
	if err != nil {
		tb.Fatal(err)
	}
	var s *stream
	e := core.New(prog, core.Options{MaxCycles: 1 << 20, Matcher: func(rules []*compile.Rule) match.Matcher {
		s = &stream{rules: rules}
		return tap{rete.New(rules), s}
	}})
	if err := load(e); err != nil {
		tb.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		tb.Fatal(err)
	}
	return s
}

// joinChain is a four-deep equality join over one template, fed a ring in
// which every node links to the next two: 16 paths end at every node. The
// ring goes in 64 links to a delta and comes out the same way.
func joinChain(tb testing.TB) *stream {
	tb.Helper()
	prog, err := compile.CompileSource(`
(literalize link from to)
(rule path4
  (link ^from <a> ^to <b>)
  (link ^from <b> ^to <c>)
  (link ^from <c> ^to <d>)
  (link ^from <d> ^to <e>)
-->
  (halt))
`)
	if err != nil {
		tb.Fatal(err)
	}
	const nodes = 256
	mem := wm.NewMemory(prog.Schema)
	var links []*wm.WME
	for i := 0; i < nodes; i++ {
		for hop := 1; hop <= 2; hop++ {
			w, err := mem.Insert("link", map[string]wm.Value{"from": wm.Int(int64(i)), "to": wm.Int(int64((i + hop) % nodes))})
			if err != nil {
				tb.Fatal(err)
			}
			links = append(links, w)
		}
	}
	s := &stream{rules: prog.Rules}
	for i := 0; i < len(links); i += 64 {
		s.deltas = append(s.deltas, wm.Delta{Added: links[i : i+64]})
	}
	for i := 0; i < len(links); i += 64 {
		s.deltas = append(s.deltas, wm.Delta{Removed: links[i : i+64]})
	}
	return s
}

func tokensOf(m match.Matcher) (tokens uint64) {
	for _, p := range m.(match.RuleProfiler).RuleProfiles() {
		tokens += p.Tokens
	}
	return tokens
}

// BenchmarkNetworkApply replays, onto a fresh network per iteration and
// with profiling on as a server session has it, the deltas of the
// repository benchmark's match-bound instance, waltz_run, and a synthetic
// deep join. One op is the whole stream; ns/token is the figure to compare
// across the two. (alexsys_run's time is in the meta level, which is not a
// match network: BenchmarkMetaLevel in internal/core replays that.)
func BenchmarkNetworkApply(b *testing.B) {
	waltz := record(b, programs.Waltz, func(i workload.Inserter) error { return workload.WaltzScene(i, 32) })
	for _, bc := range []struct {
		name string
		s    *stream
		opts rete.Options
	}{
		{"waltz32", waltz, rete.Options{Profile: true}},
		{"joinchain", joinChain(b), rete.Options{Profile: true}},
		// What the per-rule clock costs: the first row without it.
		{"waltz32-noprofile", waltz, rete.Options{}},
		// What the hash-join indexes buy (EXPERIMENTS.md E11): the first
		// row with every join and negative node on the nested-loop path.
		{"waltz32-noindex", waltz, rete.Options{Profile: true, DisableJoinIndex: true}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var tokens uint64
			for i := 0; i < b.N; i++ {
				tokens += tokensOf(bc.s.replay(bc.opts))
			}
			b.ReportMetric(float64(tokens)/float64(b.N), "tokens/op")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(tokens), "ns/token")
		})
	}
}

// TestApplyAllocationBudget holds the match network to an allocation
// budget on waltz (8 and 32 cubes), network construction included. What a
// token may cost the allocator is its share of an arena chunk, of its
// WME's record and memberships and of the index tables — a few dozen
// chunks and table doublings for the whole run — and its instantiation if
// it completes a match; nothing per token, per bucket or per probe.
// Measured: 0.54 and 0.29 allocations and 152 and 142 bytes per token
// with the join indexes (3.09 and 335 when tokens, WME records and
// buckets were objects), fewer without.
func TestApplyAllocationBudget(t *testing.T) {
	for _, cubes := range []int{8, 32} {
		waltz := record(t, programs.Waltz, func(i workload.Inserter) error { return workload.WaltzScene(i, cubes) })
		tokens := tokensOf(waltz.replay(rete.Options{}))
		if tokens < 2000 {
			t.Fatalf("waltz(%d) built %d tokens; the instance has changed", cubes, tokens)
		}
		const maxAllocs, maxBytes = 0.8, 170
		for _, opts := range []rete.Options{{}, {Profile: true}, {DisableJoinIndex: true}} {
			const runs = 5
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				waltz.replay(opts)
			}
			runtime.ReadMemStats(&after)
			allocs := float64(after.Mallocs-before.Mallocs) / runs / float64(tokens)
			bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(tokens)
			if allocs > maxAllocs || bytes > maxBytes {
				t.Errorf("waltz(%d) %+v: %.2f allocations and %.0f bytes per token over %d tokens, budget %.1f and %d", cubes, opts, allocs, bytes, tokens, maxAllocs, maxBytes)
			}
			t.Logf("waltz(%d) %+v: %.2f allocations, %.0f bytes per token", cubes, opts, allocs, bytes)
		}
	}
}
