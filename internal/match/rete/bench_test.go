package rete_test

import (
	"testing"

	"parulel/internal/compile"
	"parulel/internal/core"
	"parulel/internal/match"
	"parulel/internal/match/rete"
	"parulel/internal/programs"
	"parulel/internal/wm"
	"parulel/internal/workload"
)

// stream is what one network of an engine run was given: its rules and
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

// record runs a builtin on a one-worker engine to quiescence and returns
// the delta stream of its match network.
func record(tb testing.TB, builtin string, load func(workload.Inserter) error) *stream {
	tb.Helper()
	prog, err := programs.Load(builtin)
	if err != nil {
		tb.Fatal(err)
	}
	var streams []*stream
	e := core.New(prog, core.Options{Workers: 1, MaxCycles: 1 << 20, Matcher: func(rules []*compile.Rule) match.Matcher {
		s := &stream{rules: rules}
		streams = append(streams, s)
		return tap{rete.New(rules), s}
	}})
	if err := load(e); err != nil {
		tb.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		tb.Fatal(err)
	}
	if len(streams) != 1 {
		tb.Fatalf("%s: %d networks, want one worker's", builtin, len(streams))
	}
	return streams[0]
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
// budget on waltz (8 cubes). What a token may cost is the token itself, its
// instantiation if it completes a match, and its share of its WME's record
// and of the storage of the bucket it joins — nothing per map entry and
// nothing per probe. Measured: 3.09 allocations per token with the join
// indexes (the map-backed memories took 4.06), 2.13 without.
func TestApplyAllocationBudget(t *testing.T) {
	waltz := record(t, programs.Waltz, func(i workload.Inserter) error { return workload.WaltzScene(i, 8) })
	tokens := tokensOf(waltz.replay(rete.Options{}))
	if tokens < 2000 {
		t.Fatalf("waltz(8) built %d tokens; the instance has changed", tokens)
	}
	const budget = 3.4
	for _, opts := range []rete.Options{{}, {Profile: true}, {DisableJoinIndex: true}} {
		allocs := testing.AllocsPerRun(5, func() { waltz.replay(opts) })
		if perToken := allocs / float64(tokens); perToken > budget {
			t.Errorf("%+v: %.0f allocations for %d tokens, %.2f per token, budget %.2f", opts, allocs, tokens, perToken, budget)
		}
	}
}
