package server

// What a run leaves behind must depend on the working memory and conflict
// set it ends with, not on how many cycles it took: a runaway rule program
// is bounded by MaxCycles and its deadline, and neither bound is worth
// much if every cycle costs memory until the run ends.

import (
	"context"
	"errors"
	"log/slog"
	"net/http"
	"runtime"
	"slices"
	"testing"
	"time"

	"parulel/internal/compile"
	"parulel/internal/core"
	"parulel/internal/load"
	"parulel/internal/match"
	"parulel/internal/match/rete"
	"parulel/internal/ops5"
	"parulel/internal/stats"
	"parulel/internal/wal"
	"parulel/internal/wm"
)

// tickSrc commits one cycle after another for as long as it is run.
const tickSrc = `(literalize c n)
(wm (c ^n 0))
(rule tick <c> <- (c ^n <n>) --> (modify <c> ^n (+ <n> 1)))`

// liveHeap is the heap in use once everything unreachable has been freed.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// samplePeriod is how many cycles apart heapGrowth's samples are taken.
const samplePeriod = 30_000

// heapGrowth runs f, which calls sample wherever the engine it drives is
// paused, and reports how far the live heap rose above where it stood
// before, after f and while it ran. A sample taken while an engine runs
// would count whatever the engine allocated during the sample's own
// collection, garbage or not; a paused engine allocates nothing. What a run
// retains per cycle only grows, so every sample of the run's second half
// lies above half of it, and the lowest of them is the figure.
func heapGrowth(f func(sample func())) int64 {
	base := liveHeap()
	var during []uint64
	f(func() { during = append(during, liveHeap()) })
	grown := liveHeap()
	if late := during[len(during)/2:]; len(late) > 0 {
		grown = max(grown, slices.Min(late))
	}
	return int64(grown) - int64(base)
}

// sampler calls sample every samplePeriod cycles from the engine's own
// goroutine between two cycles: as a core.Tracer from CycleStart, before
// the cycle's match phase, and for ops5 from its matcher's Apply, the first
// thing an ops5 cycle does.
type sampler struct {
	cycles int
	sample func()
}

func (s *sampler) tick() {
	if s.cycles++; s.cycles%samplePeriod == 0 {
		s.sample()
	}
}

func (s *sampler) CycleStart(int)                     { s.tick() }
func (s *sampler) PhaseEnd(core.Phase, time.Duration) {}
func (s *sampler) InstantiationsFound(int, int)       {}
func (s *sampler) Redacted(int, int, int)             {}
func (s *sampler) RuleFired(string, int)              {}
func (s *sampler) Commit(int, int, bool)              {}

// matcher is an ops5.Options.Matcher: RETE, ticking s.
func (s *sampler) matcher(rules []*compile.Rule) match.Matcher {
	return samplingMatcher{rete.New(rules), s}
}

type samplingMatcher struct {
	match.Matcher
	s *sampler
}

func (m samplingMatcher) Apply(d wm.Delta) match.Changes {
	m.s.tick()
	return m.Matcher.Apply(d)
}

// TestSoakMemoryIndependentOfCycles drives the counter program for 300,000
// cycles on each engine and through a served session's run path. (When
// engines kept a record per cycle this left 20 MiB behind, 450 MiB for a run
// that used up the daemon's default deadline.)
func TestSoakMemoryIndependentOfCycles(t *testing.T) {
	const cycles, allowed = 300_000, 2 << 20
	prog, err := compile.CompileSource(tickSrc)
	if err != nil {
		t.Fatal(err)
	}
	check := func(t *testing.T, grew int64) {
		t.Logf("live heap grew by %d KiB over %d cycles", grew>>10, cycles)
		if grew > allowed {
			t.Errorf("live heap grew by %d KiB over %d cycles, want at most %d KiB", grew>>10, cycles, allowed>>10)
		}
	}

	t.Run("core", func(t *testing.T) {
		var s sampler
		e := core.New(prog, core.Options{MaxCycles: cycles, Tracer: &s})
		check(t, heapGrowth(func(sample func()) {
			s.sample = sample
			if res, err := e.Run(); !errors.Is(err, core.ErrMaxCycles) || res.Cycles != cycles {
				t.Fatalf("ran %d cycles, err %v", res.Cycles, err)
			}
		}))
		runtime.KeepAlive(e)
	})

	t.Run("ops5", func(t *testing.T) {
		var s sampler
		e := ops5.New(prog, ops5.Options{MaxCycles: cycles, Matcher: s.matcher})
		check(t, heapGrowth(func(sample func()) {
			s.sample = sample
			if res, err := e.Run(); !errors.Is(err, ops5.ErrMaxCycles) || res.Cycles != cycles {
				t.Fatalf("ran %d cycles, err %v", res.Cycles, err)
			}
		}))
		runtime.KeepAlive(e)
	})

	// A served run commits samplePeriod cycles a slice and hands each
	// slice's record to its sink between slices, with the engine stopped.
	// runOp is the run path of a batch op or stream frame; POST /run takes
	// the same driveRun with a sink that persists.
	t.Run("served", func(t *testing.T) {
		s, ts := newTestServer(t, Config{RunSlice: samplePeriod})
		info := createSession(t, ts.URL, createSessionRequest{Source: tickSrc, MaxCycles: cycles})
		// engine.window is bounded too, at metricsWindow samples, and
		// server-wide: fill it first.
		s.metrics.observe(make([]stats.Cycle, metricsWindow))
		var before, after metricsPayload
		if st := call(t, "GET", ts.URL+"/metrics", nil, &before); st != http.StatusOK {
			t.Fatalf("/metrics: status %d", st)
		}
		check(t, heapGrowth(func(sample func()) {
			ctx := context.Background()
			sess, err := s.holdSession(ctx, info.ID, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer sess.release()
			out := s.runOp(ctx, sess, 300_000, func(*wal.Record) bool { sample(); return true })
			if !errors.Is(out.err, core.ErrMaxCycles) || out.resp.Cycles != cycles {
				t.Fatalf("run: err %v, %d cycles", out.err, out.resp.Cycles)
			}
		}))
		if st := call(t, "GET", ts.URL+"/metrics", nil, &after); st != http.StatusOK {
			t.Fatalf("/metrics: status %d", st)
		}
		if got := after.Engine.Cycles - before.Engine.Cycles; got != cycles {
			t.Errorf("engine.cycles rose by %d, the run reported %d", got, cycles)
		}
		for _, name := range phaseNames {
			if got := after.Engine.Phases[name].HistCount - before.Engine.Phases[name].HistCount; got != cycles {
				t.Errorf("phase %s hist_count rose by %d, the run reported %d", name, got, cycles)
			}
		}
	})
}

// TestNewSessionAllocation: a session that has run nothing holds its
// engine and little else (a trace ring allocated up front was 64 KiB of a
// 68 KiB session).
func TestNewSessionAllocation(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	prog, err := compile.CompileSource(load.DefaultSource)
	if err != nil {
		t.Fatal(err)
	}
	meta := &wal.Record{Op: wal.OpCreate}
	var sess *session
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	sess = s.newSession("alloc", meta, prog, false)
	runtime.ReadMemStats(&m1)
	runtime.KeepAlive(sess)
	if got := m1.TotalAlloc - m0.TotalAlloc; got > 16<<10 {
		t.Errorf("newSession allocated %d bytes, want at most %d", got, 16<<10)
	} else {
		t.Logf("newSession allocated %d bytes", got)
	}
}

// TestDefaultLoggerIsDisabled: with no Config.Logger no record is
// formatted, whatever its level.
func TestDefaultLoggerIsDisabled(t *testing.T) {
	if (Config{}).withDefaults().Logger.Enabled(context.Background(), slog.LevelError) {
		t.Error("the default logger reports error-level records enabled")
	}
}
