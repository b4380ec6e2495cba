package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"parulel/internal/core"
)

// feedCycle drives one complete cycle through a tracer, mimicking the
// engine's callback order.
func feedCycle(tr core.Tracer, n int, fired map[string]int) {
	tr.CycleStart(n)
	tr.PhaseEnd(core.PhaseMatch, time.Duration(n)*time.Microsecond)
	tr.InstantiationsFound(n+2, n+1)
	tr.PhaseEnd(core.PhaseRedact, time.Microsecond)
	tr.Redacted(1, 1, n)
	tr.PhaseEnd(core.PhaseFire, 2*time.Microsecond)
	for rule, c := range fired {
		tr.RuleFired(rule, c)
	}
	tr.PhaseEnd(core.PhaseApply, 3*time.Microsecond)
	tr.Commit(n, 0, false)
}

func TestRingRecordsCompleteCycles(t *testing.T) {
	r := NewRing(8)
	feedCycle(r, 1, map[string]int{"a": 2, "b": 1})
	evs := r.Events(0)
	if len(evs) != 1 {
		t.Fatalf("got %d events, want 1", len(evs))
	}
	e := evs[0]
	if e.Cycle != 1 || e.ConflictSet != 3 || e.Eligible != 2 {
		t.Fatalf("bad match fields: %+v", e)
	}
	if e.MatchNS != time.Microsecond.Nanoseconds() {
		t.Fatalf("MatchNS = %d", e.MatchNS)
	}
	if e.Fired != 3 || e.RuleFirings["a"] != 2 || e.RuleFirings["b"] != 1 {
		t.Fatalf("bad firings: %+v", e)
	}
	if e.DeltaSize != 1 || e.Halted {
		t.Fatalf("bad commit fields: %+v", e)
	}
}

func TestRingDiscardsQuiescenceProbe(t *testing.T) {
	r := NewRing(8)
	// Quiescence: CycleStart followed by a match phase but no Commit.
	r.CycleStart(1)
	r.PhaseEnd(core.PhaseMatch, time.Microsecond)
	r.InstantiationsFound(0, 0)
	if got := len(r.Events(0)); got != 0 {
		t.Fatalf("probe recorded %d events, want 0", got)
	}
	// The probe is discarded when the next cycle starts and commits.
	feedCycle(r, 1, nil)
	if evs := r.Events(0); len(evs) != 1 || evs[0].Cycle != 1 {
		t.Fatalf("after probe+cycle got %+v, want one cycle-1 event", evs)
	}
	// A Commit with no open cycle must be ignored.
	r2 := NewRing(8)
	r2.Commit(0, 0, false)
	if got := len(r2.Events(0)); got != 0 {
		t.Fatalf("stray commit recorded %d events, want 0", got)
	}
}

func TestRingWraparoundAndLimit(t *testing.T) {
	r := NewRing(4)
	for i := 1; i <= 10; i++ {
		feedCycle(r, i, nil)
	}
	if r.Total() != 10 {
		t.Fatalf("Total = %d, want 10", r.Total())
	}
	evs := r.Events(0)
	if len(evs) != 4 {
		t.Fatalf("retained %d, want 4", len(evs))
	}
	for i, e := range evs {
		if e.Cycle != 7+i {
			t.Fatalf("event %d has cycle %d, want %d (oldest-first)", i, e.Cycle, 7+i)
		}
	}
	evs = r.Events(2)
	if len(evs) != 2 || evs[0].Cycle != 9 || evs[1].Cycle != 10 {
		t.Fatalf("limit=2 gave %+v", evs)
	}
}

func TestRingConcurrentReadsDuringFeed(t *testing.T) {
	r := NewRing(16)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				r.Events(0)
				r.Total()
			}
		}
	}()
	for i := 1; i <= 200; i++ {
		feedCycle(r, i, map[string]int{"r": 1})
	}
	close(done)
	wg.Wait()
	if r.Total() != 200 {
		t.Fatalf("Total = %d, want 200", r.Total())
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewJSONLWriter(&buf)
	feedCycle(w, 1, map[string]int{"left": 4})
	feedCycle(w, 2, nil)
	if err := w.Err(); err != nil {
		t.Fatalf("writer error: %v", err)
	}
	if got := strings.Count(buf.String(), "\n"); got != 2 {
		t.Fatalf("wrote %d lines, want 2", got)
	}
	evs, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatalf("ReadJSONL: %v", err)
	}
	if len(evs) != 2 {
		t.Fatalf("read %d events, want 2", len(evs))
	}
	if evs[0].Cycle != 1 || evs[0].RuleFirings["left"] != 4 || evs[1].Cycle != 2 {
		t.Fatalf("round-trip mismatch: %+v", evs)
	}
	if evs[1].RuleFirings != nil {
		t.Fatalf("empty firings should stay nil, got %+v", evs[1].RuleFirings)
	}
}

// TestRingGrowsOnDemand fills a ring from empty past its capacity while
// another goroutine reads it: it holds next to nothing before the first
// cycle, and at every moment Events is a contiguous oldest-first run of at most
// Capacity cycles that OnRecord has been or is being handed.
func TestRingGrowsOnDemand(t *testing.T) {
	const capacity, cycles = 8, 20
	if idle := NewRing(DefaultRingCapacity); cap(idle.buf) > ringStart {
		t.Fatalf("an unused ring holds a %d-event buffer", cap(idle.buf))
	}
	r := NewRing(capacity)
	var seen []int
	r.OnRecord = func(e Event) { seen = append(seen, e.Cycle) }

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			evs, total := r.Events(0), r.Total()
			if len(evs) > capacity || r.Capacity() != capacity {
				t.Errorf("holding %d events, capacity %d, want at most %d", len(evs), r.Capacity(), capacity)
			}
			for i, e := range evs {
				if e.Cycle != evs[0].Cycle+i {
					t.Errorf("events not contiguous oldest-first: %d at %d after %d", e.Cycle, i, evs[0].Cycle)
				}
			}
			if n := len(evs); n > 0 && uint64(evs[n-1].Cycle) > total {
				t.Errorf("newest event is cycle %d, Total (read after) is %d", evs[n-1].Cycle, total)
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	for i := 1; i <= cycles; i++ {
		feedCycle(r, i, map[string]int{"r": 1})
		if want := min(i, capacity); len(r.Events(0)) != want {
			t.Fatalf("after %d cycles the ring holds %d events, want %d", i, len(r.Events(0)), want)
		}
	}
	close(done)
	wg.Wait()

	if r.Total() != cycles || len(seen) != cycles || seen[0] != 1 || seen[cycles-1] != cycles {
		t.Fatalf("Total = %d, OnRecord saw %v, want all %d cycles in order", r.Total(), seen, cycles)
	}
	if evs := r.Events(0); len(evs) != capacity || evs[0].Cycle != cycles-capacity+1 || evs[capacity-1].Cycle != cycles {
		t.Fatalf("retained %+v, want cycles %d..%d", evs, cycles-capacity+1, cycles)
	}
	if evs := r.Events(3); len(evs) != 3 || evs[0].Cycle != cycles-2 || evs[2].Cycle != cycles {
		t.Fatalf("limit=3 gave %+v", evs)
	}
}

func TestTextWriterLines(t *testing.T) {
	var buf bytes.Buffer
	w := NewTextWriter(&buf)
	feedCycle(w, 1, map[string]int{"a": 2, "b": 1})
	feedCycle(w, 2, nil) // fully redacted: no line
	// A quiescence probe prints nothing either.
	w.CycleStart(3)
	w.PhaseEnd(core.PhaseMatch, time.Microsecond)
	w.InstantiationsFound(0, 0)
	if got, want := buf.String(), "cycle 1: eligible=2 redacted=1 fired=3 delta=1 conflicts=0\n"; got != want {
		t.Fatalf("text trace:\n got %q\nwant %q", got, want)
	}
}
