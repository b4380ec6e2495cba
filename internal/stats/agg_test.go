package stats

import (
	"testing"
	"time"
)

func mkRun(n int, base time.Duration) *Run {
	r := &Run{}
	for i := 1; i <= n; i++ {
		r.Add(Cycle{
			Match:        time.Duration(i) * base,
			Redact:       time.Duration(i) * base / 2,
			Fire:         time.Duration(i) * base * 2,
			Apply:        base,
			ConflictSize: i,
			Fired:        i,
			Redacted:     1,
			DeltaSize:    2,
		})
	}
	return r
}

func TestTruncate(t *testing.T) {
	a := mkRun(10, time.Millisecond)
	a.Truncate(4)
	if len(a.Cycles) != 4 {
		t.Fatalf("truncated len = %d, want 4", len(a.Cycles))
	}
	// Keeps the newest records: fired counts 7,8,9,10.
	if a.Cycles[0].Fired != 7 || a.Cycles[3].Fired != 10 {
		t.Fatalf("truncate kept wrong records: %+v", a.Cycles)
	}
	a.Truncate(100) // no-op
	if len(a.Cycles) != 4 {
		t.Fatal("truncate to larger size must be a no-op")
	}
}

func TestQuantile(t *testing.T) {
	if got := Quantile(nil, 0.5); got != 0 {
		t.Fatalf("empty quantile = %v, want 0", got)
	}
	ds := []time.Duration{5, 1, 3, 2, 4} // unsorted on purpose
	cases := []struct {
		q    float64
		want time.Duration
	}{{0, 1}, {0.5, 3}, {0.95, 5}, {0.99, 5}, {1, 5}}
	for _, c := range cases {
		if got := Quantile(ds, c.q); got != c.want {
			t.Errorf("Quantile(%.2f) = %v, want %v", c.q, got, c.want)
		}
	}
	if ds[0] != 5 {
		t.Fatal("Quantile must not reorder its input")
	}
	if got := QuantileInts([]int{9, 7, 8}, 0.5); got != 8 {
		t.Fatalf("QuantileInts median = %d, want 8", got)
	}
}

func TestSummarize(t *testing.T) {
	r := mkRun(100, time.Microsecond)
	s := r.Summarize()
	if s.Cycles != 100 {
		t.Fatalf("cycles = %d", s.Cycles)
	}
	if s.Fired != 5050 || s.Redacted != 100 || s.DeltaTotal != 200 {
		t.Fatalf("counters wrong: %+v", s)
	}
	if s.MaxConflict != 100 || s.ConflictP50 != 50 || s.ConflictP95 != 95 || s.ConflictP99 != 99 {
		t.Fatalf("conflict percentiles wrong: %+v", s)
	}
	if s.Match.P50 != 50*time.Microsecond || s.Match.P99 != 99*time.Microsecond {
		t.Fatalf("match percentiles wrong: %+v", s.Match)
	}
	if s.Match.Max != 100*time.Microsecond {
		t.Fatalf("match max = %v", s.Match.Max)
	}
	if s.Fire.Total != 2*s.Match.Total || s.Redact.Total*2 != s.Match.Total {
		t.Fatalf("phase totals inconsistent: %+v", s)
	}
	var empty Run
	es := empty.Summarize()
	if es.Cycles != 0 || es.Match.P99 != 0 {
		t.Fatalf("empty summary should be zero: %+v", es)
	}
}

func TestHist(t *testing.T) {
	h := NewHist()
	if h.Total() != 0 {
		t.Fatal("fresh histogram should be empty")
	}
	h.Observe(500 * time.Nanosecond) // bucket 0 (≤1µs)
	h.Observe(1 * time.Microsecond)  // bucket 0 (inclusive bound)
	h.Observe(3 * time.Millisecond)  // ≤5ms bucket
	h.Observe(time.Minute)           // overflow
	if h.Total() != 4 {
		t.Fatalf("total = %d, want 4", h.Total())
	}
	if h.Counts[0] != 2 {
		t.Fatalf("≤1µs bucket = %d, want 2", h.Counts[0])
	}
	if h.Counts[len(h.Counts)-1] != 1 {
		t.Fatal("minute sample should land in the overflow bucket")
	}
	if len(h.Counts) != len(HistBounds)+1 {
		t.Fatal("histogram must have one overflow bucket")
	}
}
