package stats

import (
	"testing"
	"time"
)

func mkCycles(n int, base time.Duration) []Cycle {
	var r []Cycle
	for i := 1; i <= n; i++ {
		r = append(r, Cycle{
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
	s := Summarize(mkCycles(100, time.Microsecond))
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
	es := Summarize(nil)
	if es.Cycles != 0 || es.Match.P99 != 0 {
		t.Fatalf("empty summary should be zero: %+v", es)
	}
}

func TestHist(t *testing.T) {
	for _, c := range []struct {
		d    time.Duration
		want int
	}{
		{500 * time.Nanosecond, 0}, // ≤1µs
		{1 * time.Microsecond, 0},  // inclusive bound
		{3 * time.Millisecond, 11}, // ≤5ms
		{10 * time.Second, len(HistBounds) - 1},
		{time.Minute, len(HistBounds)}, // overflow
	} {
		if got := Bucket(c.d); got != c.want {
			t.Errorf("Bucket(%v) = %d, want %d", c.d, got, c.want)
		}
	}
}
