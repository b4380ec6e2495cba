package stats

import (
	"sort"
	"time"
)

// This file holds the aggregation layer over raw Cycle records:
// percentile summaries and fixed-bucket latency histograms. The server's
// /metrics endpoint is the consumer.

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) of ds using the
// nearest-rank method on a sorted copy. It returns 0 for an empty input.
func Quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[rank(len(sorted), q)]
}

// QuantileInts is Quantile over integer samples (conflict-set sizes,
// delta sizes).
func QuantileInts(xs []int, q float64) int {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]int(nil), xs...)
	sort.Ints(sorted)
	return sorted[rank(len(sorted), q)]
}

// rank maps a quantile to a 0-based index into n sorted samples.
func rank(n int, q float64) int {
	switch {
	case q <= 0:
		return 0
	case q >= 1:
		return n - 1
	}
	i := int(q*float64(n)+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// PhaseStats summarizes one phase's per-cycle latencies.
type PhaseStats struct {
	Total time.Duration `json:"total_ns"`
	Max   time.Duration `json:"max_ns"`
	P50   time.Duration `json:"p50_ns"`
	P95   time.Duration `json:"p95_ns"`
	P99   time.Duration `json:"p99_ns"`
}

// phaseStats computes PhaseStats from raw samples.
func phaseStats(ds []time.Duration) PhaseStats {
	var ps PhaseStats
	for _, d := range ds {
		ps.Total += d
		if d > ps.Max {
			ps.Max = d
		}
	}
	ps.P50 = Quantile(ds, 0.50)
	ps.P95 = Quantile(ds, 0.95)
	ps.P99 = Quantile(ds, 0.99)
	return ps
}

// Summary aggregates a run's cycles: counter totals plus per-phase
// latency percentiles and conflict-set size percentiles.
type Summary struct {
	Cycles      int `json:"cycles"`
	Fired       int `json:"fired"`
	Redacted    int `json:"redacted"`
	DeltaTotal  int `json:"delta_total"`
	MaxConflict int `json:"max_conflict_size"`
	ConflictP50 int `json:"conflict_p50"`
	ConflictP95 int `json:"conflict_p95"`
	ConflictP99 int `json:"conflict_p99"`

	Match  PhaseStats `json:"match"`
	Redact PhaseStats `json:"redact"`
	Fire   PhaseStats `json:"fire"`
	Apply  PhaseStats `json:"apply"`
}

// Summarize computes the aggregate view of the cycles, in any order and
// in as many runs as they come in.
func Summarize(runs ...[]Cycle) Summary {
	var s Summary
	for _, run := range runs {
		s.Cycles += len(run)
	}
	match := make([]time.Duration, 0, s.Cycles)
	redact := make([]time.Duration, 0, s.Cycles)
	fire := make([]time.Duration, 0, s.Cycles)
	apply := make([]time.Duration, 0, s.Cycles)
	conflict := make([]int, 0, s.Cycles)
	for _, run := range runs {
		for _, c := range run {
			match, redact = append(match, c.Match), append(redact, c.Redact)
			fire, apply = append(fire, c.Fire), append(apply, c.Apply)
			conflict = append(conflict, c.ConflictSize)
			s.Fired += c.Fired
			s.Redacted += c.Redacted
			s.DeltaTotal += c.DeltaSize
			s.MaxConflict = max(s.MaxConflict, c.ConflictSize)
		}
	}
	s.ConflictP50 = QuantileInts(conflict, 0.50)
	s.ConflictP95 = QuantileInts(conflict, 0.95)
	s.ConflictP99 = QuantileInts(conflict, 0.99)
	s.Match = phaseStats(match)
	s.Redact = phaseStats(redact)
	s.Fire = phaseStats(fire)
	s.Apply = phaseStats(apply)
	return s
}

// HistBounds are the upper bounds (inclusive) of the latency histogram
// buckets: a 1-2-5 ladder from 1µs to 10s, plus an implicit overflow
// bucket. Chosen so one histogram spans micro-cycle toy programs and
// multi-second production cycles alike.
var HistBounds = []time.Duration{
	1 * time.Microsecond, 2 * time.Microsecond, 5 * time.Microsecond,
	10 * time.Microsecond, 20 * time.Microsecond, 50 * time.Microsecond,
	100 * time.Microsecond, 200 * time.Microsecond, 500 * time.Microsecond,
	1 * time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond,
	10 * time.Millisecond, 20 * time.Millisecond, 50 * time.Millisecond,
	100 * time.Millisecond, 200 * time.Millisecond, 500 * time.Millisecond,
	1 * time.Second, 2 * time.Second, 5 * time.Second, 10 * time.Second,
}

// Bucket returns the index of the histogram bucket d falls in: that of
// the first HistBounds entry it does not exceed, or len(HistBounds), the
// overflow bucket a histogram keeps after them.
func Bucket(d time.Duration) int {
	return sort.Search(len(HistBounds), func(i int) bool { return d <= HistBounds[i] })
}
