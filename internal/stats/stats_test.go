package stats

import (
	"math"
	"testing"
	"time"
)

func sampleCycles() []Cycle {
	return []Cycle{
		{Match: 40 * time.Millisecond, Redact: 10 * time.Millisecond,
			Fire: 30 * time.Millisecond, Apply: 20 * time.Millisecond,
			ConflictSize: 10, Redacted: 4, Fired: 6, DeltaSize: 12},
		{Match: 60 * time.Millisecond, Redact: 30 * time.Millisecond,
			Fire: 10 * time.Millisecond, Apply: 0,
			ConflictSize: 25, Redacted: 20, Fired: 5, DeltaSize: 5},
	}
}

func TestTotals(t *testing.T) {
	s := Summarize(sampleCycles())
	m, re, f, a := s.Match.Total, s.Redact.Total, s.Fire.Total, s.Apply.Total
	if m != 100*time.Millisecond || re != 40*time.Millisecond ||
		f != 40*time.Millisecond || a != 20*time.Millisecond {
		t.Errorf("totals: %v %v %v %v", m, re, f, a)
	}
}

func TestBreakdownSumsTo100(t *testing.T) {
	s := Summarize(sampleCycles())
	m, re, f, a := Breakdown([4]time.Duration{s.Match.Total, s.Redact.Total, s.Fire.Total, s.Apply.Total})
	if sum := m + re + f + a; math.Abs(sum-100) > 1e-9 {
		t.Errorf("breakdown sums to %v", sum)
	}
	if m != 50 {
		t.Errorf("match share = %v, want 50", m)
	}
}

func TestBreakdownEmptyRun(t *testing.T) {
	m, re, f, a := Breakdown([4]time.Duration{})
	if m != 0 || re != 0 || f != 0 || a != 0 {
		t.Error("empty run should have zero shares")
	}
}

func TestCounters(t *testing.T) {
	s := Summarize(sampleCycles())
	if s.Cycles != 2 {
		t.Errorf("cycles = %d", s.Cycles)
	}
	if s.Fired != 11 {
		t.Errorf("fired = %d", s.Fired)
	}
	if s.Redacted != 24 {
		t.Errorf("redacted = %d", s.Redacted)
	}
	if s.MaxConflict != 25 {
		t.Errorf("max conflict = %d", s.MaxConflict)
	}
}
