package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"parulel/internal/wm"
)

// spinner is a program that modifies one counter WME once per cycle, "n"
// cycles short of forever — enough to outlive any test deadline.
const spinner = `
(literalize counter n)
(rule tick
  <c> <- (counter ^n <n>)
  (test (< <n> 1000000000))
-->
  (modify <c> ^n (+ <n> 1)))
(wm (counter ^n 0))
`

func TestRunContextDeadline(t *testing.T) {
	prog := compileOK(t, spinner)
	e := New(prog, Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	res, err := e.RunContext(ctx)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, should wrap context.DeadlineExceeded", err)
	}
	if res.Cycles == 0 {
		t.Fatal("expected some cycles to commit before the deadline")
	}
	// Working memory must be in a committed state: exactly one counter WME
	// whose value equals the number of committed cycles.
	facts := e.Memory().OfTemplate("counter")
	if len(facts) != 1 {
		t.Fatalf("counter WMEs = %d, want 1", len(facts))
	}
	if got := facts[0].Fields[0]; got.AsInt() != int64(res.Cycles) {
		t.Fatalf("counter n = %v after %d cycles", got, res.Cycles)
	}
}

func TestRunContextCancelBeforeStart(t *testing.T) {
	prog := compileOK(t, spinner)
	e := New(prog, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := e.RunContext(ctx)
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCanceled wrapping context.Canceled", err)
	}
	if res.Cycles != 0 {
		t.Fatalf("cycles = %d, want 0 for pre-canceled context", res.Cycles)
	}
}

func TestRunContextResumeAfterCancel(t *testing.T) {
	// A canceled run must be resumable: cancel a bounded version of the
	// spinner mid-way, then run to quiescence with a fresh context.
	prog := compileOK(t, `
(literalize counter n)
(rule tick
  <c> <- (counter ^n <n>)
  (test (< <n> 500))
-->
  (modify <c> ^n (+ <n> 1)))
(wm (counter ^n 0))
`)
	e := New(prog, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { time.Sleep(2 * time.Millisecond); cancel(); close(done) }()
	_, err := e.RunContext(ctx)
	<-done
	if err != nil && !errors.Is(err, ErrCanceled) {
		t.Fatalf("unexpected error: %v", err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if res.Cycles != 500 {
		t.Fatalf("total cycles = %d, want 500", res.Cycles)
	}
	if got := e.Memory().OfTemplate("counter")[0].Fields[0].AsInt(); got != 500 {
		t.Fatalf("counter = %d, want 500", got)
	}
}

func TestRetract(t *testing.T) {
	prog := compileOK(t, `
(literalize src id)
(literalize sink id)
(rule expand
  (src ^id <i>)
-->
  (make sink ^id <i>))
`)
	e := New(prog, Options{})
	a, err := e.Insert("src", map[string]wm.Value{"id": wm.Int(1)})
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Insert("src", map[string]wm.Value{"id": wm.Int(2)})
	if err != nil {
		t.Fatal(err)
	}
	// Retract b while its insert is still pending: the matcher never sees it.
	if !e.Retract(b.Time) {
		t.Fatal("retract of pending WME failed")
	}
	if e.Retract(b.Time) {
		t.Fatal("second retract should report false")
	}
	res := runOK(t, e)
	if res.Firings != 1 {
		t.Fatalf("firings = %d, want 1 (retracted fact must not fire)", res.Firings)
	}
	if n := e.Memory().CountOf("sink"); n != 1 {
		t.Fatalf("sinks = %d, want 1", n)
	}
	// Retract a after it has been matched: the matcher must be told, so a
	// subsequent refraction-free rematch cannot resurrect it.
	if !e.Retract(a.Time) {
		t.Fatal("retract of matched WME failed")
	}
	if n := e.Memory().CountOf("src"); n != 0 {
		t.Fatalf("src count = %d, want 0", n)
	}
	if _, err := e.Run(); err != nil {
		t.Fatalf("run after retract: %v", err)
	}
	if got := len(e.ConflictSet()); got != 0 {
		t.Fatalf("conflict set size = %d, want 0 after retracting the only src", got)
	}
}

// TestRetractPendingStaysCompact: a stream of inserts each retracted
// before any run leaves the pending delta holding its live inserts only,
// in insertion order, and the index still finds them after compactions.
func TestRetractPendingStaysCompact(t *testing.T) {
	prog := compileOK(t, `
(literalize src id)
(literalize sink id)
(rule expand
  (src ^id <i>)
-->
  (make sink ^id <i>))
`)
	e := New(prog, Options{})
	var keep []*wm.WME
	for i := 0; i < 200_000; i++ {
		w, err := e.Insert("src", map[string]wm.Value{"id": wm.Int(int64(i))})
		if err != nil {
			t.Fatal(err)
		}
		if i%50_000 == 0 {
			keep = append(keep, w) // survives the stream
			continue
		}
		if !e.Retract(w.Time) {
			t.Fatalf("retract %d of a pending insert failed", i)
		}
	}
	if c := cap(e.pending.Added); c >= 1024 {
		t.Fatalf("pending inserts hold %d slots after 200,000 insert-retract pairs, want under 1,024", c)
	}
	var live []*wm.WME
	for _, w := range e.pending.Added {
		if w != nil {
			live = append(live, w)
		}
	}
	if len(live) != len(keep) {
		t.Fatalf("%d live pending inserts, want %d", len(live), len(keep))
	}
	for i := range keep {
		if live[i] != keep[i] {
			t.Fatalf("pending insert %d is tag %d, want %d (insertion order)", i, live[i].Time, keep[i].Time)
		}
	}
	if !e.Retract(keep[1].Time) {
		t.Fatal("retract of a surviving pending insert failed")
	}
	if res := runOK(t, e); res.Firings != len(keep)-1 {
		t.Fatalf("firings = %d, want %d", res.Firings, len(keep)-1)
	}
}
