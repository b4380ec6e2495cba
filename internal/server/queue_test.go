package server

// Tests for the run-queue scheduler: admission cap, slot accounting
// across slices and the grant/cancel race drive runQueue directly; fair
// turns between sessions are checked through the server.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"parulel/internal/obs"
)

// waitStats polls until the queue reaches the wanted shape.
func waitStats(t *testing.T, q *runQueue, queued, inflight int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		gotQ, gotI := q.stats()
		if gotQ == queued && gotI == inflight {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue stats: got (%d queued, %d inflight), want (%d, %d)", gotQ, gotI, queued, inflight)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestRunQueueAdmissionCap(t *testing.T) {
	q := newRunQueue(1, 2)
	t1, err := q.admit()
	if err != nil {
		t.Fatal(err)
	}
	t2, err := q.admit()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.admit(); !errors.Is(err, errSaturated) {
		t.Fatalf("third admit: got %v, want errSaturated", err)
	}
	t1.done()
	t3, err := q.admit()
	if err != nil {
		t.Fatalf("admit after done: %v", err)
	}
	// admitForce bypasses the cap even when full.
	t4 := q.admitForce()
	if _, inflight := q.stats(); inflight != 3 {
		t.Fatalf("inflight: got %d, want 3", inflight)
	}
	t2.done()
	t3.done()
	t4.done()
	if queued, inflight := q.stats(); queued != 0 || inflight != 0 {
		t.Fatalf("after done: got (%d, %d), want (0, 0)", queued, inflight)
	}
}

// TestRunQueueInterleavesSessions: with one engine slot and a small run
// slice, two sessions running long programs at once take turns on the
// slot. Their traces show it: while both runs are in flight, each
// session's trace holds cycles committed while the other's run is part
// way through.
func TestRunQueueInterleavesSessions(t *testing.T) {
	const cycles = 20000
	s, ts := newTestServer(t, Config{MaxConcurrentRuns: 1, RunSlice: 10})
	src := fmt.Sprintf("(literalize c n)\n(wm (c ^n 0))\n"+
		"(rule spin <x> <- (c ^n <n>) (test (< <n> %d)) --> (modify <x> ^n (+ <n> 1)))", cycles)
	var urls [2]string
	var traces [2]*obs.Ring
	for i := range urls {
		id := createSession(t, ts.URL, createSessionRequest{Source: src}).ID
		urls[i] = ts.URL + "/api/v1/sessions/" + id
		sess, err := s.sessionByID(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		traces[i] = sess.trace
	}
	// The newest cycle a session's trace holds, read in process: the ring
	// is locked on its own, so it is read while the run goes on, and the
	// reader needs no handler goroutine to be scheduled (on one P an HTTP
	// poll would sample only every few tens of milliseconds).
	traced := func(i int) int {
		events := traces[i].Events(1)
		if len(events) == 0 {
			return 0
		}
		return events[0].Cycle
	}

	var wg sync.WaitGroup
	done := make(chan struct{})
	for _, url := range urls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var resp runResponse
			if st := call(t, "POST", url+"/run", runRequest{TimeoutMS: 60000}, &resp); st != http.StatusOK || resp.Cycles != cycles {
				t.Errorf("run: status %d, %d cycles; want 200 and %d", st, resp.Cycles, cycles)
			}
		}()
	}
	go func() { wg.Wait(); close(done) }()
	interleaved := false
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		a, b := traced(0), traced(1)
		if a > 0 && a < cycles && b > 0 && b < cycles {
			interleaved = true
		}
		time.Sleep(time.Millisecond)
	}
	if !interleaved {
		t.Fatal("one session's run committed no cycle while the other's was in flight")
	}
	for i := range traces {
		if n := traced(i); n != cycles {
			t.Fatalf("the newest trace event is cycle %d, want %d", n, cycles)
		}
	}
}

func TestRunQueueSliceReacquire(t *testing.T) {
	q := newRunQueue(1, 0)
	tk, err := q.admit()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := tk.acquire(context.Background()); err != nil {
			t.Fatal(err)
		}
		tk.release()
	}
	tk.done()
	if queued, inflight := q.stats(); queued != 0 || inflight != 0 {
		t.Fatalf("after slices: got (%d, %d), want (0, 0)", queued, inflight)
	}
	// The slot must be free again.
	tk2, _ := q.admit()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := tk2.acquire(ctx); err != nil {
		t.Fatalf("slot leaked across slices: %v", err)
	}
	tk2.done()
}

func TestRunQueueCanceledWaiterReturnsSlot(t *testing.T) {
	// Hammer the grant/cancel race: a holder releases while the sole
	// waiter cancels. Whatever interleaving happens, the slot must be
	// recoverable afterwards and acquire must never report success after
	// its context ended.
	for i := 0; i < 200; i++ {
		q := newRunQueue(1, 0)
		holder, _ := q.admit()
		if err := holder.acquire(context.Background()); err != nil {
			t.Fatal(err)
		}
		waiter, _ := q.admit()
		ctx, cancel := context.WithCancel(context.Background())
		got := make(chan error, 1)
		go func() { got <- waiter.acquire(ctx) }()
		waitStats(t, q, 1, 2)
		go cancel()
		holder.done()
		if err := <-got; err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("acquire: %v", err)
		}
		waiter.done()
		// Full capacity must be available again.
		probe, _ := q.admit()
		probeCtx, probeCancel := context.WithTimeout(context.Background(), time.Second)
		if err := probe.acquire(probeCtx); err != nil {
			probeCancel()
			t.Fatalf("iteration %d leaked the slot: %v", i, err)
		}
		probeCancel()
		probe.done()
	}
}
