package server

// runQueue is the server-wide engine-run scheduler: MaxConcurrentRuns
// engine slots, the tokens of a buffered channel, behind an admission gate
// (MaxInflightRuns).
//
// Admission and slot acquisition are deliberately separate. A run is
// *admitted* once per request/job — when the admitted population (running
// + queued) is at the cap, admission fails immediately and the handler
// answers 429 + Retry-After instead of queueing unboundedly. An admitted
// run then *acquires* a slot per slice; with -run-slice set it releases
// and re-acquires between slices, so the queue drains fairly even under
// multi-second runs.
//
// Fairness: a run waiting for a slot blocks sending on the channel, and a
// freed slot goes to the longest-blocked sender, so waiters are served
// first in, first out. driveRun is the only caller of acquire and holds
// the session slot, so a session has at most one run waiting; a run that
// gives its slot back between slices queues behind every run already
// waiting. No session takes consecutive grants while another waits.

import (
	"context"
	"errors"
	"sync/atomic"
)

// errSaturated is returned by admit when the inflight cap is reached; the
// handlers translate it to 429 + Retry-After.
var errSaturated = errors.New("run queue full")

type runQueue struct {
	slots    chan struct{} // a token per engine slot in use
	max      int64         // admission cap; <= 0 means unlimited
	inflight atomic.Int64  // admitted runs (holding a slot or queued for one)
	queued   atomic.Int64  // admitted runs waiting for a slot
}

func newRunQueue(slots, maxInflight int) *runQueue {
	return &runQueue{slots: make(chan struct{}, slots), max: int64(maxInflight)}
}

// admit registers a run against the inflight cap. The returned ticket
// must be closed with done(); a nil ticket means the server is saturated.
func (q *runQueue) admit() (*runTicket, error) {
	for {
		n := q.inflight.Load()
		if q.max > 0 && n >= q.max {
			return nil, errSaturated
		}
		if q.inflight.CompareAndSwap(n, n+1) {
			return &runTicket{q: q}, nil
		}
	}
}

// admitForce registers a run bypassing the cap, for a run op inside an
// already accepted request (see runOp).
func (q *runQueue) admitForce() *runTicket {
	q.inflight.Add(1)
	return &runTicket{q: q}
}

// stats samples the queue for /metrics: queued waiters and admitted runs.
func (q *runQueue) stats() (queued, inflight int) {
	return int(q.queued.Load()), int(q.inflight.Load())
}

// runTicket is one admitted run's handle on the queue.
type runTicket struct {
	q       *runQueue
	holding bool
}

// acquire obtains an engine slot, waiting in turn until ctx ends.
func (t *runTicket) acquire(ctx context.Context) error {
	select {
	case t.q.slots <- struct{}{}:
	default:
		t.q.queued.Add(1)
		defer t.q.queued.Add(-1)
		select {
		case t.q.slots <- struct{}{}:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	t.holding = true
	return nil
}

// release returns the held slot to the next waiter.
func (t *runTicket) release() {
	if t.holding {
		t.holding = false
		<-t.q.slots
	}
}

// done retires the ticket: any held slot is released and the admission
// count drops. done must be called exactly once per admitted ticket.
func (t *runTicket) done() {
	t.release()
	t.q.inflight.Add(-1)
}
