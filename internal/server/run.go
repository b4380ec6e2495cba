package server

// The run path. An engine run reaches a session four ways — POST /run,
// an async job, a batch op, a stream frame — and all of them take the
// session slot (holdSession), then drive the engine through driveRun and
// count the outcome through countRunOutcome.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"parulel/internal/core"
	"parulel/internal/obs"
	"parulel/internal/stats"
	"parulel/internal/wal"
)

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req runRequest
	if !readJSON(w, r, &req) {
		return
	}
	timeout := s.clampTimeout(req.TimeoutMS)
	async := false
	switch v := r.URL.Query().Get("async"); v {
	case "", "0", "false":
	case "1", "true":
		async = true
	default:
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad async value %q", v))
		return
	}
	sess := s.lookup(w, r)
	if sess == nil || !s.beginWork(w) {
		return
	}

	// Admission: beyond MaxInflightRuns admitted runs the server fast-fails
	// rather than queueing without bound.
	ticket, err := s.runQueue.admit()
	if err != nil {
		s.endWork()
		s.metrics.inc(&s.metrics.Admission.RunsRejected)
		writeRetryAfter(w, "run queue is full")
		return
	}

	if async {
		// startAsyncRun replies 202; the runner goroutine owns the ticket
		// and the drain registration from here on.
		s.startAsyncRun(w, r, sess, ticket, timeout)
		return
	}
	defer s.endWork()
	defer ticket.done()
	s.metrics.inc(&s.metrics.Runs.Started)

	// The deadline covers queueing (session slot + engine slots) and the
	// run itself, so a stuck queue cannot hold the request forever.
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	sess, err = s.holdSession(ctx, sess.id, 0)
	switch {
	case err == nil:
	case errors.Is(err, errNoSession):
		writeError(w, http.StatusNotFound, err.Error())
		return
	case errors.Is(err, errEvicted):
		writeError(w, http.StatusGone, err.Error())
		return
	default:
		s.metrics.inc(&s.metrics.Runs.Timeouts)
		writeError(w, http.StatusGatewayTimeout, "timed out waiting for the session: "+err.Error())
		return
	}
	defer sess.release()

	out := s.driveRun(ctx, sess, ticket, s.immediateSink(ctx, sess))
	s.countRunOutcome(out)
	resp := out.resp
	switch {
	case out.err == nil && !out.persisted:
		// The run committed in memory but neither the WAL append nor the
		// fallback checkpoint stuck: recovery would serve pre-run state, so
		// the client must not see a bare 200 (mirrors the assert/retract
		// handlers, with the result attached since the cycles did run).
		writePartial(w, http.StatusInternalServerError, "run committed in memory but not durably logged", resp)
	case out.err == nil:
		writeJSON(w, http.StatusOK, resp)
	case errors.Is(out.err, context.DeadlineExceeded):
		s.log(ctx).Warn("run timed out",
			"session_id", sess.id, "timeout", timeout.String(), "cycles_committed", resp.Cycles)
		writePartial(w, http.StatusGatewayTimeout,
			fmt.Sprintf("run exceeded its %v deadline; %d cycles committed, session still usable", timeout, resp.Cycles), resp)
	case errors.Is(out.err, context.Canceled):
		// Client went away; reply best-effort.
		writeError(w, http.StatusServiceUnavailable, "run canceled: "+out.err.Error())
	case errors.Is(out.err, core.ErrMaxCycles):
		writePartial(w, http.StatusUnprocessableEntity, out.err.Error(), resp)
	default:
		writeError(w, http.StatusInternalServerError, "run failed: "+out.err.Error())
	}
}

// writePartial answers a run that failed with cycles committed: the error,
// and the result so far beside it.
func writePartial(w http.ResponseWriter, status int, msg string, resp runResponse) {
	writeJSON(w, status, map[string]any{"error": msg, "result": resp})
}

// recordSink receives the WAL records a run produces. The immediate sink
// persists each as its own frame; inside apply, factScanner.collect
// gathers them for the request to log. A false return marks durability
// lost.
type recordSink func(*wal.Record) bool

func (s *Server) immediateSink(ctx context.Context, sess *session) recordSink {
	return func(rec *wal.Record) bool { return s.persist(ctx, sess, rec) }
}

// runOutcome is driveRun's result, mapped onto HTTP statuses or job states
// by the caller.
type runOutcome struct {
	resp      runResponse
	err       error
	persisted bool
}

// runFold is what the committed cycles of a run in progress add up to:
// the session's trace ring hands it each one (add is its OnRecord) as the
// engine commits it, on the goroutine that holds the session slot.
type runFold struct {
	metrics *collector
	phases  [4]time.Duration // indexed by core.Phase: the engine.* child spans
	// cycles are the samples /metrics has not seen yet: observed in one
	// call when the run ends, and before that each time runFoldCycles have
	// gathered, so a run holds 64 KiB of them however long it goes on.
	cycles []stats.Cycle
}

const runFoldCycles = 1024

func (f *runFold) add(ev obs.Event) {
	c := stats.Cycle{
		Match: time.Duration(ev.MatchNS), Redact: time.Duration(ev.RedactNS),
		Fire: time.Duration(ev.FireNS), Apply: time.Duration(ev.ApplyNS),
		ConflictSize: ev.Eligible, Redacted: ev.Redacted, Fired: ev.Fired, DeltaSize: ev.DeltaSize,
	}
	for p, d := range [4]time.Duration{c.Match, c.Redact, c.Fire, c.Apply} {
		f.phases[p] += d
	}
	if f.cycles = append(f.cycles, c); len(f.cycles) == runFoldCycles {
		f.metrics.observe(f.cycles)
		f.cycles = f.cycles[:0]
	}
}

// driveRun executes one logical run while holding the session slot,
// re-acquiring an engine slot from the run queue for every RunSlice cycles
// (one grant for the whole run when RunSlice is 0) and logging one OpRun
// record per grant. Failing to reacquire a slot mid-run leaves the earlier
// slices committed and logged, exactly like a deadline expiry.
func (s *Server) driveRun(ctx context.Context, sess *session, ticket *runTicket, sink recordSink) runOutcome {
	before := sess.lastResult
	sess.out.take() // reset output buffer
	runSp := s.startSpan(ctx, stageEngineRun)
	fold := &runFold{metrics: s.metrics}
	sess.trace.OnRecord = fold.add
	var queueWait time.Duration
	t0 := time.Now()
	res := before
	persisted := true
	lastCycles := before.Cycles
	var runErr error
	for {
		qt0 := time.Now()
		err := ticket.acquire(ctx)
		queueWait += time.Since(qt0)
		if err != nil {
			runErr = fmt.Errorf("%w: waiting for an engine slot: %w", core.ErrCanceled, err)
			res = sess.eng.CurrentResult()
			break
		}
		var more bool
		res, more, runErr = sess.eng.RunBounded(ctx, s.cfg.RunSlice)
		ticket.release()
		// Each slice is one OpRun record and one runs increment, matching
		// replay, which bumps runs per record. The increment precedes the
		// sink so a checkpoint triggered by the append captures it.
		sess.runs++
		// Log the slice boundary — the committed cycle delta, never wall
		// clock — regardless of outcome: a timed-out or canceled run still
		// advanced the engine by exactly that many committed cycles.
		if !sink(&wal.Record{Op: wal.OpRun, Cycles: res.Cycles - lastCycles, Halted: res.Halted}) {
			persisted = false
		}
		lastCycles = res.Cycles
		if runErr != nil || !more {
			break
		}
	}
	wall := time.Since(t0)
	sess.trace.OnRecord = nil
	sess.lastResult = res

	// Emit the run's span tree: queue.wait and the per-phase engine time
	// as children of engine.run. No-ops on untraced contexts.
	runSp.SetAttr("session", sess.id)
	runSp.SetAttr("cycles", strconv.Itoa(res.Cycles-before.Cycles))
	s.recordSpan(ctx, runSp.ID(), stageQueueWait, queueWait)
	for i, st := range enginePhaseStages {
		s.recordSpan(ctx, runSp.ID(), st, fold.phases[i])
	}
	runSp.EndWith(wall)

	// Fold the run's cycles into /metrics regardless of outcome.
	s.metrics.observe(fold.cycles)
	// Likewise the per-rule profile deltas accumulated by this run. The
	// first time the per-rule series cap drops a rule, say so once — the
	// truncation is otherwise invisible in /metrics.
	if s.metrics.observeRules(sess.profileDeltas()) {
		s.cfg.Logger.Warn("per-rule metrics series cap reached; further rules aggregate into engine.rules.dropped_series",
			"cap", maxRuleSeries)
	}

	output, trunc := sess.out.take()
	resp := runResponse{
		Cycles:         res.Cycles - before.Cycles,
		Firings:        res.Firings - before.Firings,
		Redactions:     res.Redactions - before.Redactions,
		WriteConflicts: res.WriteConflicts - before.WriteConflicts,
		Halted:         res.Halted,
		WallMS:         wall.Milliseconds(),
		WMSize:         sess.eng.Memory().Len(),
		Output:         output,
		OutputTrunc:    trunc,
	}
	if runErr == nil {
		resp.Quiescent = !res.Halted
	}
	return runOutcome{resp: resp, err: runErr, persisted: persisted}
}

// countRunOutcome maps a run's outcome onto the run counters, for every
// path that drives one: /run, async jobs, batch ops and stream frames.
func (s *Server) countRunOutcome(out runOutcome) {
	m := s.metrics
	switch {
	case out.err == nil && out.persisted:
		m.inc(&m.Runs.Completed)
	case out.err == nil:
		m.inc(&m.Runs.Errors)
	case errors.Is(out.err, context.DeadlineExceeded):
		m.inc(&m.Runs.Timeouts)
	case errors.Is(out.err, context.Canceled):
		m.inc(&m.Runs.Canceled)
	default:
		m.inc(&m.Runs.Errors)
	}
}

// runOp is a run op inside apply — a batch op or a stream frame's run —
// under the request's session slot, with its records going to the
// request's sink. admitForce, not admit: the request as a whole passed
// admission at the mutation layer; rejecting one of its ops mid-flight
// would break the applied-prefix contract.
func (s *Server) runOp(ctx context.Context, sess *session, timeoutMS int64, sink recordSink) runOutcome {
	ctx, cancel := context.WithTimeout(ctx, s.clampTimeout(timeoutMS))
	defer cancel()
	ticket := s.runQueue.admitForce()
	defer ticket.done()
	s.metrics.inc(&s.metrics.Runs.Started)
	out := s.driveRun(ctx, sess, ticket, sink)
	s.countRunOutcome(out)
	return out
}

// clampTimeout resolves a client-requested run timeout against the
// configured default and ceiling.
func (s *Server) clampTimeout(ms int64) time.Duration {
	timeout := s.cfg.DefaultRunTimeout
	if ms > 0 {
		timeout = time.Duration(ms) * time.Millisecond
	}
	if timeout > s.cfg.MaxRunTimeout {
		timeout = s.cfg.MaxRunTimeout
	}
	return timeout
}
