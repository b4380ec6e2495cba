package server

// POST /sessions/{id}/batch applies an ordered list of assert/retract/run
// operations in one round-trip and — this is the point — one WAL frame:
// the collected mutation records are nested inside a single wal.OpBatch
// record, so a crash either preserves the whole applied prefix or none of
// it (a torn batch frame is dropped by recovery's tail truncation).
//
// Validation is two-phase. Structural problems (unknown op kinds,
// templates, attributes) are rejected with 400 before anything is applied.
// Runtime failures (a run hitting its deadline or the cycle cap) stop the
// batch at that op: the applied prefix stands, is persisted, and the
// response reports per-op results with the failing op's error set.

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"parulel/internal/wal"
)

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	sc, ok := readBody(w, r)
	if !ok {
		return
	}
	defer sc.release()
	if err := sc.scanBatch(); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	ops := sc.ops
	if len(ops) == 0 {
		writeError(w, http.StatusBadRequest, "ops is required")
		return
	}
	containsRun := false
	for i := range ops {
		switch op := &ops[i]; op.kind {
		case "assert":
			if len(op.facts) == 0 {
				writeError(w, http.StatusBadRequest, fmt.Sprintf("op %d: assert requires facts", i))
				return
			}
		case "retract":
			if op.template == "" {
				writeError(w, http.StatusBadRequest, fmt.Sprintf("op %d: retract requires template", i))
				return
			}
		case "run":
			containsRun = true
		case "tick":
			if op.ticks < 0 {
				writeError(w, http.StatusBadRequest, fmt.Sprintf("op %d: ticks must be non-negative", i))
				return
			}
		default:
			writeError(w, http.StatusBadRequest, fmt.Sprintf("op %d: unknown op %q (want assert, retract, run or tick)", i, op.kind))
			return
		}
	}

	// A batch with run ops is an engine run for drain purposes: shutdown
	// must wait for it, and a draining server must not start it.
	if containsRun {
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			writeError(w, http.StatusServiceUnavailable, "server is draining")
			return
		}
		s.active++
		s.mu.Unlock()
		defer func() {
			s.mu.Lock()
			s.active--
			if s.draining && s.active == 0 {
				close(s.idle)
			}
			s.mu.Unlock()
		}()
	}

	s.withSession(w, r, func(sess *session) {
		// Schema validation needs the engine, hence the session slot. Every
		// assert op's facts are staged here, in op order, and inserted from
		// the staging area when execution reaches the op.
		staged := sc.staged[:0]
		for i := range ops {
			var err error
			switch op := &ops[i]; op.kind {
			case "assert":
				staged, _, err = sess.stage(staged, op.facts)
			case "retract":
				_, err = sess.retractPositions(op.template, op.fields)
			}
			if err != nil {
				sc.staged = staged
				writeError(w, http.StatusBadRequest, fmt.Sprintf("op %d: %v", i, err))
				return
			}
		}
		sc.staged = staged

		// Execute, collecting the would-be WAL records instead of appending
		// them one by one; they land in a single OpBatch frame at the end.
		batchSp := s.startSpan(r.Context(), stageBatch)
		batchSp.SetAttr("ops", strconv.Itoa(len(ops)))
		defer batchSp.End()
		sink := func(rec *wal.Record) bool {
			sc.recs = append(sc.recs, *rec)
			return true
		}
		results := make([]batchOpResult, 0, len(ops))
		applied := 0
		for i := range ops {
			op := &ops[i]
			result := batchOpResult{Op: op.kind}
			switch op.kind {
			case "assert":
				sess.insert(staged[:len(op.facts)])
				staged = staged[len(op.facts):]
				result.Count = len(op.facts)
				sink(&wal.Record{Op: wal.OpAssert, Facts: op.facts})
			case "retract":
				n, err := sess.retractMatching(op.template, op.fields)
				if err != nil {
					result.Error = err.Error()
					break
				}
				result.Count = n
				if n > 0 {
					sink(&wal.Record{Op: wal.OpRetract, Template: op.template, Fields: op.fields, Count: n})
				}
			case "run":
				timeout := s.clampTimeout(op.timeoutMS)
				ctx, cancel := context.WithTimeout(r.Context(), timeout)
				// admitForce, not admit: the batch as a whole passed
				// admission at the mutation layer; rejecting one of its ops
				// mid-flight would break the prefix contract.
				ticket := s.runQueue.admitForce(sess.id)
				s.metrics.runStarted()
				out := s.driveRun(ctx, sess, ticket, sink)
				ticket.done()
				cancel()
				resp := out.resp
				result.Run = &resp
				s.countRunOutcome(out)
				if out.err != nil {
					result.Error = out.err.Error()
				}
			case "tick":
				n := op.ticks
				if n == 0 {
					n = 1
				}
				expired := 0
				tick0 := time.Now()
				for k := int64(0); k < n; k++ {
					res := sess.clock.Tick()
					expired += res.Expired
					result.Tick = res.Now
					// One record per tick: replay re-executes each advance and
					// verifies the clock value and expiry count it produced.
					sink(&wal.Record{Op: wal.OpTick, Tick: res.Now, Count: res.Expired})
				}
				result.Count = expired
				s.recordSpan(r.Context(), batchSp.ID(), stageTick, time.Since(tick0))
				s.metrics.ticksObserved(n, expired)
			}
			results = append(results, result)
			if result.Error != "" {
				break
			}
			applied++
		}
		s.metrics.batchObserved(applied)

		if len(sc.recs) > 0 && !s.persist(r.Context(), sess, &wal.Record{Op: wal.OpBatch, Ops: sc.recs}) {
			writeError(w, http.StatusInternalServerError, "batch applied in memory but not durably logged")
			return
		}
		writeJSON(w, http.StatusOK, batchResponse{
			Applied: applied,
			Results: results,
			WMSize:  sess.eng.Memory().Len(),
		})
	})
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
