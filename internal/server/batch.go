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
		if !s.beginWork(w) {
			return
		}
		defer s.endWork()
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
				sc.collect(&wal.Record{Op: wal.OpAssert, Facts: op.facts})
			case "retract":
				n, err := sess.retractMatching(op.template, op.fields)
				if err != nil {
					result.Error = err.Error()
					break
				}
				result.Count = n
				if n > 0 {
					sc.collect(&wal.Record{Op: wal.OpRetract, Template: op.template, Fields: op.fields, Count: n})
				}
			case "run":
				out := s.runOp(r.Context(), sess, op.timeoutMS, sc.collect)
				result.Run = &out.resp
				if out.err != nil {
					result.Error = out.err.Error()
				}
			case "tick":
				result.Tick, result.Count = s.advanceClock(r.Context(), sess, batchSp.ID(), max(op.ticks, 1), sc.collect)
			}
			results = append(results, result)
			if result.Error != "" {
				break
			}
			applied++
		}
		s.metrics.inc(&s.metrics.Batches.Batches)
		s.metrics.add(&s.metrics.Batches.Ops, uint64(applied))

		if !s.persistCollected(r.Context(), sess, sc) {
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

// collect is the recordSink of a request that logs one frame for all it
// did — a batch, or one stream frame — and persistCollected appends what
// it gathered as a single OpBatch record: nothing gathered, nothing logged.
func (sc *factScanner) collect(rec *wal.Record) bool {
	sc.recs = append(sc.recs, *rec)
	return true
}

func (s *Server) persistCollected(ctx context.Context, sess *session, sc *factScanner) bool {
	return len(sc.recs) == 0 || s.persist(ctx, sess, &wal.Record{Op: wal.OpBatch, Ops: sc.recs})
}

// advanceClock ticks the session's temporal clock n times and returns the
// clock value it reached and the facts that expired on the way. Each tick
// is one record: replay re-executes every advance and verifies the clock
// value and expiry count it produced. parent is the span the tick time
// hangs under.
func (s *Server) advanceClock(ctx context.Context, sess *session, parent string, n int64, sink recordSink) (now int64, expired int) {
	now = sess.clock.Now()
	if n == 0 {
		return now, 0
	}
	t0 := time.Now()
	for k := int64(0); k < n; k++ {
		res := sess.clock.Tick()
		now, expired = res.Now, expired+res.Expired
		sink(&wal.Record{Op: wal.OpTick, Tick: res.Now, Count: res.Expired})
	}
	s.recordSpan(ctx, parent, stageTick, time.Since(t0))
	s.metrics.add(&s.metrics.Stream.Ticks, uint64(n))
	s.metrics.add(&s.metrics.Stream.Expired, uint64(expired))
	return now, expired
}
