package server

// Every request that changes a session — /facts, /retract, snapshot
// import, /batch and each /stream frame — is an ordered list of ops
// (assert, retract, tick, run) that apply runs under the session slot,
// in two phases (docs/SERVER.md states the contract): every op is
// validated before the first applies, so a structural fault changes
// nothing; then the ops apply in order, and a runtime failure (a run's
// deadline or cycle cap) stops them there, the applied prefix standing.
//
// apply collects the records of what it did; each endpoint logs them in
// its own shape. /facts and /retract log the one record as its own frame,
// an import logs its OpImport in place of the collected OpAssert, and a
// batch or stream frame nests them in a single wal.OpBatch record, so a
// crash preserves the whole applied prefix or none of it.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"parulel/internal/snapshot"
	"parulel/internal/wal"
	"parulel/internal/wm"
)

// opError is a structural fault apply found before changing anything: the
// op at fault, the fact within it (-1 unless the op is an assert), and why.
type opError struct {
	op, fact int
	err      error
}

// Error is the text of a refused single-op request or stream frame; a
// batch names the op instead.
func (e *opError) Error() string {
	if e.fact < 0 {
		return e.err.Error()
	}
	return fmt.Sprintf("fact %d: %v", e.fact, e.err)
}

var errNegativeTicks = errors.New("ticks must be non-negative")

// apply validates every op, then runs them in order, collecting their
// records in sc.recs, and returns one result per op it ran: all of them,
// or up to and including the first that failed. A non-nil opError means
// nothing was applied. parent is the span a tick's time hangs under.
// Caller holds the slot.
func (s *Server) apply(ctx context.Context, sess *session, sc *factScanner, ops []scanOp, parent string) ([]batchOpResult, *opError) {
	// Every assert op's facts are staged here, in op order, and inserted
	// from the staging area when execution reaches the op.
	sc.staged = sc.staged[:0]
	for i := range ops {
		op, bad, err := &ops[i], -1, error(nil)
		switch op.kind {
		case "assert":
			sc.staged, bad, err = sess.stage(sc.staged, op.facts)
		case "retract":
			op.pos, err = sess.retractPositions(op.template, op.fields)
		case "tick":
			if op.ticks < 0 {
				err = errNegativeTicks
			}
		}
		if err != nil {
			return nil, &opError{i, bad, err}
		}
	}
	staged := sc.staged

	results := sc.results[:0]
	for i := range ops {
		op := &ops[i]
		result := batchOpResult{Op: op.kind}
		switch op.kind {
		case "assert":
			n := len(op.facts)
			sess.insert(staged[:n])
			staged = staged[n:]
			result.Count = n
			if n > 0 {
				sc.collect(&wal.Record{Op: wal.OpAssert, Facts: op.facts})
			}
		case "retract":
			n := sess.retractMatching(op.template, op.pos, op.fields)
			result.Count = n
			if n > 0 {
				sc.collect(&wal.Record{Op: wal.OpRetract, Template: op.template, Fields: op.fields, Count: n})
			}
		case "tick":
			result.Tick, result.Count = s.advanceClock(ctx, sess, parent, max(op.ticks, 1), sc.collect)
		case "run":
			out := s.runOp(ctx, sess, op.timeoutMS, sc.collect)
			result.Run = &out.resp
			if out.err != nil {
				result.Error = out.err.Error()
			}
		}
		results = append(results, result)
		if result.Error != "" {
			break
		}
	}
	sc.results = results
	return results, nil
}

// handleOp serves the endpoints that are one op: /facts ("assert"),
// /retract ("retract") and snapshot import ("import", an assert of the
// facts in `(wm …)` text, logged as its OpImport in place of the OpAssert
// apply collects). It answers with the count; a refused op is a 400 with
// nothing applied and nothing logged.
func (s *Server) handleOp(kind, lostMsg string) http.HandlerFunc {
	allowed := assertKeys
	if kind == "retract" {
		allowed = retractKeys
	}
	return func(w http.ResponseWriter, r *http.Request) {
		sc, ok := readBody(w, r)
		if !ok {
			return
		}
		defer sc.release()
		var logAs *wal.Record
		msg := ""
		if kind == "import" {
			// Parse into the scanner's staging form first: like every other
			// way in, an import that names an unknown template inserts nothing.
			text := sc.body.String()
			if _, err := snapshot.Read(strings.NewReader(text), sc); err != nil {
				msg = err.Error()
			}
			sc.ops = append(sc.ops[:0], scanOp{kind: "assert", facts: sc.facts})
			logAs = &wal.Record{Op: wal.OpImport, Text: text, Count: len(sc.facts)}
		} else if op, err := sc.scanOne(allowed); err != nil {
			msg = "bad request body: " + err.Error()
		} else if op.kind = kind; kind == "retract" && op.template == "" {
			msg = "template is required"
		}
		if msg != "" {
			writeError(w, http.StatusBadRequest, msg)
			return
		}
		s.withSession(w, r, func(sess *session) {
			results, bad := s.apply(r.Context(), sess, sc, sc.ops[:1], "")
			if bad != nil {
				writeError(w, http.StatusBadRequest, bad.Error())
				return
			}
			if len(sc.recs) > 0 {
				if logAs == nil {
					logAs = &sc.recs[0]
				}
				if !s.persist(r.Context(), sess, logAs) {
					writeError(w, http.StatusInternalServerError, lostMsg)
					return
				}
			}
			writeJSON(w, http.StatusOK, countResponse{Count: results[0].Count, WMSize: sess.eng.Memory().Len()})
		})
	}
}

// Insert implements snapshot.Inserter for an import: it collects the
// parsed facts in the form a scanned request body takes, without touching
// working memory.
func (sc *factScanner) Insert(template string, fields map[string]wm.Value) (*wm.WME, error) {
	lo := len(sc.fields)
	for name, v := range fields {
		sc.fields = append(sc.fields, wal.Field{Name: name, Value: v})
	}
	run := wal.Canonical(sc.fields[lo:])
	sc.facts = append(sc.facts, wal.Fact{Template: template, Fields: run[:len(run):len(run)]})
	return nil, nil
}

// handleBatch is POST /sessions/{id}/batch: an ordered list of ops in one
// round-trip and one WAL frame. The response reports per-op results, with
// the failing op's error set.
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
		msg := ""
		switch op := &ops[i]; op.kind {
		case "assert":
			if len(op.facts) == 0 {
				msg = "assert requires facts"
			}
		case "retract":
			if op.template == "" {
				msg = "retract requires template"
			}
		case "run":
			containsRun = true
		case "tick":
			if op.ticks < 0 {
				msg = errNegativeTicks.Error()
			}
		default:
			msg = fmt.Sprintf("unknown op %q (want assert, retract, run or tick)", op.kind)
		}
		if msg != "" {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("op %d: %s", i, msg))
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
		// A span is recorded when it ends, so a refused batch records none.
		batchSp := s.startSpan(r.Context(), stageBatch)
		results, bad := s.apply(r.Context(), sess, sc, ops, batchSp.ID())
		if bad != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("op %d: %v", bad.op, bad.err))
			return
		}
		defer batchSp.End()
		batchSp.SetAttr("ops", strconv.Itoa(len(ops)))
		applied := len(results)
		if results[applied-1].Error != "" {
			applied--
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

// streamFrameResult is one NDJSON response line of /stream. Frame counts
// from 1; an Error line is terminal and may carry frame 0 when the very
// first line failed to parse.
type streamFrameResult struct {
	Frame    int          `json:"frame"`
	Asserted int          `json:"asserted,omitempty"`
	Tick     int64        `json:"tick,omitempty"`
	Expired  int          `json:"expired,omitempty"`
	Run      *runResponse `json:"run,omitempty"`
	WMSize   int          `json:"wm_size"`
	Error    string       `json:"error,omitempty"`
}

// handleStream is POST /sessions/{id}/stream, continuous ingest: NDJSON
// frames in, one NDJSON result line out per frame, flushed at once so a
// client can pace itself on wm_size. A frame ({"facts", "ticks", "run",
// "timeout_ms"}) is the ops [assert facts, tick n, run?] — ticks absent
// means 1, 0 means none — logged as one OpBatch. The mutation gate's 429
// refuses the whole request; once frames flow, a failed frame ends the
// stream with an in-band error line and the frames before it stand.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	// A stream may run the engine, so the whole request registers as
	// active work: shutdown waits for it, a draining server refuses it.
	if !s.beginWork(w) {
		return
	}
	defer s.endWork()

	refused := s.withSession(w, r, func(sess *session) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		// The exchange is full-duplex: result lines go out while request
		// frames are still arriving. Without this, the HTTP/1 server
		// drains the whole request body before releasing the response
		// header, deadlocking against a client that paces its frames on
		// our results.
		rc := http.NewResponseController(w)
		_ = rc.EnableFullDuplex()
		// encoding/json only frames the stream — one raw value per frame,
		// wherever its line breaks fall; the fact scanner reads the frame.
		enc, dec := json.NewEncoder(w), json.NewDecoder(r.Body)
		sc := scanners.Get().(*factScanner)
		defer sc.release()
		var raw json.RawMessage
		var frameSp *reqSpan
		frame := 0
		emit := func(res streamFrameResult) {
			// Every frame outcome emits exactly one line, so the frame span
			// ends here (idempotent, nil before the first frame scans).
			frameSp.End()
			res.Frame, res.WMSize = frame, sess.eng.Memory().Len()
			_ = enc.Encode(res)
			_ = rc.Flush()
		}

		for {
			raw = raw[:0]
			err := dec.Decode(&raw)
			if errors.Is(err, io.EOF) {
				return
			}
			var f *scanOp
			if err == nil {
				sc.reset(raw)
				f, err = sc.scanOne(frameKeys)
			}
			if err != nil {
				// Nothing of a frame that does not scan is applied, and the
				// clock does not move: an unknown key is a typo, not an
				// empty frame.
				emit(streamFrameResult{Error: "bad frame: " + err.Error()})
				return
			}
			frame++
			// One span per applied frame (decode wait excluded — idle time
			// between frames is the client's, not ours).
			frameSp = s.startSpan(r.Context(), stageStreamFrame)
			frameSp.SetAttr("frame", strconv.Itoa(frame))

			f.kind = "assert"
			asserted, ticks, ops := len(f.facts), int64(1), sc.ops[:1]
			if f.hasTicks {
				ticks = f.ticks
			}
			if ticks != 0 {
				ops = append(ops, scanOp{kind: "tick", ticks: ticks})
			}
			if f.run {
				ops = append(ops, scanOp{kind: "run", timeoutMS: f.timeoutMS})
			}
			sc.ops = ops
			results, bad := s.apply(r.Context(), sess, sc, ops, frameSp.ID())
			if bad != nil {
				emit(streamFrameResult{Error: bad.Error()})
				return
			}
			// A frame whose run failed still logs what it applied and the
			// cycles it committed, then ends the stream.
			last, logged := results[len(results)-1], s.persistCollected(r.Context(), sess, sc)
			if last.Error != "" || !logged {
				msg := "frame applied in memory but not durably logged"
				if last.Error != "" {
					msg = "run: " + last.Error
				}
				emit(streamFrameResult{Error: msg})
				return
			}
			res := streamFrameResult{Asserted: asserted, Tick: sess.clock.Now(), Run: last.Run}
			if ticks != 0 {
				res.Expired = results[1].Count
			}
			s.metrics.inc(&s.metrics.Stream.Frames)
			s.metrics.add(&s.metrics.Stream.Facts, uint64(asserted))
			emit(res)
		}
	})
	if refused {
		s.metrics.inc(&s.metrics.Stream.Rejected)
	}
}

// collect is the recordSink apply hands every op: it gathers the records
// of one request in sc.recs, and persistCollected appends them as a single
// OpBatch record — nothing gathered, nothing logged.
func (sc *factScanner) collect(rec *wal.Record) bool {
	sc.recs = append(sc.recs, *rec)
	return true
}

func (s *Server) persistCollected(ctx context.Context, sess *session, sc *factScanner) bool {
	return len(sc.recs) == 0 || s.persist(ctx, sess, &wal.Record{Op: wal.OpBatch, Ops: sc.recs})
}

// advanceClock ticks the session's temporal clock n > 0 times and returns the
// clock value it reached and the facts that expired on the way. Each tick
// is one record: replay re-executes every advance and verifies the clock
// value and expiry count it produced. parent is the span the tick time
// hangs under.
func (s *Server) advanceClock(ctx context.Context, sess *session, parent string, n int64, sink recordSink) (now int64, expired int) {
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
