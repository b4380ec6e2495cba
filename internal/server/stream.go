package server

// POST /sessions/{id}/stream is the continuous-ingest endpoint: the
// request body is NDJSON, one frame per line, and each frame is applied
// as one atomic mini-batch — facts asserted (with optional TTL
// overrides), the temporal clock ticked, and optionally the engine run
// to quiescence — then persisted as a single wal.OpBatch frame. The
// response is NDJSON too: one result line per applied frame, flushed
// eagerly so a client can pace itself against the per-frame wm_size.
//
// Backpressure reuses the mutation admission gate: when the session's
// queue is full the whole request fast-fails with 429 + Retry-After, so
// a stream client ships bounded requests and retries, exactly like the
// batch path. Once frames start flowing the response status is already
// committed; frame-level failures surface as an in-band "error" line
// that terminates the stream (the applied prefix stands and is logged).

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"parulel/internal/wal"
)

// streamFrameResult is one NDJSON response line. Frame counts from 1;
// an Error line is terminal and may carry frame 0 when the very first
// line failed to parse.
type streamFrameResult struct {
	Frame    int          `json:"frame"`
	Asserted int          `json:"asserted,omitempty"`
	Tick     int64        `json:"tick,omitempty"`
	Expired  int          `json:"expired,omitempty"`
	Run      *runResponse `json:"run,omitempty"`
	WMSize   int          `json:"wm_size"`
	Error    string       `json:"error,omitempty"`
}

// handleStream reads one frame object per request line (or several lines):
// "facts" as in /facts, "ticks" — the number of clock advances after the
// frame's facts land: absent means 1 (the common case — a frame is a unit
// of stream time), 0 suppresses the tick — "run" and "timeout_ms". Any
// other key fails the frame.
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
		enc := json.NewEncoder(w)
		// encoding/json only frames the stream — one raw value per frame,
		// wherever its line breaks fall; the fact scanner reads the frame.
		dec := json.NewDecoder(r.Body)
		sc := scanners.Get().(*factScanner)
		defer sc.release()
		var raw json.RawMessage
		frame := 0
		var frameSp *reqSpan
		emit := func(res streamFrameResult) {
			// Every frame outcome — success or in-band error — emits
			// exactly one line, so the frame span ends here (idempotent,
			// nil before the first frame decodes).
			frameSp.End()
			res.Frame = frame
			res.WMSize = sess.eng.Memory().Len()
			_ = enc.Encode(res)
			_ = rc.Flush()
		}
		fail := func(format string, args ...any) {
			emit(streamFrameResult{Error: fmt.Sprintf(format, args...)})
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
				fail("bad frame: %v", err)
				return
			}
			frame++
			// One span per applied frame (decode wait excluded — idle time
			// between frames is the client's, not ours).
			frameSp = s.startSpan(r.Context(), stageStreamFrame)
			frameSp.SetAttr("frame", strconv.Itoa(frame))

			// Structural validation before anything is applied, mirroring
			// the batch handler's two-phase contract per frame.
			staged, bad, err := sess.stage(sc.staged[:0], f.facts)
			sc.staged = staged
			if err != nil {
				fail("fact %d: %v", bad, err)
				return
			}
			if f.hasTicks && f.ticks < 0 {
				fail("ticks must be non-negative")
				return
			}

			sess.insert(staged)
			if len(f.facts) > 0 {
				sc.collect(&wal.Record{Op: wal.OpAssert, Facts: f.facts})
			}

			ticks := int64(1)
			if f.hasTicks {
				ticks = f.ticks
			}
			res := streamFrameResult{Asserted: len(f.facts)}
			res.Tick, res.Expired = s.advanceClock(r.Context(), sess, frameSp.ID(), ticks, sc.collect)

			if f.run {
				out := s.runOp(r.Context(), sess, f.timeoutMS, sc.collect)
				res.Run = &out.resp
				if out.err != nil {
					// The frame's mutations and committed cycles stand; log
					// them, report the error, end the stream.
					s.persistCollected(r.Context(), sess, sc)
					fail("run: %v", out.err)
					return
				}
			}

			if !s.persistCollected(r.Context(), sess, sc) {
				fail("frame applied in memory but not durably logged")
				return
			}
			s.metrics.inc(&s.metrics.Stream.Frames)
			s.metrics.add(&s.metrics.Stream.Facts, uint64(len(f.facts)))
			emit(res)
		}
	})
	if refused {
		s.metrics.inc(&s.metrics.Stream.Rejected)
	}
}
