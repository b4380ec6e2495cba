package server

// This file is the server's half of durability: the persist policy, the
// pool side of rehydration, replay and the proof endpoint. The data
// directory itself — its layout, the crash-safe write protocol, reading a
// session back — belongs to internal/store; the server calls it and never
// touches a file. A session's log records its externally visible history
// (creation, asserts, retracts, snapshot imports, the committed extent of
// every run), and the engine's determinism makes replaying it reproduce
// the session exactly (see DESIGN.md). Every CheckpointEvery records the
// state image is rewritten and the log emptied.
//
// Recovery is lazy: the store's boot scan only records which session ids
// exist on disk; a session is rebuilt (checkpoint + log tail) the first
// time a request names it — whether the miss comes from a process restart
// or from LRU eviction, which closes the log but keeps the files.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"parulel/internal/checkpoint"
	"parulel/internal/compile"
	"parulel/internal/snapshot"
	"parulel/internal/store"
	"parulel/internal/wal"
)

// checkpointSession writes a checkpoint for sess and truncates its log.
// Failure keeps the log intact — recovery still works, it just replays
// more — and is reported to the caller. Caller holds the session slot.
// ctx carries the request id into the failure log line.
func (s *Server) checkpointSession(ctx context.Context, sess *session) error {
	d := sess.dur
	h := checkpoint.HeaderFor(d.Meta())
	h.Seq = d.Seq()
	h.Runs = sess.runs
	h.Counters = sess.eng.Counters()
	h.Fired = sess.eng.FiredKeys()
	h.Temporal = sess.clock.State()
	t0 := time.Now()
	err := d.Checkpoint(func(w io.Writer, commit *checkpoint.LedgerCommit) error {
		h.Ledger = commit
		return checkpoint.Write(w, h, sess.eng.Memory())
	})
	if err != nil {
		s.metrics.inc(&s.metrics.Durability.CheckpointErrors)
		s.log(ctx).Error("checkpoint failed (log retained)", "session_id", sess.id, "err", err)
		return err
	}
	s.metrics.inc(&s.metrics.Durability.Checkpoints)
	s.metrics.add(&s.metrics.Durability.CheckpointTotalNS, uint64(time.Since(t0)))
	// The checkpoint emptied the log, taking any live jobs' queued markers
	// with it; re-log them so a crash after this point still surfaces the
	// jobs as interrupted.
	for _, jobID := range s.jobs.activeFor(sess.id) {
		s.appendJobMarker(ctx, sess, jobID, jobQueued)
	}
	// Mirror the compaction to the session's replica so it stays as small
	// as the primary (best-effort; a dropped stream re-syncs lazily).
	s.replicateCheckpoint(ctx, sess)
	return nil
}

// tracedCheckpoint is checkpointSession under a span of its own, so a
// request that paid for a checkpoint shows it beside its WAL append.
func (s *Server) tracedCheckpoint(ctx context.Context, sess *session) error {
	sp := s.startSpan(ctx, stageCheckpoint)
	defer sp.End()
	return s.checkpointSession(ctx, sess)
}

// persist logs one mutation record for sess, checkpointing when due. On
// append failure it attempts an immediate checkpoint — a full state image
// supersedes the lost record — and only if that also fails is the
// session's durability marked broken. A false return means the mutation
// is applied in memory but not on disk.
func (s *Server) persist(ctx context.Context, sess *session, rec *wal.Record) bool {
	d := sess.dur
	if d == nil {
		return true
	}
	appendSp := s.startSpan(ctx, stageWALAppend)
	fs, err := d.Append(rec, false)
	appendSp.End()
	// Attribute the time this append spent on stable storage — the inline
	// fsync under PolicyAlways — as a child of the append that paid for
	// it. Batched policies (interval/never) sync elsewhere and report
	// zero.
	if fs > 0 {
		s.recordSpan(ctx, appendSp.ID(), stageWALFsync, fs)
	}
	if err == nil {
		if d.Due(s.cfg.CheckpointEvery) && s.tracedCheckpoint(ctx, sess) == nil {
			// The checkpoint compacted rec into the state image and mirrored
			// it to a live replica stream; a nil record just makes sure some
			// replica holds that state (re-attaching if the mirror dropped).
			return s.replicate(ctx, sess, nil)
		}
		return s.replicate(ctx, sess, rec)
	}
	s.log(ctx).Error("wal append failed", "session_id", sess.id, "err", err)
	if cerr := s.tracedCheckpoint(ctx, sess); cerr != nil {
		d.MarkFailed()
		s.log(ctx).Error("durability disabled (append and checkpoint both failed)", "session_id", sess.id)
		return false
	}
	return s.replicate(ctx, sess, nil) // the checkpoint supersedes the record
}

// rehydrate rebuilds session id from its on-disk state and inserts it
// into the pool. Concurrent requests for the same id collapse onto one
// rebuild; every caller re-checks the pool afterwards.
func (s *Server) rehydrate(ctx context.Context, id string) error {
	s.mu.Lock()
	if _, ok := s.sessions[id]; ok {
		s.mu.Unlock()
		return nil
	}
	if ch, ok := s.rehydrating[id]; ok {
		s.mu.Unlock()
		<-ch // another request is rebuilding it; wait and re-check
		return nil
	}
	ch := make(chan struct{})
	s.rehydrating[id] = ch
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.rehydrating, id)
		s.mu.Unlock()
		close(ch)
	}()

	sess, err := s.loadSession(ctx, id)
	if err != nil {
		s.metrics.inc(&s.metrics.Durability.RecoveryFailures)
		return err
	}
	// Read for the log line before the pool insert: from then on the
	// session is its slot holder's, and a waiting request may take it.
	wmSize, runs, cycles := sess.eng.Memory().Len(), sess.runs, sess.lastResult.Cycles
	s.mu.Lock()
	switch {
	case s.draining:
		err = errors.New("server is draining")
	case !s.store.Has(id): // deleted while loading
		err = errors.New("session was deleted")
	default:
		err = s.insertLocked(sess)
	}
	s.mu.Unlock()
	if err != nil {
		sess.dur.Close()
		return err
	}
	if len(sess.recoveredJobs) > 0 {
		s.foldRecoveredJobs(id, sess.recoveredJobs)
		sess.recoveredJobs = nil
	}
	s.metrics.inc(&s.metrics.Sessions.Recovered)
	s.log(ctx).Info("session rehydrated",
		"session_id", id, "program", sess.program, "wm_size", wmSize, "runs", runs, "cycles", cycles)
	return nil
}

// loadSession rebuilds one session from what the store read: the newest
// valid checkpoint (if any) plus replay of the log records behind it. A
// corrupt checkpoint is ignored — the log alone reproduces the session
// when it has never been truncated by an earlier checkpoint; otherwise
// recovery fails.
func (s *Server) loadSession(ctx context.Context, id string) (*session, error) {
	d, img, err := s.store.Load(id)
	if err != nil {
		return nil, err
	}
	ok := false
	defer func() {
		if !ok {
			d.Close()
		}
	}()
	if img.CheckpointErr != nil {
		s.log(ctx).Warn("ignoring unreadable checkpoint", "session_id", id, "err", img.CheckpointErr)
	}
	if img.TornBytes > 0 {
		s.metrics.inc(&s.metrics.Durability.WALTruncations)
		s.metrics.add(&s.metrics.Durability.WALTruncatedBytes, uint64(img.TornBytes))
		s.log(ctx).Warn("dropped torn wal tail", "session_id", id, "bytes", img.TornBytes)
	}
	if img.LedgerErr != nil {
		s.log(ctx).Warn("recreated unreadable merkle ledger", "session_id", id, "err", img.LedgerErr)
	}

	prog, err := compile.CompileSource(d.Meta().Source)
	if err != nil {
		return nil, fmt.Errorf("recompiling program: %w", err)
	}
	// A checkpointed WM already contains the program's initial facts under
	// their original tags; log-only recovery replants them exactly as the
	// original creation did.
	h := img.Header
	sess := s.newSession(id, d.Meta(), prog, h != nil)
	if h != nil {
		if err := checkpoint.Restore(sess.eng, *h, img.Facts); err != nil {
			return nil, err
		}
		// The clock image must load after the WMEs (it rebuilds its
		// aggregate-tag mirror from them) and before any tail replay.
		if err := sess.clock.RestoreState(h.Temporal); err != nil {
			return nil, err
		}
		sess.runs = h.Runs
	}
	tail := img.Tail()
	for i := range tail {
		if err := replay(sess, &tail[i]); err != nil {
			return nil, fmt.Errorf("replaying record %d (%s): %w", tail[i].Seq, tail[i].Op, err)
		}
	}
	sess.out.take() // replayed `(write …)` output belongs to no request
	sess.lastResult = sess.eng.CurrentResult()
	// Replay-produced per-rule activity belongs to no run: dropped here,
	// not folded into /metrics.
	sess.profileDeltas()
	sess.dur = d
	ok = true
	return sess, nil
}

// handleProof serves a Merkle inclusion proof for one WAL record:
// GET /api/v1/sessions/{id}/proof?seq=N. The proof is self-contained
// (leaf, bottom-up path, root); `parverify -proof` checks it offline,
// optionally against a root recorded out of band.
func (s *Server) handleProof(w http.ResponseWriter, r *http.Request) {
	s.withSession(w, r, func(sess *session) {
		seq, err := strconv.ParseUint(r.URL.Query().Get("seq"), 10, 64)
		if err != nil || seq == 0 {
			writeError(w, http.StatusBadRequest, "seq must be a positive integer")
			return
		}
		if sess.dur == nil {
			writeError(w, http.StatusConflict, "session is not durable (server runs without a data dir)")
			return
		}
		p, perr := sess.dur.Proof(seq)
		switch {
		case perr == nil:
			writeJSON(w, http.StatusOK, p)
		case errors.Is(perr, store.ErrMerkleDisabled):
			writeError(w, http.StatusConflict, perr.Error())
		case errors.Is(perr, wal.ErrProofPredates):
			// The leaves below a promoted replica's base are summarized
			// into peaks; the record is attested but not provable here.
			writeError(w, http.StatusGone, perr.Error())
		default:
			writeError(w, http.StatusNotFound, perr.Error())
		}
	})
}

// replay applies one log record to a recovering session. Count-bearing
// records double as integrity checks: a replayed retract or import that
// touches a different number of facts means the log does not describe
// this state, and recovery fails rather than serving a diverged session.
func replay(sess *session, rec *wal.Record) error {
	switch rec.Op {
	case wal.OpCreate:
		return nil // consumed as session metadata
	case wal.OpAssert:
		// The same stage-then-insert as the request that logged the record,
		// per-fact lifetime overrides included, so replayed ticks expire
		// each fact exactly when the original ticks did.
		staged, bad, err := sess.stage(make([]stagedFact, 0, len(rec.Facts)), rec.Facts)
		if err != nil {
			return fmt.Errorf("fact %d: %w", bad, err)
		}
		sess.insert(staged)
		return nil
	case wal.OpRetract:
		pos, err := sess.retractPositions(rec.Template, rec.Fields)
		if err != nil {
			return err
		}
		if n := sess.retractMatching(rec.Template, pos, rec.Fields); n != rec.Count {
			return fmt.Errorf("retracted %d facts, log recorded %d", n, rec.Count)
		}
		return nil
	case wal.OpRun:
		if err := sess.eng.ReplaySteps(rec.Cycles); err != nil {
			return err
		}
		if halted := sess.eng.Counters().Halted; halted != rec.Halted {
			return fmt.Errorf("replay diverged: halted=%v, log recorded %v", halted, rec.Halted)
		}
		sess.runs++
		return nil
	case wal.OpImport:
		n, err := snapshot.Read(strings.NewReader(rec.Text), sess.eng)
		if err != nil {
			return err
		}
		if n != rec.Count {
			return fmt.Errorf("imported %d facts, log recorded %d", n, rec.Count)
		}
		return nil
	case wal.OpBatch:
		// The nested ops were applied atomically in one frame; replay them
		// in order. Nested records carry no sequence numbers.
		for i := range rec.Ops {
			if err := replay(sess, &rec.Ops[i]); err != nil {
				return fmt.Errorf("batch op %d: %w", i, err)
			}
		}
		return nil
	case wal.OpTick:
		// Expiry is deterministic: a replayed tick must land on the same
		// clock value and expire the same number of facts the original did,
		// or the log does not describe this state.
		res := sess.clock.Tick()
		if res.Now != rec.Tick {
			return fmt.Errorf("replay diverged: tick advanced clock to %d, log recorded %d", res.Now, rec.Tick)
		}
		if res.Expired != rec.Count {
			return fmt.Errorf("replay diverged: tick %d expired %d facts, log recorded %d", res.Now, res.Expired, rec.Count)
		}
		return nil
	case wal.OpJob:
		// No engine effect: remember the last logged status per job so the
		// server can reconstruct its job registry. A job whose final marker
		// is non-terminal was in flight at the crash.
		if sess.recoveredJobs == nil {
			sess.recoveredJobs = make(map[string]string)
		}
		sess.recoveredJobs[rec.Job] = rec.JobStatus
		return nil
	default:
		return fmt.Errorf("unknown op %q", rec.Op)
	}
}
