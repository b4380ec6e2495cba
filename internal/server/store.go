package server

// This file is the durability layer's server glue. When Config.DataDir is
// set, every session owns a directory <DataDir>/sessions/<id> holding a
// write-ahead log (wal.log) and the newest checkpoint (checkpoint). The
// log records the session's externally visible history — creation,
// asserts, retracts, snapshot imports, and the committed extent of every
// run — and the engine's determinism makes replaying it reproduce the
// session exactly (see internal/wal and DESIGN.md). Checkpoints bound
// replay time: every CheckpointEvery records the full state image is
// rewritten atomically and the log emptied.
//
// Recovery is lazy: a boot-time scan only records which session ids exist
// on disk; a session is rebuilt (checkpoint + log tail) the first time a
// request names it — whether the miss comes from a process restart or
// from LRU eviction, which closes the log but keeps the files.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"parulel/internal/checkpoint"
	"parulel/internal/compile"
	"parulel/internal/snapshot"
	"parulel/internal/wal"
)

// File names inside a session directory.
const (
	walFile        = "wal.log"
	checkpointFile = "checkpoint"
	ledgerFile     = "merkle.log"
)

// store tracks the on-disk session directories under <DataDir>/sessions.
type store struct {
	root    string
	walOpts wal.Options
	merkle  bool // attach a Merkle ledger to every session log

	mu    sync.Mutex
	known map[string]bool // session ids with an on-disk directory
}

// openStore scans an existing data directory, returning the store and the
// largest numeric session id found, so freshly minted ids never collide
// with recoverable ones.
func openStore(dataDir string, walOpts wal.Options, merkle bool) (*store, uint64, error) {
	root := filepath.Join(dataDir, "sessions")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, 0, fmt.Errorf("durability: %w", err)
	}
	st := &store{root: root, walOpts: walOpts, merkle: merkle, known: make(map[string]bool)}
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, 0, fmt.Errorf("durability: %w", err)
	}
	var maxID uint64
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		id := e.Name()
		st.known[id] = true
		// Ids are "s<n>" single-node or "s-<node>-<n>" in cluster mode;
		// either way the counter is the trailing number.
		num := strings.TrimPrefix(id, "s")
		if i := strings.LastIndex(num, "-"); i >= 0 {
			num = num[i+1:]
		}
		if n, err := strconv.ParseUint(num, 10, 64); err == nil && n > maxID {
			maxID = n
		}
	}
	return st, maxID, nil
}

func (st *store) has(id string) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.known[id]
}

func (st *store) count() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.known)
}

func (st *store) dir(id string) string { return filepath.Join(st.root, id) }

// create makes the session directory and its log and writes the OpCreate
// record. Under wal.PolicyAlways the record is durable on return. The id
// is deliberately NOT marked known yet: until the session is in the pool,
// a concurrent lookup must 404 rather than rehydrate from the fresh
// OpCreate record and race the pending insert. The caller marks the id
// with markKnown once pool insertion has succeeded.
func (st *store) create(id string, meta wal.Record) (*durable, error) {
	dir := st.dir(id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	l, _, err := wal.Open(filepath.Join(dir, walFile), st.walOpts)
	if err != nil {
		return nil, err
	}
	var led *wal.Ledger
	if st.merkle {
		led, err = wal.OpenLedger(filepath.Join(dir, ledgerFile))
		if err != nil {
			l.Close()
			return nil, err
		}
		l.SetLedger(led) // before the OpCreate append so seq 1 is leaf 0
	}
	if err := l.Append(&meta); err != nil {
		l.Close()
		if led != nil {
			led.Close()
		}
		return nil, err
	}
	return &durable{st: st, id: id, dir: dir, log: l, led: led, meta: meta}, nil
}

// markKnown makes id visible to lookup/rehydration and deletion.
func (st *store) markKnown(id string) {
	st.mu.Lock()
	st.known[id] = true
	st.mu.Unlock()
}

// remove deletes a session's on-disk state.
func (st *store) remove(id string) error {
	st.mu.Lock()
	delete(st.known, id)
	st.mu.Unlock()
	return os.RemoveAll(st.dir(id))
}

// durable is a live session's handle on its on-disk state. It carries its
// own mutex because appends run under the session slot while eviction,
// deletion and drain run under the server mutex.
type durable struct {
	st   *store
	id   string
	dir  string
	meta wal.Record // the OpCreate record; reused for checkpoint headers

	mu      sync.Mutex
	log     *wal.Log
	led     *wal.Ledger // Merkle ledger, nil when disabled
	closed  bool
	failed  bool // a mutation could not be made durable; appends are refused
	records int  // log records appended since the last checkpoint

	// lastCommit is the newest checkpoint's ledger commit, chained into
	// the next one's PrevCount/PrevRoot.
	lastCommit *checkpoint.LedgerCommit
}

// append logs one record, returning how long it waited on stable storage
// (PolicyAlways' inline fsync; zero under the batched policies) so the
// caller can attribute the latency. keepSeq is the replica's append: the
// record keeps the sequence number its primary gave it instead of taking
// this log's next one.
func (d *durable) append(rec *wal.Record, keepSeq bool) (fs time.Duration, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	switch {
	case d.closed:
		return 0, errLogClosed
	case d.failed:
		return 0, errors.New("durability disabled after an earlier failure")
	case keepSeq:
		err = d.log.AppendKeepSeq(rec)
	default:
		fs, err = d.log.AppendSynced(rec)
	}
	if err == nil {
		d.records++
	}
	return fs, err
}

// errLogClosed refuses work on a closed handle: an evicted session's, or
// a replica's that was fenced for promotion or discarded.
var errLogClosed = errors.New("log is closed")

// errMerkleDisabled distinguishes "this server runs without ledgers"
// from "no such record" on the proof endpoint.
var errMerkleDisabled = errors.New("merkle ledger is disabled on this server")

// proof builds the inclusion proof for the record with sequence seq.
func (d *durable) proof(seq uint64) (*wal.Proof, error) {
	d.mu.Lock()
	led, id, closed := d.led, d.id, d.closed
	d.mu.Unlock()
	if closed {
		return nil, errLogClosed
	}
	if led == nil {
		return nil, errMerkleDisabled
	}
	p, err := led.Prove(seq)
	if err != nil {
		return nil, err
	}
	p.Session = id
	return p, nil
}

// due reports whether enough records accumulated to warrant a checkpoint.
func (d *durable) due(every int) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return !d.closed && !d.failed && d.records >= every
}

// checkpoint atomically replaces the on-disk checkpoint with what write
// produces (replaceFile) and then empties the log it covers. The sequence
// numbering survives the log reset, so a crash between the rename and the
// truncation is harmless: recovery skips log records at or below the
// checkpoint's sequence point. write is handed the ledger commit the
// checkpoint must vouch for — nil without a ledger, so always for a
// replica, which installs an image its primary wrote. A session's caller
// holds the slot, since the engine is read while writing.
func (d *durable) checkpoint(write func(w io.Writer, commit *checkpoint.LedgerCommit) error) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return errLogClosed
	}
	// Success or failure, the next attempt waits another CheckpointEvery
	// records: a state that cannot be written (a symbol with no literal
	// form) would otherwise be retried, syncs and commit included, on
	// every append.
	d.records = 0
	var commit *checkpoint.LedgerCommit
	if d.led != nil {
		// Flush staged ledger entries and commit the tree: the header
		// vouches for the root over everything appended so far, chained
		// to the previous checkpoint's commit. The WAL is synced first —
		// a durable ledger entry must always imply a durable frame, or
		// the audit invariant (entry without frame = tampering) breaks.
		if err := d.log.Sync(); err != nil {
			return err
		}
		if err := d.led.SyncAll(); err != nil {
			return err
		}
		st, err := d.led.State()
		if err != nil {
			return err
		}
		commit = &checkpoint.LedgerCommit{Count: st.Count, Root: st.Root, Peaks: st.Peaks}
		if d.lastCommit != nil {
			commit.PrevCount = d.lastCommit.Count
			commit.PrevRoot = d.lastCommit.Root
		}
	}
	err := replaceFile(d.dir, checkpointFile, func(w io.Writer) error { return write(w, commit) })
	if err != nil {
		return err
	}
	if err := d.log.Reset(); err != nil {
		return err
	}
	if commit != nil {
		d.lastCommit = commit
	}
	return nil
}

// sync makes the log and the directory entries durable whatever the fsync
// policy: a replica's answer to its primary's sync barrier.
func (d *durable) sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return errLogClosed
	}
	if err := d.log.Sync(); err != nil {
		return err
	}
	return syncDir(d.dir)
}

func (d *durable) markFailed() {
	d.mu.Lock()
	d.failed = true
	d.mu.Unlock()
}

// close flushes and closes the log, leaving the files on disk for later
// rehydration. Idempotent.
func (d *durable) close() error { return d.shut(d.log.Close) }

// discard closes the log without flushing it, for files about to be
// removed. Idempotent, and a no-op after close.
func (d *durable) discard() error { return d.shut(d.log.Discard) }

func (d *durable) shut(closeLog func() error) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	err := closeLog()
	if d.led != nil {
		if lerr := d.led.Close(); err == nil {
			err = lerr
		}
	}
	return err
}

// replaceFile atomically replaces dir/name with what write produces: temp
// file, fsync, rename, fsync the directory. A crash leaves the old file
// or the new one, never a mixture.
func replaceFile(dir, name string, write func(io.Writer) error) error {
	tmp := filepath.Join(dir, name+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, filepath.Join(dir, name))
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(dir)
}

func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = f.Sync()
	f.Close()
	return err
}

// checkpointSession writes a checkpoint for sess and truncates its log.
// Failure keeps the log intact — recovery still works, it just replays
// more — and is reported to the caller. Caller holds the session slot.
// ctx carries the request id into the failure log line.
func (s *Server) checkpointSession(ctx context.Context, sess *session) error {
	d := sess.dur
	h := checkpoint.HeaderFor(&d.meta)
	h.Seq = d.log.Seq()
	h.Runs = sess.runs
	h.Counters = sess.eng.Counters()
	h.Fired = sess.eng.FiredKeys()
	h.Temporal = sess.clock.State()
	t0 := time.Now()
	err := d.checkpoint(func(w io.Writer, commit *checkpoint.LedgerCommit) error {
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
	fs, err := d.append(rec, false)
	appendSp.End()
	// Attribute the time this append spent on stable storage — the inline
	// fsync under PolicyAlways — as a child of the append that paid for
	// it. Batched policies (interval/never) sync elsewhere and report
	// zero.
	if fs > 0 {
		s.recordSpan(ctx, appendSp.ID(), stageWALFsync, fs)
	}
	if err == nil {
		if d.due(s.cfg.CheckpointEvery) && s.tracedCheckpoint(ctx, sess) == nil {
			// The checkpoint compacted rec into the state image and mirrored
			// it to a live replica stream; a nil record just makes sure some
			// replica holds that state (re-attaching if the mirror dropped).
			return s.replicate(ctx, sess, nil)
		}
		return s.replicate(ctx, sess, rec)
	}
	s.log(ctx).Error("wal append failed", "session_id", sess.id, "err", err)
	if cerr := s.tracedCheckpoint(ctx, sess); cerr != nil {
		d.markFailed()
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
	case !s.store.has(id): // deleted while loading
		err = errors.New("session was deleted")
	default:
		err = s.insertLocked(sess)
	}
	s.mu.Unlock()
	if err != nil {
		sess.dur.close()
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

// loadSession rebuilds one session: newest valid checkpoint (if any) plus
// replay of the log records behind it. A corrupt checkpoint is ignored —
// the log alone reproduces the session when it has never been truncated
// by an earlier checkpoint; otherwise recovery fails.
func (s *Server) loadSession(ctx context.Context, id string) (*session, error) {
	dir := s.store.dir(id)

	var (
		h        checkpoint.Header
		facts    []checkpoint.Fact
		haveCkpt bool
	)
	if f, err := os.Open(filepath.Join(dir, checkpointFile)); err == nil {
		h, facts, err = checkpoint.Read(f)
		f.Close()
		if err != nil {
			s.log(ctx).Warn("ignoring unreadable checkpoint", "session_id", id, "err", err)
		} else {
			haveCkpt = true
		}
	}

	l, scanRes, err := wal.Open(filepath.Join(dir, walFile), s.store.walOpts)
	if err != nil {
		return nil, fmt.Errorf("opening wal: %w", err)
	}
	var led *wal.Ledger
	ok := false
	defer func() {
		if !ok {
			l.Close()
			if led != nil {
				led.Close()
			}
		}
	}()
	if scanRes.TruncatedBytes > 0 {
		s.metrics.inc(&s.metrics.Durability.WALTruncations)
		s.metrics.add(&s.metrics.Durability.WALTruncatedBytes, uint64(scanRes.TruncatedBytes))
		s.log(ctx).Warn("dropped torn wal tail", "session_id", id, "bytes", scanRes.TruncatedBytes)
	}
	if haveCkpt {
		// The checkpoint truncated the log, so the scan above cannot see
		// its sequence point; restore it from the header or post-recovery
		// appends would reuse seq <= h.Seq and be skipped next recovery.
		l.AdvanceSeq(h.Seq)
	}
	if s.store.merkle {
		lpath := filepath.Join(dir, ledgerFile)
		led, err = wal.OpenLedger(lpath)
		if err != nil {
			// A file that does not even parse (e.g. a header torn by a
			// crash during creation) cannot attest to anything; restart
			// it from the checkpoint's commit rather than refusing to
			// serve. parverify still reports the unreadable original.
			s.log(ctx).Warn("recreating unreadable merkle ledger", "session_id", id, "err", err)
			if rerr := os.Remove(lpath); rerr != nil {
				return nil, fmt.Errorf("resetting merkle ledger: %w", rerr)
			}
			if led, err = wal.OpenLedger(lpath); err != nil {
				return nil, fmt.Errorf("opening merkle ledger: %w", err)
			}
		}
		var (
			ckptSeq uint64
			commit  *wal.LedgerState
		)
		if haveCkpt {
			ckptSeq = h.Seq
			if h.Ledger != nil {
				commit = &wal.LedgerState{Count: h.Ledger.Count, Root: h.Ledger.Root, Peaks: h.Ledger.Peaks}
			}
		}
		// Reconcile cross-checks every surviving frame against the ledger
		// and the committed root; failure means the on-disk history was
		// altered, and the session must not be served from it.
		if err := led.Reconcile(scanRes.Records, ckptSeq, commit); err != nil {
			return nil, fmt.Errorf("merkle ledger: %w", err)
		}
		l.SetLedger(led)
	}

	var meta wal.Record
	switch {
	case haveCkpt:
		meta = h.CreateRecord()
	case len(scanRes.Records) > 0 && scanRes.Records[0].Op == wal.OpCreate:
		meta = scanRes.Records[0]
	default:
		return nil, errors.New("no checkpoint and no create record")
	}

	prog, err := compile.CompileSource(meta.Source)
	if err != nil {
		return nil, fmt.Errorf("recompiling program: %w", err)
	}
	// A checkpointed WM already contains the program's initial facts under
	// their original tags; log-only recovery replants them exactly as the
	// original creation did.
	sess := s.newSession(id, &meta, prog, haveCkpt)
	if haveCkpt {
		if err := checkpoint.Restore(sess.eng, h, facts); err != nil {
			return nil, err
		}
		// The clock image must load after the WMEs (it rebuilds its
		// aggregate-tag mirror from them) and before any tail replay.
		if err := sess.clock.RestoreState(h.Temporal); err != nil {
			return nil, err
		}
		sess.runs = h.Runs
	}

	replayed := 0
	for _, rec := range scanRes.Records {
		if haveCkpt && rec.Seq <= h.Seq {
			continue // already folded into the checkpoint
		}
		if err := replay(sess, &rec); err != nil {
			return nil, fmt.Errorf("replaying record %d (%s): %w", rec.Seq, rec.Op, err)
		}
		if rec.Op != wal.OpCreate {
			replayed++
		}
	}
	sess.out.take() // replayed `(write …)` output belongs to no request
	sess.lastResult = sess.eng.CurrentResult()
	// Replay-produced per-rule activity belongs to no run: dropped here,
	// not folded into /metrics.
	sess.profileDeltas()
	sess.dur = &durable{st: s.store, id: id, dir: dir, log: l, led: led, meta: meta, records: replayed}
	if haveCkpt && h.Ledger != nil {
		sess.dur.lastCommit = h.Ledger
	}
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
		p, perr := sess.dur.proof(seq)
		switch {
		case perr == nil:
			writeJSON(w, http.StatusOK, p)
		case errors.Is(perr, errMerkleDisabled):
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
		n, err := sess.retractMatching(rec.Template, rec.Fields)
		if err != nil {
			return err
		}
		if n != rec.Count {
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
