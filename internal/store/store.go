// Package store owns a paruleld data directory: its layout and its
// crash-safety protocol. A session lives in sessions/<id>/ as wal.log (the
// write-ahead log), checkpoint (the newest state image) and merkle.log (the
// ledger over every frame); a cluster follower's copy of another node's
// session lives in replicas/<id>/ under the primary's sequence numbers, so
// promotion is a rename. A file is replaced by temp file, sync, rename,
// directory sync; a checkpoint goes WAL sync → ledger flush → commit →
// replace → log reset. The store alone decides when a log, a ledger or a
// directory is synced: inline under wal.PolicyAlways, by its one flusher
// (Flush) under wal.PolicyInterval. All file I/O goes through the wal.FS
// of wal.Options.FS. The store returns what a directory holds (Image).
package store

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"parulel/internal/checkpoint"
	"parulel/internal/wal"
)

// The data directory's names, declared here and nowhere else.
const (
	WALFile        = "wal.log"
	CheckpointFile = "checkpoint"
	LedgerFile     = "merkle.log"
	sessionsDir    = "sessions"
	replicasDir    = "replicas"
	stagingDir     = "staging" // sessions being created; emptied at Open
)

var (
	// ErrMerkleDisabled: the store keeps no ledgers, so it proves nothing.
	ErrMerkleDisabled = errors.New("merkle ledger is disabled on this server")
	// errClosed refuses work on a closed handle: an evicted session's, or
	// a replica's fenced for promotion or discarded.
	errClosed = errors.New("log is closed")
)

// Store is a data directory's session and replica directories.
type Store struct {
	fs             wal.FS
	data, sessions string
	opts           wal.Options
	merkle         bool // attach a Merkle ledger to every session log

	mu    sync.Mutex
	known map[string]bool // session ids with an on-disk directory
	aside []string        // session ids whose directory Open left unserved
	open  []*Session      // the handles whose logs Flush syncs
	dirs  []string        // what Flush syncs next under PolicyInterval
	err   error           // a failed directory sync, latched
	halt  func()          // stops the flusher and waits for it; once
}

// Open scans a data directory (making it if absent), returning the store
// and the largest numeric session id found, so freshly minted ids never
// collide with recoverable ones. What an interrupted create left in
// staging/ is removed. Unless under PolicyAlways, a session directory
// holding only empty files (a create a crash took before its Flush) is
// left where it is, unserved and listed by SetAside.
func Open(dataDir string, opts wal.Options, merkle bool) (*Store, uint64, error) {
	if opts.FS == nil {
		opts.FS = wal.OS
	}
	if opts.Interval <= 0 {
		opts.Interval = 100 * time.Millisecond
	}
	st := &Store{fs: opts.FS, data: dataDir, sessions: filepath.Join(dataDir, sessionsDir),
		opts: opts, merkle: merkle, known: make(map[string]bool), halt: func() {}}
	var entries []os.DirEntry
	err := st.fs.RemoveAll(filepath.Join(dataDir, stagingDir))
	if err == nil {
		err = st.fs.MkdirAll(st.sessions, 0o755)
	}
	if err == nil {
		err = st.syncDir(dataDir)
	}
	if err == nil {
		entries, err = st.fs.ReadDir(st.sessions)
	}
	if err != nil {
		return nil, 0, fmt.Errorf("durability: %w", err)
	}
	var maxID uint64
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		id := e.Name()
		// Ids are "s<n>" single-node or "s-<node>-<n>" in cluster mode;
		// either way the counter is the trailing number.
		num := strings.TrimPrefix(id, "s")
		if i := strings.LastIndex(num, "-"); i >= 0 {
			num = num[i+1:]
		}
		if n, err := strconv.ParseUint(num, 10, 64); err == nil && n > maxID {
			maxID = n
		}
		if opts.Policy != wal.PolicyAlways && st.traceless(st.dir(id)) {
			st.aside = append(st.aside, id)
		} else {
			st.known[id] = true
		}
	}
	if opts.Policy == wal.PolicyInterval {
		stop, done := make(chan struct{}), make(chan struct{})
		st.halt = sync.OnceFunc(func() { close(stop); <-done })
		go st.flusher(stop, done)
	}
	return st, maxID, nil
}

// flusher runs Flush every interval until stop closes.
func (st *Store) flusher(stop, done chan struct{}) {
	defer close(done)
	t := time.NewTicker(st.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			st.Flush() // failures latch where Flush puts them
		}
	}
}

// traceless: dir holds nothing but empty files, so no byte of any record
// or ledger entry, torn or whole, reached it.
func (st *Store) traceless(dir string) bool {
	entries, err := st.fs.ReadDir(dir)
	for _, e := range entries {
		if info, ierr := e.Info(); ierr != nil || e.IsDir() || info.Size() > 0 {
			return false
		}
	}
	return err == nil
}

// SetAside lists the session directories Open left unserved.
func (st *Store) SetAside() []string { return st.aside }

// Flush syncs every open dirty log (each flushes its ledger after its
// frames), then the directories syncDir marked since the last Flush,
// longest path first (a session's before sessions/), skipping one since
// removed. A failure latches: a log's in the log, a directory's in the
// store, and Create and Remove return it.
func (st *Store) Flush() (err error) {
	st.mu.Lock()
	open := slices.Clone(st.open)
	dirs := st.dirs
	st.dirs = nil
	st.mu.Unlock()
	for _, d := range open {
		err = errors.Join(err, d.log.Sync())
	}
	slices.SortFunc(dirs, func(a, b string) int { return cmp.Or(len(b)-len(a), strings.Compare(a, b)) })
	dirs = slices.Compact(dirs)
	var derr error
	for _, dir := range dirs {
		if e := st.fs.SyncDir(dir); !errors.Is(e, fs.ErrNotExist) {
			derr = errors.Join(derr, e)
		}
	}
	st.mu.Lock()
	st.err = cmp.Or(st.err, derr)
	st.mu.Unlock()
	return errors.Join(err, derr)
}

// Close stops the flusher and runs a last Flush; a nil Store has none.
func (st *Store) Close() error {
	if st == nil {
		return nil
	}
	st.halt()
	return st.Flush()
}

// register adds d's log to those Flush syncs.
func (st *Store) register(d *Session) {
	st.mu.Lock()
	st.open = append(st.open, d)
	st.mu.Unlock()
}

// syncDir makes dir's entries durable as the policy promises: at once
// under PolicyAlways, at the next Flush under PolicyInterval.
func (st *Store) syncDir(dir string) error {
	switch st.opts.Policy {
	case wal.PolicyAlways:
		return st.fs.SyncDir(dir)
	case wal.PolicyInterval:
		st.mu.Lock()
		st.dirs = append(st.dirs, dir)
		st.mu.Unlock()
	}
	return nil
}

// Has reports whether session id's directory is visible to lookups.
func (st *Store) Has(id string) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.known[id]
}

// Count is the number of session directories.
func (st *Store) Count() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.known)
}

// MarkKnown makes id visible to lookup/rehydration and deletion.
func (st *Store) MarkKnown(id string) {
	st.mu.Lock()
	st.known[id] = true
	st.mu.Unlock()
}

func (st *Store) dir(id string) string { return filepath.Join(st.sessions, id) }

// Create builds the session's directory in staging/, writes its log's
// OpCreate record and installs it as sessions/<id>, so a crash leaves
// either no session or one whose create record was written. Under
// PolicyAlways the record and both directory entries are durable on
// return, under PolicyInterval after the next Flush. The id is NOT marked
// known: until the session is in the caller's pool, a lookup must miss
// rather than rehydrate from the fresh record and race the insert. The
// caller calls MarkKnown then.
func (st *Store) Create(id string, meta wal.Record) (*Session, error) {
	stage := filepath.Join(st.data, stagingDir, id)
	d := &Session{st: st, id: id, dir: st.dir(id), meta: meta}
	durable := st.opts.Policy == wal.PolicyAlways
	st.mu.Lock()
	err := st.err // a directory sync Flush latched
	st.mu.Unlock()
	if err == nil {
		err = st.fs.MkdirAll(stage, 0o755)
	}
	if err == nil {
		d.log, _, err = wal.Open(filepath.Join(stage, WALFile), st.opts)
	}
	if err == nil && st.merkle {
		if d.led, err = wal.OpenLedgerFS(st.fs, filepath.Join(stage, LedgerFile)); err == nil {
			d.log.SetLedger(d.led) // before the OpCreate append so seq 1 is leaf 0
		}
	}
	if err == nil {
		err = d.log.Append(&d.meta)
	}
	if err == nil && durable {
		err = d.log.Sync()
	}
	if err == nil {
		_, err = st.install(stage, id, durable)
	}
	if err != nil {
		if d.log != nil {
			d.Discard()
		}
		st.fs.RemoveAll(stage) // a session renamed into sessions/ stays whole
		return nil, err
	}
	st.register(d)
	return d, nil
}

// install renames a complete session directory to sessions/<id>,
// reporting whether the rename happened. With durable set, the directory
// is synced before the rename and sessions/ after it, so the session
// survives a crash once install returns; otherwise syncDir has both as
// the policy says.
func (st *Store) install(src, id string, durable bool) (installed bool, err error) {
	if durable {
		if err := st.fs.SyncDir(src); err != nil {
			return false, err
		}
	}
	if err := st.fs.Rename(src, st.dir(id)); err != nil {
		return false, err
	}
	if !durable {
		return true, errors.Join(st.syncDir(st.dir(id)), st.syncDir(st.sessions))
	}
	return true, st.fs.SyncDir(st.sessions)
}

// Remove deletes a session's directory, durably under PolicyAlways and
// under PolicyInterval after the next Flush. A directory that stays is
// known again, so a retry can remove it.
func (st *Store) Remove(id string) error {
	st.mu.Lock()
	delete(st.known, id)
	err := st.err
	st.mu.Unlock()
	if err := st.fs.RemoveAll(st.dir(id)); err != nil {
		st.MarkKnown(id)
		return err
	}
	return cmp.Or(err, st.syncDir(st.sessions))
}

// Load opens session id's files for appending and returns them with the
// image recovery replays: the log's torn tail cut, the ledger reconciled
// with the log and the checkpoint's commit (started afresh from that
// commit when it does not read or is absent; img.LedgerErr says why).
// Nothing in the directory changes before the session has a create record
// or a checkpoint, so one refused for want of them keeps every byte.
func (st *Store) Load(id string) (*Session, *Image, error) {
	dir := st.dir(id)
	img, err := read(st.fs, dir, &st.opts)
	if err != nil {
		return nil, nil, err
	}
	d := &Session{st: st, id: id, dir: dir, log: img.log}
	switch h := img.Header; {
	case h != nil:
		// The checkpoint emptied the log: without its sequence point,
		// later appends would reuse covered numbers, skipped next recovery.
		d.log.AdvanceSeq(h.Seq)
		d.meta, d.lastCommit = h.CreateRecord(), h.Ledger
	case len(img.Records) > 0 && img.Records[0].Op == wal.OpCreate:
		d.meta = img.Records[0]
	default:
		err = errors.New("no checkpoint and no create record")
	}
	// The ledger is opened only past that check: opening cuts a torn tail
	// and makes an absent ledger.
	if ledPath := filepath.Join(dir, LedgerFile); err == nil && st.merkle {
		if d.led, img.LedgerErr = wal.OpenLedgerFS(st.fs, ledPath); img.LedgerErr != nil {
			// A ledger that does not parse attests to nothing: restart it
			// from the checkpoint's commit rather than refuse to serve. An
			// offline audit of the original still reports it.
			if err = st.fs.Remove(ledPath); err == nil {
				d.led, err = wal.OpenLedgerFS(st.fs, ledPath)
			}
			if err != nil {
				err = fmt.Errorf("resetting merkle ledger: %w", err)
			}
		}
	}
	// A failed Reconcile means the history was altered: serve none of it.
	if err == nil && d.led != nil {
		var commit *wal.LedgerState
		if c := d.lastCommit; c != nil {
			commit = &wal.LedgerState{Count: c.Count, Root: c.Root, Peaks: c.Peaks}
		}
		if err = d.led.Reconcile(img.Records, img.Seq(), commit); err != nil {
			err = fmt.Errorf("merkle ledger: %w", err)
		}
		d.log.SetLedger(d.led)
	}
	if err == nil { // served: the tail recovery reported dropped goes now
		err = d.log.CutTail()
	}
	if err != nil {
		d.Close()
		return nil, nil, err
	}
	for _, rec := range img.Tail() {
		if rec.Op != wal.OpCreate {
			d.records++
		}
	}
	st.register(d)
	return d, img, nil
}

// EnableReplicas makes the replica directory, synced whatever the policy:
// a follower acks its primary's barrier only once the replica is durable.
func (st *Store) EnableReplicas() error {
	if err := st.fs.MkdirAll(filepath.Join(st.data, replicasDir), 0o755); err != nil {
		return err
	}
	return st.fs.SyncDir(st.data)
}

func (st *Store) replicaDir(id string) string { return filepath.Join(st.data, replicasDir, id) }

// OpenReplica starts an empty replica of session id, discarding what an
// earlier one left. It keeps no ledger, and its records keep their
// primary's sequence numbers (Append with keepSeq).
func (st *Store) OpenReplica(id string) (*Session, error) {
	dir := st.replicaDir(id)
	var l *wal.Log
	err := st.fs.RemoveAll(dir)
	if err == nil {
		err = st.fs.MkdirAll(dir, 0o755)
	}
	if err == nil {
		l, _, err = wal.Open(filepath.Join(dir, WALFile), st.opts)
	}
	if err != nil {
		return nil, err
	}
	d := &Session{st: st, id: id, dir: dir, log: l}
	st.register(d)
	return d, nil
}

// DropReplica removes session id's replica directory.
func (st *Store) DropReplica(id string) error { return st.fs.RemoveAll(st.replicaDir(id)) }

// HasReplica reports whether a replica directory for id exists.
func (st *Store) HasReplica(id string) bool {
	_, err := st.fs.ReadDir(st.replicaDir(id))
	return err == nil
}

// ReplicaCount counts the replica directories, all that replicas/ holds.
func (st *Store) ReplicaCount() int {
	entries, _ := st.fs.ReadDir(filepath.Join(st.data, replicasDir))
	return len(entries)
}

// Promote makes the replica of id session id: install it as sessions/<id>
// whatever the policy, and mark it known. The replica's handle must be
// closed first. errors.Is(err, fs.ErrNotExist): no replica.
func (st *Store) Promote(id string) error {
	installed, err := st.install(st.replicaDir(id), id, true)
	if installed {
		st.MarkKnown(id)
	}
	return err
}

// SessionDirs lists the session directories on fsys under a data
// directory, or under a sessions directory given directly; root is where
// it looked.
func SessionDirs(fsys wal.FS, dataDir string) (dirs []string, root string, err error) {
	root = filepath.Join(dataDir, sessionsDir)
	entries, err := fsys.ReadDir(root)
	if err != nil {
		root = dataDir
		if entries, err = fsys.ReadDir(root); err != nil {
			return nil, root, err
		}
	}
	for _, e := range entries {
		if e.IsDir() {
			dirs = append(dirs, filepath.Join(root, e.Name()))
		}
	}
	return dirs, root, nil
}

// Image is a session directory as read from disk. A read-only read keeps
// every failure in it.
type Image struct {
	Checkpoint    []byte             // the checkpoint's bytes (read-only reads); nil without one
	Header        *checkpoint.Header // nil without a checkpoint or when it does not read
	Facts         []checkpoint.Fact
	CheckpointErr error
	Records       []wal.Record // the log's valid frames, those the checkpoint covers included
	TornBytes     int64        // what followed them
	WALErr        error
	Ledger        *wal.LedgerInfo // read-only reads; nil without a ledger file
	LedgerErr     error

	log *wal.Log // opening reads
}

// Seq is the checkpoint's sequence point (records up to it are folded
// into the checkpoint), 0 without one.
func (img *Image) Seq() uint64 {
	if img.Header == nil {
		return 0
	}
	return img.Header.Seq
}

// Tail is the records past the checkpoint, what recovery replays.
func (img *Image) Tail() []wal.Record {
	for i := range img.Records {
		if img.Records[i].Seq > img.Seq() {
			return img.Records[i:]
		}
	}
	return nil
}

// ReadSession reads session directory dir on fsys and changes nothing.
func ReadSession(fsys wal.FS, dir string) *Image {
	img, _ := read(fsys, dir, nil)
	return img
}

// read is the one reader of a session directory, and changes nothing in
// it. With open nil it keeps the checkpoint's bytes, scans the log and
// inspects the ledger; otherwise it opens the log for appending under
// open, leaving a torn tail in place, and leaves the ledger to Load.
func read(fsys wal.FS, dir string, open *wal.Options) (*Image, error) {
	img := &Image{}
	if f, err := fsys.OpenFile(filepath.Join(dir, CheckpointFile), os.O_RDONLY, 0); err == nil {
		var r io.Reader = f
		if open == nil {
			img.Checkpoint, img.CheckpointErr = io.ReadAll(f)
			r = bytes.NewReader(img.Checkpoint)
		}
		if img.CheckpointErr == nil {
			h, facts, err := checkpoint.Read(r)
			if img.CheckpointErr = err; err == nil {
				img.Header, img.Facts = &h, facts
			}
		}
		f.Close()
	} else if !errors.Is(err, fs.ErrNotExist) {
		img.CheckpointErr = err
	}
	walPath, ledPath := filepath.Join(dir, WALFile), filepath.Join(dir, LedgerFile)
	if open == nil {
		res, err := wal.ScanFileFS(fsys, walPath)
		img.Records, img.TornBytes, img.WALErr = res.Records, res.TruncatedBytes, err
		img.Ledger, img.LedgerErr = wal.InspectLedgerFS(fsys, ledPath)
		return img, nil
	}
	l, res, err := wal.Open(walPath, *open)
	if err != nil {
		return nil, fmt.Errorf("opening wal: %w", err)
	}
	img.log, img.Records, img.TornBytes = l, res.Records, res.TruncatedBytes
	return img, nil
}

// replaceFile atomically replaces dir/name with what write produces: temp
// file, sync, rename, sync the directory. A crash leaves the old file or
// the new one, never a mixture.
func replaceFile(fsys wal.FS, dir, name string, write func(io.Writer) error) error {
	tmp := filepath.Join(dir, name+".tmp")
	f, err := fsys.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o666)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	err = cmp.Or(err, f.Close())
	if err == nil {
		err = fsys.Rename(tmp, filepath.Join(dir, name))
	}
	if err != nil {
		fsys.Remove(tmp)
		return err
	}
	return fsys.SyncDir(dir)
}

// Session is a live session's (or replica's) handle on its directory,
// with its own mutex: a server appends under the session's slot, but
// evicts, deletes and drains under its own mutex.
type Session struct {
	st   *Store
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

func (d *Session) ID() string        { return d.id }
func (d *Session) Meta() *wal.Record { return &d.meta }
func (d *Session) Seq() uint64       { return d.log.Seq() }

// Append logs one record, returning how long it waited on stable storage
// (PolicyAlways' inline fsync; zero under the batched policies). keepSeq
// is the replica's append: the record keeps its primary's sequence number.
func (d *Session) Append(rec *wal.Record, keepSeq bool) (fs time.Duration, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	switch {
	case d.closed:
		return 0, errClosed
	case d.failed:
		return 0, errors.New("durability disabled after an earlier failure")
	case keepSeq:
		err = d.log.AppendKeepSeq(rec)
	default:
		err = d.log.Append(rec)
	}
	if err == nil && d.st.opts.Policy == wal.PolicyAlways {
		t0 := time.Now()
		err = d.log.Sync()
		fs = time.Since(t0)
	}
	if err == nil {
		d.records++
	}
	return fs, err
}

// Proof builds the inclusion proof for the record with sequence seq from
// the ledger file, the reader audits use: it covers durable entries only,
// against the root over them, and costs a read of the file.
func (d *Session) Proof(seq uint64) (*wal.Proof, error) {
	d.mu.Lock()
	merkle, closed := d.led != nil, d.closed
	d.mu.Unlock()
	if closed {
		return nil, errClosed
	}
	if !merkle {
		return nil, ErrMerkleDisabled
	}
	info, err := wal.InspectLedgerFS(d.st.fs, filepath.Join(d.dir, LedgerFile))
	if err == nil && info == nil {
		err = fmt.Errorf("no ledger file in %s", d.dir)
	}
	if err != nil {
		return nil, err
	}
	p, err := info.Prove(seq)
	if err == nil {
		p.Session = d.id
	}
	return p, err
}

// Due reports whether every records were logged since the last checkpoint.
func (d *Session) Due(every int) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return !d.closed && !d.failed && d.records >= every
}

// Checkpoint replaces the checkpoint with what write produces and then
// empties the log it covers. The numbering survives the reset, so a crash
// between the rename and the truncation is harmless: recovery skips records
// at or below the checkpoint's sequence point. write is handed the ledger
// commit the checkpoint must vouch for — nil without a ledger, so always
// for a replica, which installs an image its primary wrote.
func (d *Session) Checkpoint(write func(w io.Writer, commit *checkpoint.LedgerCommit) error) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return errClosed
	}
	// Success or failure, the next attempt waits another interval, or a
	// state that cannot be written (a symbol with no literal form) would
	// be retried on every append.
	d.records = 0
	var commit *checkpoint.LedgerCommit
	if d.led != nil {
		// The WAL is synced before the ledger flushes and commits: a
		// durable ledger entry must imply a durable frame, or the audit
		// invariant (entry without frame = tampering) breaks.
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
			commit.PrevCount, commit.PrevRoot = d.lastCommit.Count, d.lastCommit.Root
		}
	}
	err := replaceFile(d.st.fs, d.dir, CheckpointFile, func(w io.Writer) error { return write(w, commit) })
	if err == nil {
		err = d.log.Reset()
	}
	if err == nil && commit != nil {
		d.lastCommit = commit
	}
	return err
}

// CheckpointImage returns the checkpoint file's bytes.
func (d *Session) CheckpointImage() ([]byte, error) {
	f, err := d.st.fs.OpenFile(filepath.Join(d.dir, CheckpointFile), os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}

// Image reads the session's directory without changing it; the open log
// is unaffected. The caller keeps appends out meanwhile.
func (d *Session) Image() *Image { return ReadSession(d.st.fs, d.dir) }

// Sync makes the log, the directory and its entry in the parent durable
// whatever the policy: a replica's answer to its primary's barrier.
func (d *Session) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return errClosed
	}
	return errors.Join(d.log.Sync(), d.st.fs.SyncDir(d.dir), d.st.fs.SyncDir(filepath.Dir(d.dir)))
}

// MarkFailed refuses every later append.
func (d *Session) MarkFailed() {
	d.mu.Lock()
	d.failed = true
	d.mu.Unlock()
}

// Close flushes and closes the log, keeping the files. Idempotent.
func (d *Session) Close() error { return d.shut(d.log.Close) }

// Discard closes the log without flushing it, for files about to be
// removed. Idempotent, and a no-op after Close.
func (d *Session) Discard() error { return d.shut(d.log.Discard) }

func (d *Session) shut(closeLog func() error) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	d.st.mu.Lock()
	d.st.open = slices.DeleteFunc(d.st.open, func(o *Session) bool { return o == d })
	d.st.mu.Unlock()
	err := closeLog()
	if d.led != nil {
		err = cmp.Or(err, d.led.Close())
	}
	return err
}
