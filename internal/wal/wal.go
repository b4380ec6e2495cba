package wal

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"time"

	"parulel/internal/jsonlex"
)

// Frame layout: [payload length, uint32 LE][CRC32 (IEEE) of payload,
// uint32 LE][payload JSON]. The length comes first so a scan can skip to
// the checksum cheaply; both header fields are covered implicitly — a
// corrupt length either fails the read or yields a payload that fails
// the checksum.
const frameHeader = 8

// maxRecordBytes bounds a single record. Anything larger in a scanned
// file is treated as corruption rather than an allocation request — the
// length field of a torn frame is attacker/garbage-controlled.
const maxRecordBytes = 64 << 20

// maxKeptFrame bounds the encode buffer a Log keeps between appends, so
// one unusually large record does not stay pinned for the log's lifetime.
const maxKeptFrame = 256 << 10

// Policy selects when appended records are fsynced to stable storage. A
// Log does not read it: internal/store, which owns a data directory's
// fsyncs, is its only reader.
type Policy uint8

const (
	// PolicyInterval (the default) syncs dirty logs and new directory
	// entries on one background ticker: bounded data loss (one interval)
	// at near-PolicyNever cost.
	PolicyInterval Policy = iota
	// PolicyAlways syncs after every append: no committed operation is
	// ever lost, at one fsync per request.
	PolicyAlways
	// PolicyNever leaves syncing to the operating system: crash of the
	// process alone loses nothing (writes are in the page cache), crash
	// of the machine may lose recent records.
	PolicyNever
)

func (p Policy) String() string {
	switch p {
	case PolicyAlways:
		return "always"
	case PolicyNever:
		return "never"
	default:
		return "interval"
	}
}

// ParsePolicy parses "always", "interval" or "never".
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "always":
		return PolicyAlways, nil
	case "", "interval":
		return PolicyInterval, nil
	case "never":
		return PolicyNever, nil
	default:
		return PolicyInterval, fmt.Errorf("wal: unknown fsync policy %q (want always, interval or never)", s)
	}
}

// Options tunes a Log. The callbacks feed the server's /metrics
// aggregation; nil callbacks are skipped.
type Options struct {
	// Policy and Interval (the flush period under PolicyInterval, default
	// 100ms) are read by internal/store alone; a Log syncs only when told.
	Policy   Policy
	Interval time.Duration
	// OnAppend observes every appended record's framed size in bytes.
	OnAppend func(bytes int)
	// OnFsync observes the latency of every fsync issued.
	OnFsync func(d time.Duration)
	// FS is the filesystem the log lives on; nil means OS. Tests inject
	// failing or bookkeeping writes and syncs through it.
	FS FS
}

// ScanResult reports what Open found in an existing log file.
type ScanResult struct {
	// Records are the valid records, in append order.
	Records []Record
	// TruncatedBytes is how much torn/corrupt tail was cut off.
	TruncatedBytes int64
}

// Log is an append-only record log. All methods are safe for concurrent
// use; appends are serialized internally.
type Log struct {
	mu     sync.Mutex
	f      File
	opts   Options
	seq    uint64 // last sequence number assigned
	dirty  bool
	closed bool
	torn   bool // Open left a torn or corrupt tail after the position, for cutTail

	// syncErr latches the first fsync or write failure permanently: once
	// the kernel has dropped dirty pages on an fsync error, retrying cannot
	// recover them, and a frame after a partly written one is past the end
	// a scan reaches. Every later append/sync must fail rather than
	// silently acknowledge writes that may never be recovered.
	syncErr error

	// ledger, when set, mirrors every appended frame into a Merkle
	// ledger and is flushed after each successful fsync, so a durable
	// ledger entry implies a durable frame.
	ledger *Ledger

	// frame is the buffer every append encodes into, header first; nothing
	// keeps a reference past appendLocked (the ledger hashes at once).
	frame []byte
}

// Open opens (creating if absent) the log at path for appending. An
// existing file is scanned first: valid records are returned and the log
// is positioned at the end of their prefix. A torn or corrupt tail stays
// until CutTail or the first write: an unwritten log changes no byte.
func Open(path string, opts Options) (*Log, ScanResult, error) {
	if opts.FS == nil {
		opts.FS = OS
	}
	f, err := opts.FS.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, ScanResult{}, err
	}
	res, lastSeq, validEnd, err := scan(f)
	if err == nil {
		_, err = f.Seek(validEnd, io.SeekStart)
	}
	if err != nil {
		f.Close()
		return nil, ScanResult{}, err
	}
	return &Log{f: f, opts: opts, seq: lastSeq, torn: res.TruncatedBytes > 0}, res, nil
}

// CutTail truncates the torn or corrupt tail Open found, if any.
func (l *Log) CutTail() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.cutTail()
}

func (l *Log) cutTail() (err error) {
	if l.torn {
		var end int64
		if end, err = l.f.Seek(0, io.SeekCurrent); err == nil {
			err = l.f.Truncate(end)
		}
		l.torn = err != nil
	}
	return err
}

// scan reads every valid record, returning them plus the last sequence
// number seen and the offset of the end of the valid prefix.
func scan(f File) (ScanResult, uint64, int64, error) {
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return ScanResult{}, 0, 0, err
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return ScanResult{}, 0, 0, err
	}
	var (
		res      ScanResult
		rd       = bufio.NewReader(f)
		off      int64
		lastSeq  uint64
		header   [frameHeader]byte
		validEnd int64
		payload  []byte // reused: a decoded record keeps no view of it
		dec      = decoder{names: new(jsonlex.Interner)}
	)
	for {
		if _, err := io.ReadFull(rd, header[:]); err != nil {
			break // clean EOF or torn header — either way the prefix ends here
		}
		n := binary.LittleEndian.Uint32(header[0:4])
		sum := binary.LittleEndian.Uint32(header[4:8])
		if n == 0 || n > maxRecordBytes {
			break
		}
		if int(n) > cap(payload) {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(rd, payload); err != nil {
			break
		}
		if crc32.ChecksumIEEE(payload) != sum {
			break
		}
		var rec Record
		if err := dec.decode(payload, &rec); err != nil {
			break
		}
		if rec.Seq <= lastSeq {
			break // sequence must be strictly increasing
		}
		lastSeq = rec.Seq
		off += frameHeader + int64(n)
		validEnd = off
		res.Records = append(res.Records, rec)
	}
	res.TruncatedBytes = size - validEnd
	return res, lastSeq, validEnd, nil
}

// appendLocked frames, checksums and writes one record. With assign set
// the record gets the next local sequence number; otherwise the number
// it carries is kept (and must still be strictly increasing). The caller
// holds l.mu.
func (l *Log) appendLocked(rec *Record, assign bool) error {
	if l.closed {
		return errors.New("wal: log is closed")
	}
	if l.syncErr != nil {
		// An fsync failed after an earlier append was acknowledged;
		// surface it now instead of accepting writes that may never
		// reach the disk.
		return l.syncErr
	}
	if err := l.cutTail(); err != nil {
		return err
	}
	if assign {
		l.seq++
		rec.Seq = l.seq
	} else {
		if rec.Seq <= l.seq {
			return fmt.Errorf("wal: out-of-order append: seq %d after %d", rec.Seq, l.seq)
		}
		l.seq = rec.Seq
	}
	frame := rec.AppendJSON(append(l.frame[:0], make([]byte, frameHeader)...))
	if cap(frame) <= maxKeptFrame {
		l.frame = frame
	}
	payload := frame[frameHeader:]
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	if _, err := l.f.Write(frame); err != nil {
		l.syncErr = fmt.Errorf("wal: append: %w", err)
		return l.syncErr
	}
	if l.ledger != nil {
		l.ledger.observe(rec.Seq, payload)
	}
	l.dirty = true
	if l.opts.OnAppend != nil {
		l.opts.OnAppend(len(frame))
	}
	return nil
}

// Append frames, checksums and writes one record, assigning it the next
// sequence number (stored into rec.Seq). It does not fsync: the record is
// on stable storage once a later Sync returns.
func (l *Log) Append(rec *Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appendLocked(rec, true)
}

// AppendKeepSeq writes one record preserving the sequence number it
// already carries instead of assigning the next local one. Replica logs
// use it so a primary's records keep their numbering and a promoted
// replica recovers exactly like a crashed primary. The sequence must
// still be strictly increasing — a stale or duplicate record is
// rejected rather than written, since scan would silently stop at it on
// the next recovery.
func (l *Log) AppendKeepSeq(rec *Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appendLocked(rec, false)
}

// SetLedger attaches a Merkle ledger: every later append feeds it a
// leaf, and each successful fsync flushes its staged entries. Attach
// before the first append (the store wires it between Open and use);
// attaching mid-stream would leave a gap the next reconcile rejects.
func (l *Log) SetLedger(led *Ledger) {
	l.mu.Lock()
	l.ledger = led
	l.mu.Unlock()
}

// ScanFile reads the valid record prefix of the log at path without
// opening it for writing or truncating a torn tail. A missing file is an
// empty log.
func ScanFile(path string) (ScanResult, error) { return ScanFileFS(OS, path) }

// ScanFileFS is ScanFile on fsys.
func ScanFileFS(fsys FS, path string) (ScanResult, error) {
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		if os.IsNotExist(err) {
			return ScanResult{}, nil
		}
		return ScanResult{}, err
	}
	defer f.Close()
	res, _, _, err := scan(f)
	return res, err
}

// Seq returns the last sequence number assigned (or recovered).
func (l *Log) Seq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// AdvanceSeq raises the sequence counter to at least n. Open derives the
// counter from the file alone, but a checkpoint empties the file: after a
// reopen the counter would restart below the checkpoint's sequence point
// and fresh appends would reuse covered numbers — which the next recovery
// skips as already checkpointed. Recovery calls this with the checkpoint
// header's Seq so post-recovery appends sort strictly after it.
func (l *Log) AdvanceSeq(n uint64) {
	l.mu.Lock()
	if n > l.seq {
		l.seq = n
	}
	l.mu.Unlock()
}

// Sync flushes appended records to stable storage if any are pending.
// A previously latched fsync failure is re-reported rather than retried.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.syncErr != nil || l.closed || !l.dirty {
		return l.syncErr
	}
	return l.syncLocked()
}

// syncLocked fsyncs inline under l.mu and then flushes the ledger, whose
// staged entries all describe frames that fsync just covered; a failure
// of either latches permanently.
func (l *Log) syncLocked() error {
	t0 := time.Now()
	err := l.f.Sync()
	if l.opts.OnFsync != nil {
		l.opts.OnFsync(time.Since(t0))
	}
	if err != nil {
		l.syncErr = fmt.Errorf("wal: fsync: %w", err)
		return l.syncErr
	}
	l.dirty = false
	if l.ledger != nil {
		if err := l.ledger.SyncAll(); err != nil {
			l.syncErr = err
			return err
		}
	}
	return nil
}

// Reset discards every record in the file — they are covered by a
// checkpoint — while the sequence numbering continues, so records
// written afterwards sort strictly after the checkpoint's sequence
// point even if a crash prevents the truncation from being observed.
// An attached Merkle ledger is untouched: it records the session's whole
// history, checkpoints included.
func (l *Log) Reset() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("wal: log is closed")
	}
	if l.syncErr != nil {
		return l.syncErr
	}
	if err := l.f.Truncate(0); err != nil {
		return fmt.Errorf("wal: reset: %w", err)
	}
	l.torn = false
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("wal: reset: %w", err)
	}
	return l.syncLocked()
}

// Close flushes and closes the log. Safe to call more than once.
func (l *Log) Close() error { return l.close(true) }

// Discard closes the log without flushing it, for a log whose file is about
// to be deleted: records not yet synced may never reach the disk, so a
// caller that keeps the file must Close instead. Safe to call more than
// once, and after Close.
func (l *Log) Discard() error { return l.close(false) }

func (l *Log) close(flush bool) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	var err error
	if flush && l.dirty && l.syncErr == nil {
		err = l.syncLocked()
	}
	return cmp.Or(err, l.f.Close())
}
