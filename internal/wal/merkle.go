package wal

// Merkle ledger: a tamper-evident side file recording the hash of every
// WAL frame a session ever appended. The log file itself is emptied by
// each checkpoint, so it cannot testify about history; the ledger is
// append-only for the session's whole life and carries an incremental
// RFC 6962-style Merkle tree over the frames. Checkpoint headers commit
// the tree root (chained to the previous checkpoint's root), which makes
// the following auditable offline: every committed frame is exactly the
// frame that was appended, in order, with nothing spliced in, dropped or
// rewritten — see internal/audit and cmd/parverify.
//
// File layout:
//
//	parulel-merkle v1\n
//	{"base":N,"peaks":["<hex>",...]}\n
//	[seq uint64 LE][leaf hash, 32 bytes]   × entries
//
// base/peaks let a ledger start mid-history: a promoted replica or a
// migrated session holds the checkpoint's committed peak decomposition
// of the first N leaves instead of the leaves themselves, and the tree
// keeps growing from there. A fresh session has base 0 and no peaks.
//
// Hashing follows RFC 6962 domain separation: a leaf is
// SHA-256(0x00 ‖ seq as uint64 BE ‖ frame payload) and an interior node
// SHA-256(0x01 ‖ left ‖ right), with the split point of an n-leaf range
// at the largest power of two below n. Record payloads are canonical —
// encoding/json with typed fields and bit-pattern floats — so a leaf
// hash is reproducible from a scanned record alone.
//
// The file is the only store of the leaves. A live Ledger holds its
// frontier (the leaf count and the O(log n) peaks, each leaf folded in as
// it is observed) and the entries staged for the file, so its memory does
// not grow with the session's age and a checkpoint's commit costs O(log n).
// The root is the peaks folded right to left. Inclusion proofs and offline
// audits read the file (InspectLedger) and recurse over its leaves
// (rangeHash), so a proof covers durable entries only.

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
)

const (
	ledgerMagic     = "parulel-merkle v1"
	ledgerEntrySize = 8 + sha256.Size
)

// Sentinel errors for the distinct tamper/corruption classes an audit
// distinguishes. All are wrapped with context; match with errors.Is.
var (
	// ErrLedgerCorrupt: the ledger file itself does not parse.
	ErrLedgerCorrupt = errors.New("wal: merkle ledger corrupt")
	// ErrLedgerMismatch: a WAL frame hashes differently than the ledger
	// entry recorded for its sequence number — the frame was altered or
	// replaced (e.g. spliced in from another session) after being logged.
	ErrLedgerMismatch = errors.New("wal: frame hash differs from ledger entry")
	// ErrLedgerGap: a committed ledger entry has no backing WAL frame
	// where one is required, or entries are missing from the middle.
	ErrLedgerGap = errors.New("wal: ledger missing a committed frame")
	// ErrCommitMismatch: recomputing the tree root over a
	// checkpoint-committed prefix does not reproduce the committed root.
	ErrCommitMismatch = errors.New("wal: checkpoint-committed merkle root mismatch")
	// ErrLedgerAhead: a durable ledger entry describes a frame the WAL
	// does not hold and the checkpoint horizon cannot explain. Entries
	// are flushed only after their frame's fsync confirms, so this state
	// never arises from a crash — the log was truncated or the ledger
	// padded after the fact.
	ErrLedgerAhead = errors.New("wal: ledger entry with no durable frame")
	// ErrProofPredates: an inclusion proof was requested for a sequence
	// number below the ledger's base — only the peaks of that prefix
	// survive (on a promoted replica or migrated session), not its
	// leaves, so no path can be built.
	ErrProofPredates = errors.New("wal: sequence predates this ledger's base")
)

// LedgerState is a point-in-time summary of the tree: the leaf count,
// the RFC 6962 root over all count leaves, and the peak decomposition
// (roots of the complete subtrees whose sizes are count's binary
// decomposition, largest first). The peaks alone let a new ledger resume
// the tree without the leaves; checkpoint headers embed this as the
// chained commit.
type LedgerState struct {
	Count uint64   `json:"count"`
	Root  string   `json:"root"`
	Peaks []string `json:"peaks,omitempty"`
}

// Proof is a self-contained inclusion proof: Path holds the sibling
// hashes bottom-up, and the left/right direction at each step is derived
// from Index and Count exactly as in RFC 6962 — there is nothing else to
// trust in it, which is what makes VerifyProof meaningful offline.
type Proof struct {
	Session string   `json:"session,omitempty"`
	Seq     uint64   `json:"seq"`
	Index   uint64   `json:"index"`
	Count   uint64   `json:"count"`
	Leaf    string   `json:"leaf"`
	Path    []string `json:"path"`
	Root    string   `json:"root"`
}

// LeafHash hashes one frame into its ledger leaf.
func LeafHash(seq uint64, payload []byte) [sha256.Size]byte {
	var pre [9]byte
	pre[0] = 0x00
	binary.BigEndian.PutUint64(pre[1:], seq)
	h := sha256.New()
	h.Write(pre[:])
	h.Write(payload)
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

// RecordLeafHex re-derives a scanned record's leaf hash from its
// canonical encoding; audits use it to compare frames against ledger
// entries.
func RecordLeafHex(rec *Record) string {
	h := LeafHash(rec.Seq, rec.AppendJSON(nil))
	return hex.EncodeToString(h[:])
}

func interiorHash(left, right [sha256.Size]byte) [sha256.Size]byte {
	h := sha256.New()
	h.Write([]byte{0x01})
	h.Write(left[:])
	h.Write(right[:])
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

func emptyRoot() [sha256.Size]byte { return sha256.Sum256(nil) }

// largestPow2Below returns the largest power of two strictly less than
// n; the RFC 6962 split point of an n-leaf range. n must be ≥ 2.
func largestPow2Below(n uint64) uint64 {
	return 1 << (bits.Len64(n-1) - 1)
}

// merkleTree is a ledger file as parsed: the peak decomposition of its
// first base leaves and the stored leaves from base upward. All range
// arithmetic is over global leaf indices [0, base+len(leaves)). Proofs and
// audits recurse over it; a live Ledger keeps only a frontier.
type merkleTree struct {
	base      uint64
	basePeaks [][sha256.Size]byte
	leaves    [][sha256.Size]byte
	seqs      []uint64 // wal sequence number per leaf, strictly increasing
}

func (t *merkleTree) count() uint64 { return t.base + uint64(len(t.leaves)) }

// frontier summarizes the first n leaves by their peaks (largest first):
// all a tree needs to take its next leaf and name its root.
type frontier struct {
	n     uint64
	peaks [][sha256.Size]byte
}

// push appends one leaf. Appending leaf n merges one pair of equal-sized
// peaks per trailing one bit of n.
func (f *frontier) push(leaf [sha256.Size]byte) {
	f.peaks = append(f.peaks, leaf)
	for c := f.n; c&1 == 1; c >>= 1 {
		k := len(f.peaks)
		f.peaks[k-2] = interiorHash(f.peaks[k-2], f.peaks[k-1])
		f.peaks = f.peaks[:k-1]
	}
	f.n++
}

// root is the RFC 6962 root over the n leaves: the peaks folded right to
// left, H(p0, H(p1, … H(p_{k-2}, p_{k-1}))), since an n-leaf range splits
// at its largest peak.
func (f *frontier) root() [sha256.Size]byte {
	if len(f.peaks) == 0 {
		return emptyRoot()
	}
	root := f.peaks[len(f.peaks)-1]
	for i := len(f.peaks) - 2; i >= 0; i-- {
		root = interiorHash(f.peaks[i], root)
	}
	return root
}

// peakSpans returns the [start,end) ranges the base peaks cover:
// base's binary decomposition, largest first, packed from index 0. Each
// is a complete subtree aligned to its size, so the range recursion
// lands on them exactly.
func (t *merkleTree) peakSpans() [][2]uint64 {
	spans := make([][2]uint64, 0, len(t.basePeaks))
	var start uint64
	for n := t.base; n > 0; {
		size := uint64(1) << (bits.Len64(n) - 1)
		spans = append(spans, [2]uint64{start, start + size})
		start += size
		n -= size
	}
	return spans
}

// rangeHash computes the RFC 6962 hash of leaves [lo, hi). Ranges at or
// above base come from stored leaves; ranges below base must land on a
// stored peak — anything finer predates the ledger.
func (t *merkleTree) rangeHash(lo, hi uint64) ([sha256.Size]byte, error) {
	var zero [sha256.Size]byte
	if hi <= lo || hi > t.count() {
		return zero, fmt.Errorf("wal: bad merkle range [%d,%d) of %d", lo, hi, t.count())
	}
	if lo < t.base {
		for i, span := range t.peakSpans() {
			if span[0] == lo && span[1] == hi {
				return t.basePeaks[i], nil
			}
		}
		if hi-lo == 1 {
			return zero, fmt.Errorf("%w: leaf %d", ErrProofPredates, lo)
		}
	} else if hi-lo == 1 {
		return t.leaves[lo-t.base], nil
	}
	k := largestPow2Below(hi - lo)
	left, err := t.rangeHash(lo, lo+k)
	if err != nil {
		return zero, err
	}
	right, err := t.rangeHash(lo+k, hi)
	if err != nil {
		return zero, err
	}
	return interiorHash(left, right), nil
}

// rootAt computes the tree root over the first n leaves.
func (t *merkleTree) rootAt(n uint64) ([sha256.Size]byte, error) {
	if n == 0 {
		return emptyRoot(), nil
	}
	return t.rangeHash(0, n)
}

// path builds the bottom-up inclusion path for leaf m within [lo, hi).
func (t *merkleTree) path(m, lo, hi uint64) ([][sha256.Size]byte, error) {
	if hi-lo == 1 {
		return nil, nil
	}
	k := largestPow2Below(hi - lo)
	if m < lo+k {
		p, err := t.path(m, lo, lo+k)
		if err != nil {
			return nil, err
		}
		sib, err := t.rangeHash(lo+k, hi)
		if err != nil {
			return nil, err
		}
		return append(p, sib), nil
	}
	p, err := t.path(m, lo+k, hi)
	if err != nil {
		return nil, err
	}
	sib, err := t.rangeHash(lo, lo+k)
	if err != nil {
		return nil, err
	}
	return append(p, sib), nil
}

// Ledger is the live ledger attached to a Log: the file, which holds every
// durable leaf, the entries staged for it, and the frontier over both.
// Appends feed it under the log mutex; the server reads its state through
// its own lock, so the two never contend on the log's.
type Ledger struct {
	mu sync.Mutex
	f  File
	fr frontier

	// pending are file entries staged in memory but not yet durable in
	// the ledger file; SyncAll writes them after the WAL fsync covers
	// their frames.
	pending []byte

	// opened is the file as parsed at open, kept only until Reconcile has
	// checked it against the log and the checkpoint's commit.
	opened *merkleTree
}

// ledgerHeader is the JSON second line of the file.
type ledgerHeader struct {
	Base  uint64   `json:"base"`
	Peaks []string `json:"peaks,omitempty"`
}

func encodePeaks(peaks [][sha256.Size]byte) []string {
	out := make([]string, len(peaks))
	for i, p := range peaks {
		out[i] = hex.EncodeToString(p[:])
	}
	return out
}

func decodePeaks(peaks []string) ([][sha256.Size]byte, error) {
	out := make([][sha256.Size]byte, len(peaks))
	for i, s := range peaks {
		b, err := hex.DecodeString(s)
		if err != nil || len(b) != sha256.Size {
			return nil, fmt.Errorf("%w: bad peak %d", ErrLedgerCorrupt, i)
		}
		copy(out[i][:], b)
	}
	return out, nil
}

// peakCountFor returns how many peaks an n-leaf prefix decomposes into.
func peakCountFor(n uint64) int { return bits.OnesCount64(n) }

// parseLedger reads a ledger stream: header, base peaks, entries. A
// trailing partial entry, or a file that ends inside its header (a torn
// creation), is reported as torn bytes, not an error; a malformed header
// or short peak set is ErrLedgerCorrupt.
func parseLedger(r io.Reader) (hdr ledgerHeader, t *merkleTree, torn int64, err error) {
	t = &merkleTree{}
	rd := bufio.NewReader(r)
	magic, rerr := rd.ReadString('\n')
	if rerr != nil && strings.HasPrefix(ledgerMagic, magic) {
		return hdr, t, int64(len(magic)), nil // empty, or torn at creation
	}
	if magic != ledgerMagic+"\n" {
		return hdr, nil, 0, fmt.Errorf("%w: bad magic %q", ErrLedgerCorrupt, magic)
	}
	hline, rerr := rd.ReadString('\n')
	if rerr != nil {
		return hdr, t, int64(len(magic) + len(hline)), nil // torn at creation
	}
	if err := json.Unmarshal([]byte(hline), &hdr); err != nil {
		return hdr, nil, 0, fmt.Errorf("%w: header: %v", ErrLedgerCorrupt, err)
	}
	if peakCountFor(hdr.Base) != len(hdr.Peaks) {
		return hdr, nil, 0, fmt.Errorf("%w: base %d wants %d peaks, header has %d",
			ErrLedgerCorrupt, hdr.Base, peakCountFor(hdr.Base), len(hdr.Peaks))
	}
	if t.basePeaks, err = decodePeaks(hdr.Peaks); err != nil {
		return hdr, nil, 0, err
	}
	t.base = hdr.Base
	var (
		entry   [ledgerEntrySize]byte
		lastSeq uint64
	)
	for {
		n, rerr := io.ReadFull(rd, entry[:])
		if rerr != nil {
			return hdr, t, int64(n), nil
		}
		seq := binary.LittleEndian.Uint64(entry[:8])
		if seq <= lastSeq {
			return hdr, nil, 0, fmt.Errorf("%w: entry seq %d after %d", ErrLedgerCorrupt, seq, lastSeq)
		}
		lastSeq = seq
		var leaf [sha256.Size]byte
		copy(leaf[:], entry[8:])
		t.seqs = append(t.seqs, seq)
		t.leaves = append(t.leaves, leaf)
	}
}

// OpenLedger opens (creating if absent) the ledger at path for
// appending. A torn trailing entry is truncated away, mirroring the WAL
// scan; a malformed header or out-of-order entries fail with
// ErrLedgerCorrupt rather than being repaired — the ledger is the
// tamper-evidence layer, so it never guesses. The stored leaves are folded
// into the frontier and the parse is kept for Reconcile.
func OpenLedger(path string) (*Ledger, error) { return OpenLedgerFS(OS, path) }

// OpenLedgerFS is OpenLedger on fsys.
func OpenLedgerFS(fsys FS, path string) (*Ledger, error) {
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	_, t, torn, err := parseLedger(f)
	var size int64
	if err == nil {
		size, err = f.Seek(0, io.SeekEnd)
	}
	if err == nil && torn > 0 {
		if err = f.Truncate(size - torn); err == nil {
			_, err = f.Seek(size-torn, io.SeekStart)
		}
	}
	if err == nil && size == torn { // no header yet
		err = writeHeader(f, t.base, t.basePeaks)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	led := &Ledger{f: f, fr: frontier{n: t.base, peaks: slices.Clone(t.basePeaks)}, opened: t}
	for _, leaf := range t.leaves {
		led.fr.push(leaf)
	}
	return led, nil
}

// writeHeader writes the magic and header lines for base at the current
// file position (start of an empty file).
func writeHeader(f File, base uint64, peaks [][sha256.Size]byte) error {
	hb, err := json.Marshal(ledgerHeader{Base: base, Peaks: encodePeaks(peaks)})
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	buf.WriteString(ledgerMagic + "\n")
	buf.Write(hb)
	buf.WriteByte('\n')
	if _, err := f.Write(buf.Bytes()); err != nil {
		return fmt.Errorf("wal: ledger header: %w", err)
	}
	return nil
}

// resetTo reinitializes the ledger to start at a committed state: base
// leaves summarized by peaks, no entries. Promotion and migration use it
// when the ledger file did not travel with the checkpoint.
func (led *Ledger) resetTo(base uint64, peaks [][sha256.Size]byte) error {
	if err := led.f.Truncate(0); err != nil {
		return err
	}
	if _, err := led.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	led.fr = frontier{n: base, peaks: slices.Clone(peaks)}
	led.pending = nil
	if err := writeHeader(led.f, base, peaks); err != nil {
		return err
	}
	return led.f.Sync()
}

// observe feeds one appended frame into the tree and stages its file
// entry; called by the Log under its mutex on every append.
func (led *Ledger) observe(seq uint64, payload []byte) {
	led.mu.Lock()
	led.observeLocked(seq, payload)
	led.mu.Unlock()
}

// observeLocked is observe for callers already holding led.mu.
func (led *Ledger) observeLocked(seq uint64, payload []byte) {
	leaf := LeafHash(seq, payload)
	led.fr.push(leaf)
	var entry [ledgerEntrySize]byte
	binary.LittleEndian.PutUint64(entry[:8], seq)
	copy(entry[8:], leaf[:])
	led.pending = append(led.pending, entry[:]...)
}

// SyncAll writes every staged entry and fsyncs the ledger file. Each
// caller has made the staged entries' frames durable first: the Log
// right after its WAL fsync (every append stages under the Log's mutex,
// so the fsync covers all of them), the checkpoint path after Log.Sync,
// before capturing the commit it writes into the header, and Reconcile
// for entries re-staged from frames already in the log.
func (led *Ledger) SyncAll() error {
	led.mu.Lock()
	defer led.mu.Unlock()
	return led.syncAllLocked()
}

func (led *Ledger) syncAllLocked() error {
	if len(led.pending) == 0 {
		return nil
	}
	if _, err := led.f.Write(led.pending); err != nil {
		return fmt.Errorf("wal: ledger append: %w", err)
	}
	if err := led.f.Sync(); err != nil {
		return fmt.Errorf("wal: ledger fsync: %w", err)
	}
	led.pending = led.pending[:0]
	return nil
}

// State summarizes the tree, staged entries included, from its frontier.
// The error is always nil; it is kept so callers handle State like the
// audit paths that can fail.
func (led *Ledger) State() (LedgerState, error) {
	led.mu.Lock()
	defer led.mu.Unlock()
	root := led.fr.root()
	return LedgerState{Count: led.fr.n, Root: hex.EncodeToString(root[:]), Peaks: encodePeaks(led.fr.peaks)}, nil
}

// Count returns the current leaf count (base and staged entries included).
func (led *Ledger) Count() uint64 {
	led.mu.Lock()
	defer led.mu.Unlock()
	return led.fr.n
}

// prove builds the inclusion proof for the leaf of sequence number seq
// against the root over every leaf.
func (t *merkleTree) prove(seq uint64) (*Proof, error) {
	i := sort.Search(len(t.seqs), func(i int) bool { return t.seqs[i] >= seq })
	if i >= len(t.seqs) || t.seqs[i] != seq {
		if t.base > 0 && (len(t.seqs) == 0 || seq < t.seqs[0]) {
			return nil, fmt.Errorf("%w: seq %d", ErrProofPredates, seq)
		}
		return nil, fmt.Errorf("wal: no ledger entry for seq %d", seq)
	}
	index := t.base + uint64(i)
	count := t.count()
	path, err := t.path(index, 0, count)
	if err != nil {
		return nil, err
	}
	root, err := t.rootAt(count)
	if err != nil {
		return nil, err
	}
	return &Proof{
		Seq:   seq,
		Index: index,
		Count: count,
		Leaf:  hex.EncodeToString(t.leaves[i][:]),
		Path:  encodePeaks(path),
		Root:  hex.EncodeToString(root[:]),
	}, nil
}

// Close closes the ledger file without flushing staged entries — those
// describe frames whose WAL fsync never confirmed, and writing them
// would let the ledger get ahead of the log it attests to. Reconcile
// rebuilds them from the log on the next open.
func (led *Ledger) Close() error {
	led.mu.Lock()
	defer led.mu.Unlock()
	if led.f == nil {
		return nil
	}
	err := led.f.Close()
	led.f = nil
	return err
}

// Reconcile aligns the ledger with reality right after OpenLedger: the
// scanned WAL records, the checkpoint's sequence horizon and its ledger
// commit (nil when the session has never checkpointed or predates the
// ledger feature). It works from the entries parsed at open, and drops
// them: afterwards the ledger holds no per-record state. It
//
//   - adopts the commit's base/peaks when the ledger file is brand new
//     but history is not (promotion, migration);
//   - verifies the committed root still matches the stored entries —
//     failure is tampering (ErrCommitMismatch), since committed entries
//     are final;
//   - cross-checks every scanned frame against its entry
//     (ErrLedgerMismatch on a hash difference — an altered or spliced
//     frame) and re-stages entries for frames the ledger missed (a crash
//     between the WAL fsync and the ledger flush);
//   - rejects entries with no backing frame: below the checkpoint
//     horizon the log was legitimately emptied, but past it a durable
//     entry always had a durable frame (entries flush strictly after
//     their frame's fsync), so a missing one means the log was cut or
//     the ledger padded (ErrLedgerAhead; ErrLedgerGap for holes in the
//     middle).
func (led *Ledger) Reconcile(recs []Record, ckptSeq uint64, commit *LedgerState) error {
	led.mu.Lock()
	defer led.mu.Unlock()
	t := led.opened
	led.opened = nil
	if t == nil { // not just opened: no parse is left to check against
		t = &merkleTree{base: led.fr.n, basePeaks: led.fr.peaks}
	}

	if commit != nil && commit.Count > 0 && t.count() == 0 {
		peaks, err := decodePeaks(commit.Peaks)
		if err != nil {
			return err
		}
		if peakCountFor(commit.Count) != len(peaks) {
			return fmt.Errorf("%w: commit count %d wants %d peaks, has %d",
				ErrLedgerCorrupt, commit.Count, peakCountFor(commit.Count), len(peaks))
		}
		if err := led.resetTo(commit.Count, peaks); err != nil {
			return err
		}
		t = &merkleTree{base: commit.Count, basePeaks: peaks}
	}

	var committed uint64
	if commit != nil {
		committed = commit.Count
	}
	if committed > 0 {
		if committed < t.base {
			return fmt.Errorf("%w: commit covers %d leaves, ledger base is %d",
				ErrLedgerCorrupt, committed, t.base)
		}
		if committed > t.count() {
			return fmt.Errorf("%w: commit covers %d leaves, ledger holds %d",
				ErrLedgerGap, committed, t.count())
		}
		root := led.fr.root()
		if committed < led.fr.n {
			var err error
			if root, err = t.rootAt(committed); err != nil {
				return err
			}
		}
		if hex.EncodeToString(root[:]) != commit.Root {
			return fmt.Errorf("%w: over %d leaves: ledger %x, checkpoint %s",
				ErrCommitMismatch, committed, root, commit.Root)
		}
	}

	// Walk the scanned frames against the stored entries. Frames at or
	// below the checkpoint horizon that the ledger already covers must
	// match; frames past the last entry are re-staged.
	lastEntrySeq := uint64(0)
	if n := len(t.seqs); n > 0 {
		lastEntrySeq = t.seqs[n-1]
	}
	var payload []byte
	for ri := range recs {
		rec := &recs[ri]
		i := sort.Search(len(t.seqs), func(i int) bool { return t.seqs[i] >= rec.Seq })
		switch {
		case i < len(t.seqs) && t.seqs[i] == rec.Seq:
			payload = rec.AppendJSON(payload[:0])
			if LeafHash(rec.Seq, payload) != t.leaves[i] {
				return fmt.Errorf("%w: seq %d", ErrLedgerMismatch, rec.Seq)
			}
		case rec.Seq > lastEntrySeq:
			payload = rec.AppendJSON(payload[:0])
			led.observeLocked(rec.Seq, payload)
			lastEntrySeq = rec.Seq
		default:
			// A frame in the middle of the entry range with no entry:
			// the ledger lost history it should hold.
			return fmt.Errorf("%w: no entry for frame seq %d", ErrLedgerGap, rec.Seq)
		}
	}

	// Trailing entries past both the WAL and the checkpoint horizon:
	// entries flush strictly after their frame's fsync, so no crash
	// ordering produces them — reject rather than repair.
	walEnd := uint64(0)
	if len(recs) > 0 {
		walEnd = recs[len(recs)-1].Seq
	}
	for _, seq := range t.seqs {
		if seq > ckptSeq && seq > walEnd {
			return fmt.Errorf("%w: entry seq %d (wal ends at %d, checkpoint horizon %d)",
				ErrLedgerAhead, seq, walEnd, ckptSeq)
		}
	}
	// Entries re-staged for frames the ledger missed describe frames
	// already durable in the log; flush them now so the invariant
	// (ledger covers every durable frame) holds before serving resumes.
	return led.syncAllLocked()
}

// VerifyProof checks a self-contained proof: it recomputes the root from
// the leaf and path using the RFC 6962 index/count direction rules and
// compares it to the proof's root. It needs no tree — this is what the
// offline verifier runs against a root published elsewhere.
func VerifyProof(p *Proof) error {
	if p.Count == 0 || p.Index >= p.Count {
		return fmt.Errorf("wal: proof index %d out of range of %d", p.Index, p.Count)
	}
	leafB, err := hex.DecodeString(p.Leaf)
	if err != nil || len(leafB) != sha256.Size {
		return errors.New("wal: proof leaf is not a sha256 hex digest")
	}
	wantB, err := hex.DecodeString(p.Root)
	if err != nil || len(wantB) != sha256.Size {
		return errors.New("wal: proof root is not a sha256 hex digest")
	}
	var r, want [sha256.Size]byte
	copy(r[:], leafB)
	copy(want[:], wantB)
	fn, sn := p.Index, p.Count-1
	for _, hs := range p.Path {
		hb, err := hex.DecodeString(hs)
		if err != nil || len(hb) != sha256.Size {
			return errors.New("wal: proof path hash is not a sha256 hex digest")
		}
		var h [sha256.Size]byte
		copy(h[:], hb)
		if sn == 0 {
			return errors.New("wal: proof path longer than the tree is deep")
		}
		if fn%2 == 1 || fn == sn {
			r = interiorHash(h, r)
			if fn%2 == 0 {
				for fn%2 == 0 && fn != 0 {
					fn >>= 1
					sn >>= 1
				}
			}
		} else {
			r = interiorHash(r, h)
		}
		fn >>= 1
		sn >>= 1
	}
	if sn != 0 {
		return errors.New("wal: proof path shorter than the tree is deep")
	}
	if r != want {
		return fmt.Errorf("wal: proof does not verify: computed %x, claimed %s", r, p.Root)
	}
	return nil
}

// LedgerEntry is one stored (or staged) ledger record, for inspection.
type LedgerEntry struct {
	Seq  uint64
	Leaf string // hex
}

// LedgerInfo is a read-only snapshot of a ledger file, the audit
// package's raw material.
type LedgerInfo struct {
	Base      uint64
	BasePeaks []string
	Entries   []LedgerEntry
	TornBytes int64

	t merkleTree
}

// InspectLedger loads the ledger at path without opening it for writing
// or repairing anything. A missing file returns nil, nil.
func InspectLedger(path string) (*LedgerInfo, error) { return InspectLedgerFS(OS, path) }

// InspectLedgerFS is InspectLedger on fsys.
func InspectLedgerFS(fsys FS, path string) (*LedgerInfo, error) {
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	defer f.Close()
	hdr, t, torn, err := parseLedger(f)
	if err != nil {
		return nil, err
	}
	info := &LedgerInfo{Base: t.base, BasePeaks: hdr.Peaks, TornBytes: torn, t: *t}
	info.Entries = make([]LedgerEntry, len(t.seqs))
	for i, seq := range t.seqs {
		info.Entries[i] = LedgerEntry{Seq: seq, Leaf: hex.EncodeToString(t.leaves[i][:])}
	}
	return info, nil
}

// Count returns base + stored entries.
func (info *LedgerInfo) Count() uint64 { return info.t.count() }

// RootAt recomputes the root over the first n leaves.
func (info *LedgerInfo) RootAt(n uint64) (string, error) {
	root, err := info.t.rootAt(n)
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(root[:]), nil
}

// Root recomputes the root over everything stored.
func (info *LedgerInfo) Root() (string, error) { return info.RootAt(info.t.count()) }

// Prove builds the inclusion proof for the frame with sequence number seq
// against the root over every stored leaf. Sequence numbers summarized into
// the base (a promoted replica's pre-checkpoint history) fail with
// ErrProofPredates; unknown ones with a plain not-found error.
func (info *LedgerInfo) Prove(seq uint64) (*Proof, error) { return info.t.prove(seq) }
