package wal

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// refMTH is an independent RFC 6962 Merkle tree hash: straight recursion
// with its own split-point computation, against which the incremental
// tree (stored leaves, base peaks, range recursion) is checked.
func refMTH(leaves [][sha256.Size]byte) [sha256.Size]byte {
	n := uint64(len(leaves))
	if n == 0 {
		return sha256.Sum256(nil)
	}
	if n == 1 {
		return leaves[0]
	}
	k := uint64(1)
	for k*2 < n {
		k *= 2
	}
	return interiorHash(refMTH(leaves[:k]), refMTH(leaves[k:]))
}

func testLeaves(n int) ([][sha256.Size]byte, []uint64) {
	leaves := make([][sha256.Size]byte, n)
	seqs := make([]uint64, n)
	for i := range leaves {
		seqs[i] = uint64(i + 1)
		leaves[i] = LeafHash(seqs[i], []byte{byte(i), byte(i >> 8), 0xa7})
	}
	return leaves, seqs
}

func TestMerkleRootMatchesReference(t *testing.T) {
	leaves, seqs := testLeaves(65)
	for n := 0; n <= len(leaves); n++ {
		tr := &merkleTree{leaves: leaves[:n], seqs: seqs[:n]}
		got, err := tr.rootAt(uint64(n))
		if err != nil {
			t.Fatalf("rootAt(%d): %v", n, err)
		}
		if want := refMTH(leaves[:n]); got != want {
			t.Fatalf("root over %d leaves: got %x, want %x", n, got, want)
		}
	}
}

// TestMerkleBaseResume: a tree resumed from the peak decomposition of its
// first k leaves (what a promoted replica or migrated session holds)
// must produce the same roots as the tree that kept every leaf.
func TestMerkleBaseResume(t *testing.T) {
	const total = 40
	leaves, seqs := testLeaves(total)
	full := &merkleTree{leaves: leaves, seqs: seqs}
	for k := uint64(0); k <= 32; k++ {
		peaks, err := full.peaksAt(k)
		if err != nil {
			t.Fatalf("peaksAt(%d): %v", k, err)
		}
		resumed := &merkleTree{base: k, basePeaks: peaks, leaves: leaves[k:], seqs: seqs[k:]}
		for n := k; n <= total; n++ {
			got, err := resumed.rootAt(n)
			if err != nil {
				t.Fatalf("base %d rootAt(%d): %v", k, n, err)
			}
			want, _ := full.rootAt(n)
			if got != want {
				t.Fatalf("base %d root over %d leaves diverges from full tree", k, n)
			}
		}
		// Proofs for retained leaves still verify; summarized ones refuse.
		if k > 0 && k < total {
			if _, err := proveIn(resumed, seqs[k-1]); !errors.Is(err, ErrProofPredates) {
				t.Fatalf("base %d: proof for summarized seq %d: %v", k, seqs[k-1], err)
			}
			p, err := proveIn(resumed, seqs[k])
			if err != nil {
				t.Fatalf("base %d: proof for first retained seq: %v", k, err)
			}
			if err := VerifyProof(p); err != nil {
				t.Fatalf("base %d: retained-leaf proof does not verify: %v", k, err)
			}
		}
	}
}

// proveIn builds a proof directly from a tree, mirroring merkleTree.prove
// without its search.
func proveIn(tr *merkleTree, seq uint64) (*Proof, error) {
	for i, s := range tr.seqs {
		if s == seq {
			index := tr.base + uint64(i)
			path, err := tr.path(index, 0, tr.count())
			if err != nil {
				return nil, err
			}
			root, err := tr.rootAt(tr.count())
			if err != nil {
				return nil, err
			}
			return &Proof{
				Seq: seq, Index: index, Count: tr.count(),
				Leaf: hex.EncodeToString(tr.leaves[i][:]),
				Path: encodePeaks(path),
				Root: hex.EncodeToString(root[:]),
			}, nil
		}
	}
	if tr.base > 0 && (len(tr.seqs) == 0 || seq < tr.seqs[0]) {
		return nil, ErrProofPredates
	}
	return nil, errors.New("no entry")
}

// proveFile proves seq from the ledger file at path, as a served proof is.
func proveFile(path string, seq uint64) (*Proof, error) {
	info, err := InspectLedger(path)
	if err != nil {
		return nil, err
	}
	return info.Prove(seq)
}

func openTestLedger(t *testing.T, n int) (*Ledger, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "merkle.log")
	led, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { led.Close() })
	for i := 1; i <= n; i++ {
		led.observe(uint64(i), []byte{byte(i), 0x5a})
	}
	if err := led.SyncAll(); err != nil {
		t.Fatal(err)
	}
	return led, path
}

func TestProofRoundTripAndMutations(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 8, 33} {
		_, path := openTestLedger(t, n)
		for seq := 1; seq <= n; seq++ {
			p, err := proveFile(path, uint64(seq))
			if err != nil {
				t.Fatalf("n=%d Prove(%d): %v", n, seq, err)
			}
			if err := VerifyProof(p); err != nil {
				t.Fatalf("n=%d seq=%d: %v", n, seq, err)
			}
		}
		// Every mutation of a valid proof must fail verification.
		p, err := proveFile(path, uint64((n+1)/2))
		if err != nil {
			t.Fatal(err)
		}
		// (Count is deliberately absent: some index/count pairs share a
		// direction sequence — e.g. (1,3) and (1,4) — so bumping Count
		// alone can still verify. The root stays bound to the leaf, and
		// the root is what callers trust.)
		mutations := map[string]func(*Proof){
			"leaf":      func(q *Proof) { q.Leaf = flipHex(q.Leaf) },
			"root":      func(q *Proof) { q.Root = flipHex(q.Root) },
			"bad hex":   func(q *Proof) { q.Leaf = "zz" + q.Leaf[2:] },
			"extra sib": func(q *Proof) { q.Path = append(q.Path, q.Leaf) },
		}
		if p.Count > 1 {
			mutations["index"] = func(q *Proof) { q.Index = (q.Index + 1) % q.Count }
		}
		if len(p.Path) > 0 {
			mutations["path hash"] = func(q *Proof) { q.Path[0] = flipHex(q.Path[0]) }
			mutations["dropped sib"] = func(q *Proof) { q.Path = q.Path[:len(q.Path)-1] }
		}
		for name, mutate := range mutations {
			q := *p
			q.Path = append([]string(nil), p.Path...)
			mutate(&q)
			if err := VerifyProof(&q); err == nil {
				t.Fatalf("n=%d: mutated proof (%s) still verifies", n, name)
			}
		}
		// Unknown and out-of-range sequence numbers.
		if _, err := proveFile(path, uint64(n+100)); err == nil {
			t.Fatalf("n=%d: proof for unappended seq succeeded", n)
		}
	}
}

func flipHex(s string) string {
	b, _ := hex.DecodeString(s)
	b[0] ^= 0xff
	return hex.EncodeToString(b)
}

func TestLedgerFileRoundTrip(t *testing.T) {
	led, path := openTestLedger(t, 9)
	want, err := led.State()
	if err != nil {
		t.Fatal(err)
	}
	if err := led.Close(); err != nil {
		t.Fatal(err)
	}

	led2, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	defer led2.Close()
	got, err := led2.State()
	if err != nil {
		t.Fatal(err)
	}
	if got.Count != want.Count || got.Root != want.Root {
		t.Fatalf("reopened ledger: %+v, want %+v", got, want)
	}

	// A torn trailing entry (partial write at crash) is truncated away.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := append(append([]byte(nil), data...), 0x0a, 0x00, 0x00)
	tornPath := filepath.Join(t.TempDir(), "torn.log")
	if err := os.WriteFile(tornPath, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	led3, err := OpenLedger(tornPath)
	if err != nil {
		t.Fatalf("torn ledger should open: %v", err)
	}
	defer led3.Close()
	if got, _ := led3.State(); got.Root != want.Root {
		t.Fatalf("torn ledger root %s, want %s", got.Root, want.Root)
	}
	if fi, _ := os.Stat(tornPath); fi.Size() != int64(len(data)) {
		t.Fatalf("torn tail not truncated: %d bytes, want %d", fi.Size(), len(data))
	}

	// A corrupted header is an error, never repaired.
	for name, corrupt := range map[string]func([]byte) []byte{
		"magic":   func(b []byte) []byte { b[0] ^= 0xff; return b },
		"header":  func(b []byte) []byte { b[len(ledgerMagic)+2] ^= 0xff; return b },
		"reorder": func(b []byte) []byte { copy(b[len(b)-ledgerEntrySize:], b[len(b)-2*ledgerEntrySize:]); return b },
	} {
		bad := corrupt(append([]byte(nil), data...))
		badPath := filepath.Join(t.TempDir(), "bad.log")
		if err := os.WriteFile(badPath, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenLedger(badPath); !errors.Is(err, ErrLedgerCorrupt) {
			t.Fatalf("%s corruption: got %v, want ErrLedgerCorrupt", name, err)
		}
		if _, err := InspectLedger(badPath); !errors.Is(err, ErrLedgerCorrupt) {
			t.Fatalf("%s corruption (inspect): got %v, want ErrLedgerCorrupt", name, err)
		}
	}
}

// reconcileFixture builds a ledger whose entries match recs exactly, all
// flushed, and returns the records plus the committed state over them.
func reconcileFixture(t *testing.T, n int) (string, []Record, LedgerState) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "merkle.log")
	led, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{Seq: uint64(i + 1), Op: OpRun, Cycles: i + 1}
		payload, err := json.Marshal(&recs[i])
		if err != nil {
			t.Fatal(err)
		}
		led.observe(recs[i].Seq, payload)
	}
	if err := led.SyncAll(); err != nil {
		t.Fatal(err)
	}
	st, err := led.State()
	if err != nil {
		t.Fatal(err)
	}
	if err := led.Close(); err != nil {
		t.Fatal(err)
	}
	return path, recs, st
}

func TestReconcile(t *testing.T) {
	reopen := func(t *testing.T, path string) *Ledger {
		led, err := OpenLedger(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { led.Close() })
		return led
	}

	t.Run("clean match", func(t *testing.T) {
		path, recs, st := reconcileFixture(t, 6)
		led := reopen(t, path)
		if err := led.Reconcile(recs, 0, &st); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("restage missed frames", func(t *testing.T) {
		// Crash between WAL fsync and ledger flush: frames past the last
		// entry are re-staged and flushed during reconcile.
		path, recs, _ := reconcileFixture(t, 3)
		extra := Record{Seq: 4, Op: OpRun, Cycles: 99}
		led := reopen(t, path)
		if err := led.Reconcile(append(recs, extra), 0, nil); err != nil {
			t.Fatal(err)
		}
		if led.Count() != 4 {
			t.Fatalf("count after restage = %d, want 4", led.Count())
		}
		led.Close()
		info, err := InspectLedger(path)
		if err != nil || len(info.Entries) != 4 {
			t.Fatalf("restaged entry not flushed: %v entries=%d", err, len(info.Entries))
		}
	})

	t.Run("altered frame", func(t *testing.T) {
		path, recs, _ := reconcileFixture(t, 5)
		recs[2].Cycles = 12345 // same seq, different content
		led := reopen(t, path)
		if err := led.Reconcile(recs, 0, nil); !errors.Is(err, ErrLedgerMismatch) {
			t.Fatalf("got %v, want ErrLedgerMismatch", err)
		}
	})

	t.Run("frame without entry mid-range", func(t *testing.T) {
		// A ledger holding entries {1,2,4,5} meets a WAL holding frames
		// 1..5: frame 3 sits inside the entry range with no entry — the
		// ledger lost history it must hold.
		_, recs, _ := reconcileFixture(t, 5)
		path := filepath.Join(t.TempDir(), "merkle.log")
		led, err := OpenLedger(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []int{0, 1, 3, 4} {
			payload, _ := json.Marshal(&recs[r])
			led.observe(recs[r].Seq, payload)
		}
		if err := led.SyncAll(); err != nil {
			t.Fatal(err)
		}
		led.Close()
		led = reopen(t, path)
		if err := led.Reconcile(recs, 0, nil); !errors.Is(err, ErrLedgerGap) {
			t.Fatalf("got %v, want ErrLedgerGap", err)
		}
	})

	t.Run("commit root mismatch", func(t *testing.T) {
		path, recs, st := reconcileFixture(t, 4)
		st.Root = flipHex(st.Root)
		led := reopen(t, path)
		if err := led.Reconcile(recs, 0, &st); !errors.Is(err, ErrCommitMismatch) {
			t.Fatalf("got %v, want ErrCommitMismatch", err)
		}
	})

	t.Run("commit beyond ledger", func(t *testing.T) {
		path, recs, st := reconcileFixture(t, 4)
		st.Count = 9
		led := reopen(t, path)
		if err := led.Reconcile(recs, 0, &st); !errors.Is(err, ErrLedgerGap) {
			t.Fatalf("got %v, want ErrLedgerGap", err)
		}
	})

	t.Run("ledger ahead of wal", func(t *testing.T) {
		// Entries flush only after the covering WAL fsync, so entries
		// past both the WAL end and the checkpoint horizon are tampering
		// (a cut log or padded ledger), not crash debris.
		path, recs, _ := reconcileFixture(t, 5)
		led := reopen(t, path)
		if err := led.Reconcile(recs[:3], 0, nil); !errors.Is(err, ErrLedgerAhead) {
			t.Fatalf("got %v, want ErrLedgerAhead", err)
		}
	})

	t.Run("checkpoint horizon excuses missing frames", func(t *testing.T) {
		// After a checkpoint empties the log, entries at or below the
		// horizon legitimately have no frames.
		path, recs, st := reconcileFixture(t, 5)
		led := reopen(t, path)
		if err := led.Reconcile(nil, recs[len(recs)-1].Seq, &st); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("adopt base from commit", func(t *testing.T) {
		// A fresh ledger file next to checkpointed history (promotion,
		// migration) adopts the commit's peaks as its base.
		_, recs, st := reconcileFixture(t, 5)
		path := filepath.Join(t.TempDir(), "merkle.log")
		led, err := OpenLedger(path)
		if err != nil {
			t.Fatal(err)
		}
		defer led.Close()
		if err := led.Reconcile(nil, recs[len(recs)-1].Seq, &st); err != nil {
			t.Fatal(err)
		}
		got, err := led.State()
		if err != nil {
			t.Fatal(err)
		}
		if got.Count != st.Count || got.Root != st.Root {
			t.Fatalf("adopted state %+v, want %+v", got, st)
		}
		// And the adopted base survives a reopen.
		led.Close()
		led2, err := OpenLedger(path)
		if err != nil {
			t.Fatal(err)
		}
		defer led2.Close()
		if got, _ := led2.State(); got.Root != st.Root {
			t.Fatalf("reopened adopted root %s, want %s", got.Root, st.Root)
		}
	})
}

// TestAnyMutationChangesRoot: the property the whole ledger design rests
// on — no single-byte change to any frame payload (or its seq) leaves
// the root unchanged.
func TestAnyMutationChangesRoot(t *testing.T) {
	payloads := make([][]byte, 12)
	tr := &merkleTree{}
	for i := range payloads {
		payloads[i] = []byte(strings.Repeat("x", i+1))
		tr.seqs = append(tr.seqs, uint64(i+1))
		tr.leaves = append(tr.leaves, LeafHash(uint64(i+1), payloads[i]))
	}
	baseline, err := tr.rootAt(tr.count())
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range payloads {
		for j := range p {
			for bit := 0; bit < 8; bit++ {
				mut := append([]byte(nil), p...)
				mut[j] ^= 1 << bit
				tr.leaves[i] = LeafHash(uint64(i+1), mut)
				got, err := tr.rootAt(tr.count())
				if err != nil {
					t.Fatal(err)
				}
				if got == baseline {
					t.Fatalf("flipping bit %d of byte %d in leaf %d left the root unchanged", bit, j, i)
				}
			}
		}
		// Same payload under a different seq also changes the root
		// (splicing a frame to a different position is detected).
		tr.leaves[i] = LeafHash(uint64(i+100), p)
		if got, _ := tr.rootAt(tr.count()); got == baseline {
			t.Fatalf("re-seqing leaf %d left the root unchanged", i)
		}
		tr.leaves[i] = LeafHash(uint64(i+1), p)
	}
	if got, _ := tr.rootAt(tr.count()); got != baseline {
		t.Fatal("restoration did not reproduce the baseline root")
	}
}

// TestLogFeedsLedger: the wiring between Log and Ledger — appends become
// entries, fsyncs flush exactly the covered prefix, Reset leaves the
// ledger whole.
func TestLogFeedsLedger(t *testing.T) {
	dir := t.TempDir()
	led, err := OpenLedger(filepath.Join(dir, "merkle.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer led.Close()
	l, _, err := Open(filepath.Join(dir, "wal.log"), Options{Policy: PolicyAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.SetLedger(led)
	for i := 0; i < 5; i++ {
		if err := l.Append(&Record{Op: OpRun, Cycles: i}); err != nil {
			t.Fatal(err)
		}
	}
	if led.Count() != 5 {
		t.Fatalf("ledger count = %d, want 5", led.Count())
	}
	// Once the log syncs, every entry is durable.
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	info, err := InspectLedger(filepath.Join(dir, "merkle.log"))
	if err != nil || len(info.Entries) != 5 {
		t.Fatalf("durable entries = %d (err=%v), want 5", len(info.Entries), err)
	}
	// Reset (checkpoint) empties the log but never the ledger.
	if err := l.Reset(); err != nil {
		t.Fatal(err)
	}
	if led.Count() != 5 {
		t.Fatalf("ledger count after reset = %d, want 5", led.Count())
	}
	if err := l.Append(&Record{Op: OpRun, Cycles: 9}); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if led.Count() != 6 {
		t.Fatalf("ledger count after post-reset append = %d, want 6", led.Count())
	}
	// Proofs verify for both pre- and post-checkpoint frames.
	for _, seq := range []uint64{1, 6} {
		p, err := proveFile(filepath.Join(dir, "merkle.log"), seq)
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyProof(p); err != nil {
			t.Fatalf("seq %d: %v", seq, err)
		}
	}
}
