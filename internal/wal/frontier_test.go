package wal

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/bits"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"
)

// peaksAt returns the peak decomposition of the first n leaves by range
// recursion: the reference the frontier is held to.
func (t *merkleTree) peaksAt(n uint64) ([][sha256.Size]byte, error) {
	var peaks [][sha256.Size]byte
	var start uint64
	for rem := n; rem > 0; {
		size := uint64(1) << (bits.Len64(rem) - 1)
		p, err := t.rangeHash(start, start+size)
		if err != nil {
			return nil, err
		}
		peaks = append(peaks, p)
		start += size
		rem -= size
	}
	return peaks, nil
}

// recursiveState is State computed the way audits compute it: range
// recursion over the stored leaves and base peaks.
func recursiveState(t *testing.T, tr *merkleTree) LedgerState {
	t.Helper()
	n := tr.count()
	root, err := tr.rootAt(n)
	if err != nil {
		t.Fatal(err)
	}
	peaks, err := tr.peaksAt(n)
	if err != nil {
		t.Fatal(err)
	}
	return LedgerState{Count: n, Root: hex.EncodeToString(root[:]), Peaks: encodePeaks(peaks)}
}

// TestFrontierMatchesRecursion: State() from the frontier equals the
// recursive rootAt/peaksAt, and the root an independent RFC 6962 hash
// over every leaf, at every prefix of random append runs. Runs start
// fresh, resume from base peaks (Reconcile adopting a commit, which
// resets the ledger), or reopen a ledger whose tail Reconcile re-staged
// after checking a commit. Half the runs ask State after every append,
// the rest at random gaps, so the frontier folds one leaf and long runs
// of leaves at a time.
func TestFrontierMatchesRecursion(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for run := 0; run < 48; run++ {
		t.Run(fmt.Sprintf("run%d", run), func(t *testing.T) {
			total := 1 + rng.Intn(200)
			recs := make([]Record, total)
			leaves := make([][sha256.Size]byte, total)
			for i := range recs {
				recs[i] = Record{Seq: uint64(i + 1), Op: OpRun, Cycles: rng.Intn(1000)}
				leaves[i] = LeafHash(recs[i].Seq, recs[i].AppendJSON(nil))
			}
			every := run%2 == 0
			check := func(led *Ledger) {
				t.Helper()
				got, err := led.State()
				if err != nil {
					t.Fatal(err)
				}
				if want := recursiveState(t, &led.t); !reflect.DeepEqual(got, want) {
					t.Fatalf("frontier state %+v, recursion %+v", got, want)
				}
				if ref := refMTH(leaves[:got.Count]); got.Root != hex.EncodeToString(ref[:]) {
					t.Fatalf("root over %d leaves %s, reference %x", got.Count, got.Root, ref)
				}
			}
			path := filepath.Join(t.TempDir(), "merkle.log")
			led, err := OpenLedger(path)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { led.Close() }()
			next := 0
			switch run % 3 {
			case 1: // resumed from the base peaks of a committed prefix
				k := 1 + rng.Intn(total)
				full := &merkleTree{leaves: leaves}
				peaks, err := full.peaksAt(uint64(k))
				if err != nil {
					t.Fatal(err)
				}
				root := refMTH(leaves[:k])
				commit := LedgerState{Count: uint64(k), Root: hex.EncodeToString(root[:]), Peaks: encodePeaks(peaks)}
				if err := led.Reconcile(nil, uint64(k), &commit); err != nil {
					t.Fatal(err)
				}
				if led.t.base != uint64(k) || led.t.folded != uint64(k) {
					t.Fatalf("adopted base %d, frontier at %d, want both %d", led.t.base, led.t.folded, k)
				}
				next = k
			case 2: // reopened, commit checked, missed frames re-staged
				m := rng.Intn(total + 1)
				c := 0
				if m > 0 {
					c = 1 + rng.Intn(m)
				}
				var commit *LedgerState
				for i := 0; i < m; i++ {
					led.observe(recs[i].Seq, recs[i].AppendJSON(nil))
					if i+1 == c {
						st, err := led.State()
						if err != nil {
							t.Fatal(err)
						}
						commit = &st
					}
				}
				if err := led.SyncAll(); err != nil {
					t.Fatal(err)
				}
				led.Close()
				if led, err = OpenLedger(path); err != nil {
					t.Fatal(err)
				}
				restaged := m + rng.Intn(total-m+1)
				if err := led.Reconcile(recs[c:restaged], uint64(c), commit); err != nil {
					t.Fatal(err)
				}
				if led.t.folded != uint64(c) {
					t.Fatalf("after reconciling a commit over %d leaves the frontier is at %d", c, led.t.folded)
				}
				next = restaged
				if next > 0 {
					check(led)
				}
			}
			for i := next; i < total; i++ {
				led.observe(recs[i].Seq, recs[i].AppendJSON(nil))
				if every || rng.Intn(5) == 0 || i == total-1 {
					check(led)
				}
			}
		})
	}
}

// BenchmarkLedgerState times one State() after 256 appends on a ledger
// of n leaves. Each iteration rewinds the tree to its n leaves outside
// the timer, so every State() folds the same 256 leaves into a frontier
// over n.
func BenchmarkLedgerState(b *testing.B) {
	const appends = 256
	for _, n := range []int{1 << 10, 1 << 14, 1 << 18} {
		b.Run(fmt.Sprintf("leaves=%dk", n>>10), func(b *testing.B) {
			led, err := OpenLedger(filepath.Join(b.TempDir(), "merkle.log"))
			if err != nil {
				b.Fatal(err)
			}
			defer led.Close()
			payload := []byte(`{"seq":1,"op":"assert","facts":[{"template":"item","fields":{"k":1}}]}`)
			for i := 1; i <= n; i++ {
				led.observe(uint64(i), payload)
			}
			led.pending = led.pending[:0]
			if _, err := led.State(); err != nil {
				b.Fatal(err)
			}
			peaks := append([][sha256.Size]byte(nil), led.t.peaks...)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				led.t.leaves, led.t.seqs = led.t.leaves[:n], led.t.seqs[:n]
				led.t.folded, led.t.peaks = uint64(n), append(led.t.peaks[:0], peaks...)
				for j := 1; j <= appends; j++ {
					led.observe(uint64(n+j), payload)
				}
				led.pending = led.pending[:0]
				b.StartTimer()
				if _, err := led.State(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
