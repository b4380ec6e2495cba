package wal

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/bits"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
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
// recursion over a ledger file's stored leaves and base peaks.
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
// recursive rootAt/peaksAt over the ledger file, and the root an
// independent RFC 6962 hash over every leaf, at every prefix of random
// append runs. Runs start fresh, resume from base peaks (Reconcile
// adopting a commit, which resets the ledger), or reopen a ledger whose
// tail Reconcile re-staged after checking a commit. Half the runs ask
// State after every append, the rest at random gaps.
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
			path := filepath.Join(t.TempDir(), "merkle.log")
			check := func(led *Ledger) {
				t.Helper()
				if err := led.SyncAll(); err != nil {
					t.Fatal(err)
				}
				got, err := led.State()
				if err != nil {
					t.Fatal(err)
				}
				info, err := InspectLedger(path)
				if err != nil {
					t.Fatal(err)
				}
				if want := recursiveState(t, &info.t); !reflect.DeepEqual(got, want) {
					t.Fatalf("frontier state %+v, recursion %+v", got, want)
				}
				if ref := refMTH(leaves[:got.Count]); got.Root != hex.EncodeToString(ref[:]) {
					t.Fatalf("root over %d leaves %s, reference %x", got.Count, got.Root, ref)
				}
			}
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
				info, err := InspectLedger(path)
				if err != nil {
					t.Fatal(err)
				}
				if info.Base != uint64(k) || led.Count() != uint64(k) {
					t.Fatalf("adopted base %d, frontier at %d, want both %d", info.Base, led.Count(), k)
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
				if led.opened != nil || led.Count() != uint64(restaged) {
					t.Fatalf("after reconciling %d frames the frontier is at %d (parse kept: %v)",
						restaged, led.Count(), led.opened != nil)
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

// TestLedgerMemoryFlat: a ledger that takes 1,000,000 leaves, flushed and
// committed every 256 as checkpoints do, holds no more at its last leaf
// than at its 50,000th. The leaves live in the file; memory holds the
// frontier and one interval's staged entries.
func TestLedgerMemoryFlat(t *testing.T) {
	const total, mark, every = 1_000_000, 50_000, 256
	led, err := OpenLedger(filepath.Join(t.TempDir(), "merkle.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer led.Close()
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	payload := []byte(`{"seq":1,"op":"assert","facts":[{"template":"item","fields":{"k":1}}]}`)
	var atMark uint64
	for i := 1; i <= total; i++ {
		led.observe(uint64(i), payload)
		if i%every == 0 {
			if err := led.SyncAll(); err != nil {
				t.Fatal(err)
			}
			if _, err := led.State(); err != nil {
				t.Fatal(err)
			}
		}
		if i == mark {
			atMark = heap()
		}
	}
	grew := int64(heap()) - int64(atMark)
	t.Logf("heap grew %d B between leaf %d and leaf %d", grew, mark, total)
	if grew >= 1<<20 {
		t.Fatalf("heap grew %d B between leaf %d and leaf %d", grew, mark, total)
	}
	if led.Count() != total {
		t.Fatalf("count %d, want %d", led.Count(), total)
	}
}

// BenchmarkLedgerState times one checkpoint interval of ledger work on a
// ledger of n leaves: 256 appends, each folded into the frontier as it is
// observed, then one State(). Each iteration rewinds the frontier to its n
// leaves outside the timer.
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
			peaks := append([][sha256.Size]byte(nil), led.fr.peaks...)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				led.fr = frontier{n: uint64(n), peaks: append(led.fr.peaks[:0], peaks...)}
				led.pending = led.pending[:0]
				b.StartTimer()
				for j := 1; j <= appends; j++ {
					led.observe(uint64(n+j), payload)
				}
				if _, err := led.State(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
