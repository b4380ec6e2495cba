package wal

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// faultFS is OS with every file's Sync replaced by sync, which is handed
// the *os.File underneath: tests count, observe or fail fsyncs through it.
func faultFS(sync func(*os.File) error) FS { return syncHookFS{OS, sync} }

type syncHookFS struct {
	FS
	sync func(*os.File) error
}

func (h syncHookFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := h.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return syncHookFile{f.(*os.File), h.sync}, nil
}

type syncHookFile struct {
	*os.File
	sync func(*os.File) error
}

func (f syncHookFile) Sync() error { return f.sync(f.File) }

// The appenders in these tests share one log, which a served session's
// log never does; they exercise l.mu as the only thing ordering appends
// and their fsyncs.
const appenders = 8

// appendSync is an append acknowledged under PolicyAlways, as the store
// makes it: the record is written, then the log is synced.
func appendSync(l *Log, rec *Record) error {
	if err := l.Append(rec); err != nil {
		return err
	}
	return l.Sync()
}

// TestWALAckImpliesDurable is the PolicyAlways contract under -race: when
// appendSync returns nil, the bytes of that record were already covered
// by a completed fsync — its own, or one another appender's Sync issued
// after the frame was written. The fsync hook records how many bytes the file
// held when each flush was issued; an acked append whose frame lies
// beyond that watermark would be an ack racing ahead of its flush.
func TestWALAckImpliesDurable(t *testing.T) {
	var durable atomic.Int64 // bytes proven on stable storage
	var fsyncs atomic.Int64
	var (
		offMu   sync.Mutex
		cum     int64
		offsets []int64 // end offset of frame seq i+1 (appends are serialized)
	)
	opts := Options{
		Policy: PolicyAlways,
		OnAppend: func(n int) {
			offMu.Lock()
			cum += int64(n)
			offsets = append(offsets, cum)
			offMu.Unlock()
		},
		FS: faultFS(func(f *os.File) error {
			fi, err := f.Stat()
			if err != nil {
				return err
			}
			if err := f.Sync(); err != nil {
				return err
			}
			fsyncs.Add(1)
			// Everything written before the flush began is durable now.
			for {
				cur := durable.Load()
				if fi.Size() <= cur || durable.CompareAndSwap(cur, fi.Size()) {
					break
				}
			}
			return nil
		}),
	}
	l, _ := openTemp(t, opts)

	const perG = 20
	var wg sync.WaitGroup
	for g := 0; g < appenders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				rec := Record{Op: OpRun, Cycles: g<<16 | i}
				if err := appendSync(l, &rec); err != nil {
					t.Errorf("append: %v", err)
					return
				}
				offMu.Lock()
				end := offsets[rec.Seq-1]
				offMu.Unlock()
				if got := durable.Load(); got < end {
					t.Errorf("seq %d acked with %d durable bytes, frame ends at %d", rec.Seq, got, end)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := fsyncs.Load(); got < 1 || got > appenders*perG {
		t.Fatalf("%d fsyncs for %d appends, want one each at most", got, appenders*perG)
	}
}

// TestWALFsyncFailure: a failed fsync fails the sync that issued it and
// every append and sync waiting behind it, and latches permanently — later
// appends, syncs and resets report the same error instead of being
// silently acknowledged.
func TestWALFsyncFailure(t *testing.T) {
	boom := errors.New("disk gone")
	var calls atomic.Int64
	opts := Options{
		Policy: PolicyAlways,
		FS: faultFS(func(f *os.File) error {
			if calls.Add(1) >= 2 {
				return boom
			}
			return f.Sync()
		}),
	}
	l, _ := openTemp(t, opts)

	var acked, failed atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < appenders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if err := appendSync(l, &Record{Op: OpRun, Cycles: i}); err != nil {
					if !errors.Is(err, boom) {
						t.Errorf("append failed with %v, want the injected fsync error", err)
					}
					failed.Add(1)
					return
				}
				acked.Add(1)
			}
		}()
	}
	wg.Wait()
	// Only the first fsync succeeds; it covers every frame written before
	// it, one at most per appender.
	if acked.Load() < 1 || acked.Load() > appenders || failed.Load() != appenders {
		t.Fatalf("%d appends acked and %d appenders failed, want 1 to %d and %d",
			acked.Load(), failed.Load(), appenders, appenders)
	}
	// The error is sticky: fresh appends and explicit syncs keep failing.
	if err := l.Append(&Record{Op: OpRun}); !errors.Is(err, boom) {
		t.Fatalf("append after latched failure: %v", err)
	}
	if err := l.Sync(); !errors.Is(err, boom) {
		t.Fatalf("sync after latched failure: %v", err)
	}
	if err := l.Reset(); !errors.Is(err, boom) {
		t.Fatalf("reset after latched failure: %v", err)
	}
	l.Close()
}

// TestWALKillMidAppends simulates pulling the plug while appenders are
// in flight: the fsync hook maintains a "disk image" (the bytes the file
// provably held when each successful flush was issued). Freezing the
// acked set and then the image at a random moment stands in for the
// crash; every append acknowledged before that instant must survive a
// recovery scan of the image — zero acked-record loss.
func TestWALKillMidAppends(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	var (
		imgMu sync.Mutex
		image []byte
	)
	opts := Options{Policy: PolicyAlways, FS: faultFS(func(f *os.File) error {
		data, rerr := os.ReadFile(path) // what the flush is about to make durable
		if err := f.Sync(); err != nil {
			return err
		}
		if rerr == nil {
			imgMu.Lock()
			if len(data) > len(image) {
				image = data
			}
			imgMu.Unlock()
		}
		return nil
	})}
	l, res, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 0 {
		t.Fatalf("fresh log not empty: %+v", res)
	}

	var (
		ackMu sync.Mutex
		acked []uint64
	)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < appenders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				rec := Record{Op: OpRun, Cycles: g<<16 | i}
				if err := appendSync(l, &rec); err != nil {
					return
				}
				ackMu.Lock()
				acked = append(acked, rec.Seq)
				ackMu.Unlock()
			}
		}(g)
	}
	// Let a meaningful number of appends flush before the "crash".
	deadline := time.Now().Add(5 * time.Second)
	for {
		ackMu.Lock()
		n := len(acked)
		ackMu.Unlock()
		if n >= 64 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	// Crash instant: freeze the acked set first, then the disk image.
	// Acks strictly follow durability, so everything in the first
	// snapshot is covered by the second.
	ackMu.Lock()
	ackedNow := append([]uint64(nil), acked...)
	ackMu.Unlock()
	imgMu.Lock()
	crash := append([]byte(nil), image...)
	imgMu.Unlock()
	close(stop)
	wg.Wait()
	l.Close()
	if len(ackedNow) == 0 {
		t.Fatal("no appends were acknowledged before the simulated crash")
	}

	crashPath := filepath.Join(t.TempDir(), "wal.log")
	if err := os.WriteFile(crashPath, crash, 0o644); err != nil {
		t.Fatal(err)
	}
	scanRes, err := ScanFile(crashPath)
	if err != nil {
		t.Fatal(err)
	}
	have := make(map[uint64]bool, len(scanRes.Records))
	for _, r := range scanRes.Records {
		have[r.Seq] = true
	}
	for _, seq := range ackedNow {
		if !have[seq] {
			t.Fatalf("seq %d was acknowledged before the crash but is missing from the disk image (%d acked, %d recovered)",
				seq, len(ackedNow), len(scanRes.Records))
		}
	}
	// The image also recovers cleanly as a live log.
	l2, res2, err := Open(crashPath, Options{})
	if err != nil {
		t.Fatalf("crash image does not recover: %v", err)
	}
	defer l2.Close()
	if len(res2.Records) != len(scanRes.Records) {
		t.Fatalf("recovery saw %d records, scan saw %d", len(res2.Records), len(scanRes.Records))
	}
}

// TestWALFlushesLedger: under PolicyAlways an acknowledged append has its
// Merkle ledger entry durable too — the log flushes the ledger right
// after the fsync that covered the frame, before Sync returns.
func TestWALFlushesLedger(t *testing.T) {
	dir := t.TempDir()
	ledPath := filepath.Join(dir, "merkle.log")
	led, err := OpenLedger(ledPath)
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

	const perG = 4
	var wg sync.WaitGroup
	for g := 0; g < appenders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				rec := Record{Op: OpRun, Cycles: i}
				if err := appendSync(l, &rec); err != nil {
					t.Errorf("append: %v", err)
					return
				}
				// Entries are written in seq order, so the file holds this
				// append's entry once its last entry reaches rec.Seq.
				info, err := InspectLedger(ledPath)
				if err != nil {
					t.Errorf("inspect: %v", err)
					return
				}
				if n := len(info.Entries); n == 0 || info.Entries[n-1].Seq < rec.Seq {
					t.Errorf("seq %d acked before its ledger entry was written (%d entries)", rec.Seq, n)
					return
				}
			}
		}()
	}
	wg.Wait()
	info, err := InspectLedger(ledPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Entries) != appenders*perG {
		t.Fatalf("durable ledger entries = %d, want %d", len(info.Entries), appenders*perG)
	}
}

// TestSyncFailureLatches is the regression test for silent fsync-error
// swallowing: the sync that fails reports the error, and so does every
// append and sync after it. (The store's flusher, which makes the syncs
// under PolicyInterval, is tested in internal/store.)
func TestSyncFailureLatches(t *testing.T) {
	boom := errors.New("disk gone")
	l, _ := openTemp(t, Options{Policy: PolicyAlways, FS: faultFS(func(*os.File) error { return boom })})
	if err := appendSync(l, &Record{Op: OpRun}); !errors.Is(err, boom) {
		t.Fatalf("append and sync with failing fsync: %v", err)
	}
	if err := l.Append(&Record{Op: OpRun}); !errors.Is(err, boom) {
		t.Fatalf("append after latched failure: %v", err)
	}
	if err := l.Sync(); !errors.Is(err, boom) {
		t.Fatalf("sync after latched failure: %v", err)
	}
	l.Close()
}
