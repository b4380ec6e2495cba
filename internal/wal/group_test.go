package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestGroupCommitAckImpliesDurable is the group-commit contract under
// -race: when AppendSynced returns nil, the bytes of that record were
// already covered by a completed fsync. The fsync hook records how many
// bytes the file held when each flush was issued; an acked append whose
// frame lies beyond that watermark would be an ack racing ahead of its
// flush.
func TestGroupCommitAckImpliesDurable(t *testing.T) {
	var durable atomic.Int64 // bytes proven on stable storage
	var fsyncs atomic.Int64
	var (
		offMu   sync.Mutex
		cum     int64
		offsets []int64 // end offset of frame seq i+1 (appends are serialized)
	)
	opts := Options{
		Policy: PolicyGroup,
		OnAppend: func(n int) {
			offMu.Lock()
			cum += int64(n)
			offsets = append(offsets, cum)
			offMu.Unlock()
		},
		FsyncFn: func(f *os.File) error {
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
		},
	}
	l, _ := openTemp(t, opts)

	const goroutines, perG = 8, 20
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				rec := Record{Op: OpRun, Cycles: g<<16 | i}
				if _, err := l.AppendSynced(&rec); err != nil {
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
	if fsyncs.Load() == 0 {
		t.Fatal("no fsyncs issued")
	}
}

// TestGroupCommitCoalesces: concurrent appenders share flushes — far
// fewer fsyncs than appends, with the cohort accounting covering every
// append exactly once.
func TestGroupCommitCoalesces(t *testing.T) {
	var fsyncs, cohortSum atomic.Int64
	opts := Options{
		Policy:        PolicyGroup,
		GroupWait:     2 * time.Millisecond,
		OnGroupCommit: func(cohort int) { cohortSum.Add(int64(cohort)) },
		FsyncFn: func(f *os.File) error {
			fsyncs.Add(1)
			time.Sleep(time.Millisecond) // let the next cohort build
			return f.Sync()
		},
	}
	l, _ := openTemp(t, opts)

	const goroutines, perG = 16, 4
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if err := l.Append(&Record{Op: OpRun, Cycles: i}); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	total := int64(goroutines * perG)
	if got := cohortSum.Load(); got != total {
		t.Fatalf("cohorts accounted for %d appends, want %d", got, total)
	}
	if got := fsyncs.Load(); got >= total {
		t.Fatalf("%d fsyncs for %d appends — no coalescing happened", got, total)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestGroupCommitFsyncFailure: a failed group flush must fail every
// waiter it stranded and latch permanently — later appends report the
// same error instead of being silently acknowledged.
func TestGroupCommitFsyncFailure(t *testing.T) {
	boom := errors.New("disk gone")
	var calls atomic.Int64
	opts := Options{
		Policy: PolicyGroup,
		FsyncFn: func(f *os.File) error {
			if calls.Add(1) >= 2 {
				return boom
			}
			return f.Sync()
		},
	}
	l, _ := openTemp(t, opts)

	var acked, failed atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if err := l.Append(&Record{Op: OpRun, Cycles: i}); err != nil {
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
	if failed.Load() == 0 {
		t.Fatal("no appender observed the fsync failure")
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

// TestGroupCommitKillMidCohort simulates pulling the plug mid-flush: the
// fsync hook maintains a "disk image" (the bytes the file provably held
// when each successful flush was issued). Freezing the acked set and then
// the image at a random moment stands in for the crash; every append
// acknowledged before that instant must survive a recovery scan of the
// image — zero acked-record loss.
func TestGroupCommitKillMidCohort(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	var (
		imgMu sync.Mutex
		image []byte
	)
	opts := Options{Policy: PolicyGroup, FsyncFn: func(f *os.File) error {
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
	}}
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
	for g := 0; g < 8; g++ {
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
				if err := l.Append(&rec); err != nil {
					return
				}
				ackMu.Lock()
				acked = append(acked, rec.Seq)
				ackMu.Unlock()
			}
		}(g)
	}
	// Let a meaningful number of cohorts flush before the "crash".
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

// TestGroupCommitFlushesLedger: under PolicyGroup an acknowledged append
// has its Merkle ledger entry durable too — the flush daemon commits the
// ledger up to the synced horizon before waking the cohort.
func TestGroupCommitFlushesLedger(t *testing.T) {
	dir := t.TempDir()
	led, err := OpenLedger(filepath.Join(dir, "merkle.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer led.Close()
	l, _, err := Open(filepath.Join(dir, "wal.log"), Options{Policy: PolicyGroup})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.SetLedger(led)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if err := l.Append(&Record{Op: OpRun, Cycles: i}); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	info, err := InspectLedger(filepath.Join(dir, "merkle.log"))
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Entries) != 32 {
		t.Fatalf("durable ledger entries = %d, want 32", len(info.Entries))
	}
}

// TestIntervalFsyncFailureLatches is the regression test for silent
// fsync-error swallowing: a background flush that fails must poison the
// log so the next append reports it, rather than the failure vanishing
// into a discarded error value.
func TestIntervalFsyncFailureLatches(t *testing.T) {
	boom := errors.New("disk gone")
	flushed := make(chan struct{}, 1)
	opts := Options{
		Policy:   PolicyInterval,
		Interval: time.Millisecond,
		OnFsync: func(time.Duration) {
			select {
			case flushed <- struct{}{}:
			default:
			}
		},
		FsyncFn: func(*os.File) error { return boom },
	}
	l, _ := openTemp(t, opts)
	// The first append is acknowledged optimistically (interval policy).
	if err := l.Append(&Record{Op: OpRun}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-flushed:
	case <-time.After(5 * time.Second):
		t.Fatal("background flusher never ran")
	}
	if err := l.Append(&Record{Op: OpRun}); !errors.Is(err, boom) {
		t.Fatalf("append after failed background fsync: %v, want the fsync error", err)
	}
	if err := l.Sync(); !errors.Is(err, boom) {
		t.Fatalf("sync after failed background fsync: %v", err)
	}
	l.Close()

	// PolicyAlways latches too: the failing append reports the error and
	// so does every append after it.
	l2, _ := openTemp(t, Options{Policy: PolicyAlways, FsyncFn: func(*os.File) error { return boom }})
	if err := l2.Append(&Record{Op: OpRun}); !errors.Is(err, boom) {
		t.Fatalf("always-policy append with failing fsync: %v", err)
	}
	if err := l2.Append(&Record{Op: OpRun}); !errors.Is(err, boom) {
		t.Fatalf("append after latched always-policy failure: %v", err)
	}
	l2.Close()
}

// BenchmarkSharedLogAppend is the comparison docs/SERVER.md's group-commit
// section rests on: goroutines appending to one log under fsync=always and
// fsync=group, one op an acknowledged append. always pays a flush per
// append whatever the concurrency; group coalesces the appenders parked at
// one moment into a cohort flush, so appends/fsync grows with their number.
func BenchmarkSharedLogAppend(b *testing.B) {
	for _, pol := range []Policy{PolicyAlways, PolicyGroup} {
		for _, appenders := range []int{1, 8} {
			b.Run(fmt.Sprintf("%s/appenders=%d", pol, appenders), func(b *testing.B) {
				var fsyncs atomic.Int64
				l, _, err := Open(filepath.Join(b.TempDir(), "wal.log"), Options{
					Policy:  pol,
					OnFsync: func(time.Duration) { fsyncs.Add(1) },
				})
				if err != nil {
					b.Fatal(err)
				}
				defer l.Close()
				b.ResetTimer()
				var wg sync.WaitGroup
				for g := 0; g < appenders; g++ {
					n := b.N / appenders
					if g < b.N%appenders {
						n++
					}
					wg.Add(1)
					go func(g, n int) {
						defer wg.Done()
						for i := 0; i < n; i++ {
							if err := l.Append(&Record{Op: OpRun, Cycles: g<<20 | i}); err != nil {
								b.Error(err)
								return
							}
						}
					}(g, n)
				}
				wg.Wait()
				b.StopTimer()
				b.ReportMetric(float64(b.N)/float64(fsyncs.Load()), "appends/fsync")
			})
		}
	}
}
