package store_test

// The store's flusher, driven by hand: Flush is what each tick of it runs
// under PolicyInterval, so these tests need no ticker and no sleep.

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"syscall"
	"testing"
	"time"

	"parulel/internal/store"
	"parulel/internal/wal"
)

// openInterval opens a store on fsys under PolicyInterval whose own
// flusher never ticks during a test.
func openInterval(t *testing.T, fsys *memFS, onFsync func(time.Duration)) *store.Store {
	t.Helper()
	st, _, err := store.Open(dataDir, wal.Options{Policy: wal.PolicyInterval, Interval: time.Hour, FS: fsys, OnFsync: onFsync}, true)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func mustCreate(t *testing.T, st *store.Store, id string) *store.Session {
	t.Helper()
	s, err := st.Create(id, createRec)
	if err != nil {
		t.Fatalf("create %s: %v", id, err)
	}
	st.MarkKnown(id)
	t.Cleanup(func() { s.Discard() })
	return s
}

// failing makes every op of kind on a path whose last element is base
// fail with EIO.
func failing(kind, base string) func(op) error {
	return func(o op) error {
		if o.kind == kind && filepath.Base(o.path) == base {
			return syscall.EIO
		}
		return nil
	}
}

// TestStoreFlushLogFailureLatches: EIO on a log's fsync during Flush
// poisons that session's log, so its next Append and Sync report the
// error instead of acknowledging writes that may never reach the disk;
// other sessions go on.
func TestStoreFlushLogFailureLatches(t *testing.T) {
	fsys := newMemFS(dataDir)
	st := openInterval(t, fsys, nil)
	s1, s2 := mustCreate(t, st, "s1"), mustCreate(t, st, "s2")
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Append(&wal.Record{Op: wal.OpRun, Cycles: 1}, false); err != nil {
		t.Fatal(err)
	}
	fsys.hook = failing("sync", store.WALFile)
	if err := st.Flush(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("flush with a failing log fsync: %v, want EIO", err)
	}
	fsys.hook = nil
	if _, err := s1.Append(&wal.Record{Op: wal.OpRun, Cycles: 2}, false); !errors.Is(err, syscall.EIO) {
		t.Fatalf("append after the failed flush: %v, want EIO", err)
	}
	if err := s1.Sync(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("sync after the failed flush: %v, want EIO", err)
	}
	if _, err := s2.Append(&wal.Record{Op: wal.OpRun, Cycles: 1}, false); err != nil {
		t.Fatalf("a clean session's append after another's failure: %v", err)
	}
}

// TestStoreFlushDirFailureLatches: EIO on the sessions/ fsync during Flush
// latches in the store: the next Create and Remove report it, since the
// entries they change could not be made durable.
func TestStoreFlushDirFailureLatches(t *testing.T) {
	fsys := newMemFS(dataDir)
	st := openInterval(t, fsys, nil)
	mustCreate(t, st, "s1")
	fsys.hook = failing("syncdir", "sessions")
	if err := st.Flush(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("flush with a failing sessions/ fsync: %v, want EIO", err)
	}
	fsys.hook = nil
	if _, err := st.Create("s2", createRec); !errors.Is(err, syscall.EIO) {
		t.Fatalf("create after the failed flush: %v, want EIO", err)
	}
	if err := st.Remove("s1"); !errors.Is(err, syscall.EIO) {
		t.Fatalf("remove after the failed flush: %v, want EIO", err)
	}
}

// TestRemoveFailureKeepsSession: when RemoveAll fails the session is
// still there, so the store still knows it, and a retry removes it.
func TestRemoveFailureKeepsSession(t *testing.T) {
	fsys := newMemFS(dataDir)
	st, _, err := store.Open(dataDir, wal.Options{Policy: wal.PolicyAlways, FS: fsys}, true)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	mustCreate(t, st, "s1").Close()
	dir := filepath.Join(dataDir, "sessions", "s1")
	fsys.hook = failing("remove", "s1")
	if err := st.Remove("s1"); !errors.Is(err, syscall.EIO) {
		t.Fatalf("remove with a failing RemoveAll: %v, want EIO", err)
	}
	fsys.hook = nil
	if !st.Has("s1") || fsys.lookup(dir) == nil {
		t.Fatalf("after a failed remove: Has(s1)=%v, directory there=%v; want both", st.Has("s1"), fsys.lookup(dir) != nil)
	}
	if err := st.Remove("s1"); err != nil {
		t.Fatalf("retried remove: %v", err)
	}
	if st.Has("s1") || fsys.lookup(dir) != nil {
		t.Fatalf("after the retry: Has(s1)=%v, directory there=%v; want neither", st.Has("s1"), fsys.lookup(dir) != nil)
	}
}

// TestStoreFlushFsyncsDirtyLogsOnly: a Flush issues one fsync per dirty
// log, a replica's included, and none for a clean one.
func TestStoreFlushFsyncsDirtyLogsOnly(t *testing.T) {
	var fsyncs int
	st := openInterval(t, newMemFS(dataDir), func(time.Duration) { fsyncs++ })
	if err := st.EnableReplicas(); err != nil {
		t.Fatal(err)
	}
	var sessions []*store.Session
	for _, id := range []string{"s1", "s2", "s3"} {
		sessions = append(sessions, mustCreate(t, st, id))
	}
	r, err := st.OpenReplica("r1")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Discard()
	flush := func(what string, want int) {
		t.Helper()
		fsyncs = 0
		if err := st.Flush(); err != nil {
			t.Fatal(err)
		}
		if fsyncs != want {
			t.Fatalf("flush %s: %d fsyncs, want %d", what, fsyncs, want)
		}
	}
	flush("after three creates and an empty replica", 3)
	flush("with nothing appended", 0)
	if _, err := sessions[1].Append(&wal.Record{Op: wal.OpRun, Cycles: 1}, false); err != nil {
		t.Fatal(err)
	}
	rec := createRec
	rec.Seq = 1
	if _, err := r.Append(&rec, true); err != nil {
		t.Fatal(err)
	}
	flush("after an append to s2 and to the replica", 2)
	sessions[2].Close()
	flush("after closing a clean session", 0)
}

// TestStoreFlushConcurrent runs creates, appends, evictions, reloads,
// removes, a replica's barrier and its promotion while a goroutine calls
// Flush in a loop; then one more Flush, and the disk of only what was
// synced holds every session whose create returned, with every record,
// and none that was removed. CI runs it ten times under -race.
func TestStoreFlushConcurrent(t *testing.T) {
	fsys := newMemFS(dataDir)
	st := openInterval(t, fsys, nil)
	if err := st.EnableReplicas(); err != nil {
		t.Fatal(err)
	}
	stop, flushed := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(flushed)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := st.Flush(); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	var (
		mu      sync.Mutex
		want    = map[string]uint64{} // live sessions: the seq of their last record
		removed = map[string]bool{}
		open    []*store.Session
		wg      sync.WaitGroup
	)
	run := func(id string, s *store.Session, n int) error {
		for k := 0; k < n; k++ {
			if _, err := s.Append(&wal.Record{Op: wal.OpRun, Cycles: k + 1}, false); err != nil {
				return fmt.Errorf("%s: append: %w", id, err)
			}
		}
		return nil
	}
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				id := fmt.Sprintf("s%d-%d", w, i)
				s, err := st.Create(id, createRec)
				if err == nil {
					st.MarkKnown(id)
					err = run(id, s, 3)
				}
				switch i % 3 {
				case 0: // evicted, reloaded, touched
					if err == nil {
						err = s.Close()
					}
					if err == nil {
						s, _, err = st.Load(id)
					}
					if err == nil {
						err = run(id, s, 1)
					}
				case 1: // deleted
					if err == nil {
						s.Discard()
						err = st.Remove(id)
					}
				}
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				if i%3 == 1 {
					removed[id] = true
				} else {
					want[id], open = s.Seq(), append(open, s)
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Add(1)
	go func() { // a replica: records under its primary's numbers, barrier, promotion
		defer wg.Done()
		r, err := st.OpenReplica("r1")
		for seq := uint64(1); seq <= 4 && err == nil; seq++ {
			rec := wal.Record{Op: wal.OpRun, Cycles: int(seq)}
			if seq == 1 {
				rec = createRec
			}
			rec.Seq = seq
			_, err = r.Append(&rec, true)
		}
		if err == nil {
			err = r.Sync()
		}
		if err == nil {
			err = r.Close()
		}
		if err == nil {
			err = st.Promote("r1")
		}
		var s *store.Session
		if err == nil {
			s, _, err = st.Load("r1")
		}
		if err == nil {
			err = run("r1", s, 1)
		}
		if err != nil {
			t.Error(err)
			return
		}
		mu.Lock()
		want["r1"], open = s.Seq(), append(open, s)
		mu.Unlock()
	}()
	wg.Wait()
	close(stop)
	<-flushed
	defer func() {
		for _, s := range open {
			s.Close()
		}
	}()
	if t.Failed() {
		return
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}

	img := fsys.image(durableOnly)
	rec, _, err := store.Open(dataDir, wal.Options{Policy: wal.PolicyAlways, FS: img}, true)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	for id := range removed {
		if rec.Has(id) {
			t.Errorf("removed session %s came back", id)
		}
	}
	if rec.Count() != len(want) {
		t.Errorf("%d sessions recovered, want %d", rec.Count(), len(want))
	}
	for id, seq := range want {
		s, _, err := rec.Load(id)
		if err != nil {
			t.Errorf("session %s does not recover: %v", id, err)
			continue
		}
		if s.Seq() != seq {
			t.Errorf("session %s recovers to seq %d, want %d", id, s.Seq(), seq)
		}
		s.Close()
	}
}

// TestStoreFlusherTicks: under PolicyInterval nothing but the store's own
// ticker syncs an append, and within a bounded wait the disk of only what
// was synced holds the session and its record.
func TestStoreFlusherTicks(t *testing.T) {
	fsys := newMemFS(dataDir)
	ticked := make(chan struct{}, 1)
	st, _, err := store.Open(dataDir, wal.Options{Policy: wal.PolicyInterval, Interval: 2 * time.Millisecond, FS: fsys,
		OnFsync: func(time.Duration) {
			select {
			case ticked <- struct{}{}:
			default:
			}
		}}, true)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s := mustCreate(t, st, "s1")
	if _, err := s.Append(&wal.Record{Op: wal.OpRun, Cycles: 1}, false); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ticked:
	case <-time.After(10 * time.Second):
		t.Fatal("no fsync from the flusher within 10s")
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		fsys.mu.Lock() // the flusher may be mid-Flush
		img := fsys.image(durableOnly)
		fsys.mu.Unlock()
		if n := len(store.ReadSession(img, filepath.Join(dataDir, "sessions", "s1")).Records); n == 2 {
			return
		} else if time.Now().After(deadline) {
			t.Fatalf("after 10s the durable disk holds %d of s1's 2 records", n)
		}
	}
}

// reopen opens the store on fsys under policy, closes it and opens it
// again, as two restarts do.
func reopen(t *testing.T, fsys *memFS, policy wal.Policy) *store.Store {
	t.Helper()
	opts := wal.Options{Policy: policy, Interval: time.Hour, FS: fsys}
	for i := 0; ; i++ {
		st, _, err := store.Open(dataDir, opts, true)
		if err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			t.Cleanup(func() { st.Close() })
			return st
		}
		st.Close()
	}
}

// TestBootKeepsDamagedSession: a session whose first frame was altered
// has no create record left to read, but its later frames and its ledger
// are the evidence an audit reports; two restarts leave the directory
// where it was, byte for byte, under every policy that could write it.
func TestBootKeepsDamagedSession(t *testing.T) {
	for _, policy := range []wal.Policy{wal.PolicyAlways, wal.PolicyInterval} {
		t.Run(policy.String(), func(t *testing.T) {
			fsys := newMemFS(dataDir)
			st, _, err := store.Open(dataDir, wal.Options{Policy: policy, Interval: time.Hour, FS: fsys}, true)
			if err != nil {
				t.Fatal(err)
			}
			s, err := st.Create("s1", createRec)
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i < 10; i++ {
				if _, err := s.Append(&wal.Record{Op: wal.OpRun, Cycles: i}, false); err != nil {
					t.Fatal(err)
				}
			}
			s.Close()
			st.Close()
			dir := filepath.Join(dataDir, "sessions", "s1")
			w := fsys.lookup(filepath.Join(dir, store.WALFile))
			w.data[12] ^= 0x20 // inside the create record's payload
			w.durable = append([]byte(nil), w.data...)
			before := fsys.image(completed)

			unchanged := func(when string) {
				t.Helper()
				for _, name := range []string{store.WALFile, store.LedgerFile} {
					was, is := before.lookup(filepath.Join(dir, name)), fsys.lookup(filepath.Join(dir, name))
					if is == nil || string(is.data) != string(was.data) {
						t.Fatalf("%s changed %s", name, when)
					}
				}
			}
			st = reopen(t, fsys, policy)
			if !st.Has("s1") || len(st.SetAside()) != 0 {
				t.Fatalf("after two restarts: Has(s1)=%v, set aside %v; want it counted", st.Has("s1"), st.SetAside())
			}
			unchanged("across two restarts")
			// A Load that refuses the session writes nothing either, however
			// often it is asked.
			for _, when := range []string{"after a refused Load", "after a second refused Load"} {
				if _, _, err := st.Load("s1"); err == nil {
					t.Fatal("a session with no readable create record loaded")
				}
				unchanged(when)
			}
		})
	}
}

// TestBootSetsAsideTracelessSession: under PolicyInterval a crash before
// the first Flush can leave a session's directory entries over files with
// no byte in them. Boot does not serve it, lists it, leaves it in place
// across restarts and still counts its id; under PolicyAlways, which
// cannot produce it, boot serves it as found.
func TestBootSetsAsideTracelessSession(t *testing.T) {
	fsys := newMemFS(dataDir)
	st := openInterval(t, fsys, nil)
	mustCreate(t, st, "s7")
	img := fsys.image(mixed) // the create's entries, none of its bytes

	st = reopen(t, img, wal.PolicyInterval)
	if st.Has("s7") || fmt.Sprint(st.SetAside()) != "[s7]" {
		t.Fatalf("Has(s7)=%v, set aside %v; want it set aside", st.Has("s7"), st.SetAside())
	}
	if _, err := img.ReadDir(filepath.Join(dataDir, "sessions", "s7")); err != nil {
		t.Fatalf("the set-aside directory is gone: %v", err)
	}
	_, maxID, err := store.Open(dataDir, wal.Options{Policy: wal.PolicyNever, FS: img}, true)
	if err != nil || maxID != 7 {
		t.Fatalf("max id %d, %v; want 7", maxID, err)
	}
	if st := reopen(t, img, wal.PolicyAlways); !st.Has("s7") || len(st.SetAside()) != 0 {
		t.Fatalf("under always: Has(s7)=%v, set aside %v", st.Has("s7"), st.SetAside())
	}
}
