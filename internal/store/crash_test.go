package store_test

// The crash matrix: seeded store-level op lists run on a memFS, and at
// every mutating filesystem operation the disk a crash would leave there
// is recovered and checked — once as everything completed so far, once as
// only what was synced. The crash model is that of Pillai et al., "All
// File Systems Are Not Created Equal" (OSDI 2014): a file holds what it
// held at its last fsync, and a create, rename or remove survives only if
// its directory was synced after it.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"parulel/internal/audit"
	"parulel/internal/checkpoint"
	"parulel/internal/store"
	"parulel/internal/wal"
	"parulel/internal/wm"
)

const dataDir = "/data"

// runner runs store operations the way the server does and books what
// was acknowledged, so a crash image can be held to it.
type runner struct {
	st    *store.Store
	opts  wal.Options
	every int // checkpoint interval, in records

	live    map[string]*store.Session
	hist    map[string]map[uint64][]byte // every record appended (acked or not): seq → payload
	acked   map[string][]uint64          // acknowledged records
	created map[string]bool              // acknowledged creates
	deleted map[string]bool              // acknowledged deletes
	drop    map[string]bool              // deletes begun
	synced  map[string]bool              // replicas whose barrier was acknowledged
	pending uint64                       // the seq whose append is in flight
}

func newRunner(fsys *memFS, policy wal.Policy, every int) *runner {
	d := &runner{every: every,
		opts: wal.Options{Policy: policy, Interval: time.Hour, FS: fsys},
		live: map[string]*store.Session{}, hist: map[string]map[uint64][]byte{},
		acked: map[string][]uint64{}, created: map[string]bool{}, deleted: map[string]bool{},
		drop: map[string]bool{}, synced: map[string]bool{}}
	return d
}

func (d *runner) boot() error {
	st, _, err := store.Open(dataDir, d.opts, true)
	d.st = st
	return err
}

// note books rec, about to be appended to id as seq, in the history.
func (d *runner) note(id string, seq uint64, rec *wal.Record) {
	if d.hist[id] == nil {
		d.hist[id] = map[uint64][]byte{}
	}
	rec.Seq = seq
	d.hist[id][seq] = rec.AppendJSON(nil)
}

var createRec = wal.Record{Op: wal.OpCreate, Program: "crash", Source: "(literalize item k n)", Matcher: "rete", CreatedNS: 1}

func (d *runner) create(id string) error {
	meta := createRec
	d.note(id, 1, &meta)
	d.pending = 1
	s, err := d.st.Create(id, meta)
	d.pending = 0
	if err != nil {
		return err
	}
	d.st.MarkKnown(id)
	d.live[id] = s
	d.created[id] = true
	d.acked[id] = append(d.acked[id], 1)
	return nil
}

// append is the server's persist without its fallback: log the record,
// and checkpoint when one is due. A failed checkpoint takes nothing back.
func (d *runner) append(id string, rec wal.Record) error {
	s := d.live[id]
	d.note(id, s.Seq()+1, &rec)
	d.pending = rec.Seq
	_, err := s.Append(&rec, false)
	d.pending = 0
	if err != nil {
		return err
	}
	d.acked[id] = append(d.acked[id], rec.Seq)
	if s.Due(d.every) {
		return d.checkpoint(s)
	}
	return nil
}

var emptyMemory = wm.NewMemory(wm.NewSchema())

func (d *runner) checkpoint(s *store.Session) error {
	h := checkpoint.HeaderFor(s.Meta())
	h.Seq = s.Seq()
	return s.Checkpoint(func(w io.Writer, commit *checkpoint.LedgerCommit) error {
		h.Ledger = commit
		return checkpoint.Write(w, h, emptyMemory)
	})
}

func (d *runner) evict(id string) error {
	err := d.live[id].Close()
	delete(d.live, id)
	return err
}

func (d *runner) reopen(id string) error {
	s, _, err := d.st.Load(id)
	if err == nil {
		d.live[id] = s
	}
	return err
}

func (d *runner) remove(id string) error {
	if s := d.live[id]; s != nil {
		s.Discard()
		delete(d.live, id)
	}
	d.drop[id] = true
	if err := d.st.Remove(id); err != nil {
		return err
	}
	d.deleted[id] = true
	return nil
}

// A replica receives its primary's records under the primary's numbers.
func (d *runner) replicaOpen(id string) error {
	s, err := d.st.OpenReplica(id)
	if err == nil {
		d.live[id] = s
	}
	return err
}

func (d *runner) replicaAppend(id string, seq uint64, rec wal.Record) error {
	d.note(id, seq, &rec)
	_, err := d.live[id].Append(&rec, true)
	return err
}

// replicaCheckpoint installs the image its primary wrote at seq.
func (d *runner) replicaCheckpoint(id string, seq uint64) error {
	h := checkpoint.HeaderFor(&createRec)
	h.Seq = seq
	var image bytes.Buffer
	if err := checkpoint.Write(&image, h, emptyMemory); err != nil {
		return err
	}
	return d.live[id].Checkpoint(func(w io.Writer, _ *checkpoint.LedgerCommit) error {
		_, err := w.Write(image.Bytes())
		return err
	})
}

// replicaSync is the barrier: once it returns, every record the replica
// holds is acknowledged.
func (d *runner) replicaSync(id string) error {
	s := d.live[id]
	if err := s.Sync(); err != nil {
		return err
	}
	d.synced[id] = true
	d.acked[id] = d.acked[id][:0]
	for seq := range d.hist[id] {
		if seq <= s.Seq() {
			d.acked[id] = append(d.acked[id], seq)
		}
	}
	return nil
}

func (d *runner) promote(id string) error {
	if err := d.live[id].Close(); err != nil {
		return err
	}
	delete(d.live, id)
	if err := d.st.Promote(id); err != nil {
		return err
	}
	d.created[id] = true
	return nil
}

// ---- op lists ----

func fact(r *rand.Rand) wal.Fact {
	return wal.Fact{Template: "item", Fields: wal.Fields{
		{Name: "k", Value: wm.Int(r.Int63n(50))},
		{Name: "n", Value: wm.Sym(fmt.Sprintf("v%d", r.Intn(9)))},
	}}
}

// mutation is one seeded assert, batch, run, retract or import record.
func mutation(r *rand.Rand) wal.Record {
	switch r.Intn(10) {
	case 0, 1, 2, 3:
		facts := make([]wal.Fact, 1+r.Intn(4))
		for i := range facts {
			facts[i] = fact(r)
		}
		return wal.Record{Op: wal.OpAssert, Facts: facts}
	case 4, 5:
		return wal.Record{Op: wal.OpBatch, Ops: []wal.Record{
			{Op: wal.OpAssert, Facts: []wal.Fact{fact(r)}},
			{Op: wal.OpRetract, Template: "item", Fields: fact(r).Fields[:1], Count: r.Intn(2)},
			{Op: wal.OpRun, Cycles: 1 + r.Intn(3)},
		}}
	case 6, 7:
		return wal.Record{Op: wal.OpRun, Cycles: 1 + r.Intn(5), Halted: r.Intn(7) == 0}
	case 8:
		return wal.Record{Op: wal.OpRetract, Template: "item", Fields: fact(r).Fields[:1], Count: r.Intn(3)}
	default:
		return wal.Record{Op: wal.OpImport, Text: fmt.Sprintf("(wm (item ^k %d ^n v1))", r.Intn(50)), Count: 1}
	}
}

// step is one runner operation; a list of them is an op list.
type step struct {
	name string
	run  func(*runner) error
}

// ingestList is one session taking n seeded mutations, checkpointing
// every few records.
func ingestList(seed int64, n int) []step {
	r := rand.New(rand.NewSource(seed))
	steps := []step{{"boot", (*runner).boot}, {"create s1", func(d *runner) error { return d.create("s1") }}}
	for i := 0; i < n; i++ {
		rec := mutation(r)
		steps = append(steps, step{"append " + rec.Op, func(d *runner) error { return d.append("s1", rec) }})
	}
	return steps
}

// churnList creates, touches, evicts, rehydrates and deletes sessions,
// and runs a replica through open, append, checkpoint, barrier and
// promotion.
func churnList(seed int64) []step {
	r := rand.New(rand.NewSource(seed))
	steps := []step{{"boot", (*runner).boot}, {"replicas", func(d *runner) error { return d.st.EnableReplicas() }}}
	add := func(name string, run func(*runner) error) { steps = append(steps, step{name, run}) }
	touch := func(id string) {
		rec := mutation(r)
		add("touch "+id, func(d *runner) error { return d.append(id, rec) })
	}
	for _, id := range []string{"s1", "s2", "s3", "s4"} {
		add("create "+id, func(d *runner) error { return d.create(id) })
		touch(id)
	}
	for round := 0; round < 3; round++ {
		id := fmt.Sprintf("s%d", 1+r.Intn(3))
		add("evict "+id, func(d *runner) error { return d.evict(id) })
		add("reopen "+id, func(d *runner) error { return d.reopen(id) })
		touch(id)
		touch(id)
	}
	add("delete s4", func(d *runner) error { return d.remove("s4") })
	// The replica's primary numbers its records from 1, create first.
	seq := uint64(0)
	rappend := func(rec wal.Record) {
		seq++
		s := seq
		add("replica append", func(d *runner) error { return d.replicaAppend("r1", s, rec) })
	}
	add("replica open", func(d *runner) error { return d.replicaOpen("r1") })
	rappend(createRec)
	for i := 0; i < 3; i++ {
		rappend(mutation(r))
	}
	add("replica sync", func(d *runner) error { return d.replicaSync("r1") })
	ck := seq
	add("replica checkpoint", func(d *runner) error { return d.replicaCheckpoint("r1", ck) })
	for i := 0; i < 2; i++ {
		rappend(mutation(r))
	}
	add("replica sync", func(d *runner) error { return d.replicaSync("r1") })
	add("promote r1", func(d *runner) error { return d.promote("r1") })
	add("reopen r1", func(d *runner) error { return d.reopen("r1") })
	touch("r1")
	add("delete s2", func(d *runner) error { return d.remove("s2") })
	return steps
}

// run executes an op list, stopping at the first failure, which it
// returns with the failing step's index.
func (d *runner) run(steps []step) (int, error) {
	for i, s := range steps {
		if err := s.run(d); err != nil {
			return i, fmt.Errorf("%s: %w", s.name, err)
		}
	}
	return len(steps), nil
}

// ---- checking a crash image ----

// checkAlways holds a crash image to PolicyAlways' promise: it recovers
// through the store, every acknowledged record is there (folded into the
// checkpoint or in the tail byte for byte), nothing appears that was never
// appended, every ledger reconciles, and an audit finds no error.
func (d *runner) checkAlways(img *memFS) error {
	st, _, err := store.Open(dataDir, wal.Options{Policy: wal.PolicyAlways, FS: img}, true)
	if err != nil {
		return fmt.Errorf("store does not open: %v", err)
	}
	dirs, _, _ := store.SessionDirs(img, dataDir)
	repls, _ := img.ReadDir(filepath.Join(dataDir, "replicas"))
	for _, e := range repls {
		dirs = append(dirs, filepath.Join(dataDir, "replicas", e.Name()))
	}
	for _, dir := range dirs {
		for _, f := range audit.VerifyImage(dir, store.ReadSession(img, dir)).Findings {
			if f.Level == audit.Error {
				return fmt.Errorf("audit of %s: %s: %s", dir, f.Code, f.Detail)
			}
		}
	}
	for id := range d.hist {
		if d.deleted[id] {
			if st.Has(id) {
				return fmt.Errorf("deleted session %s came back", id)
			}
			continue
		}
		if d.synced[id] && !d.created[id] {
			// Until its promotion is acknowledged the replica's records
			// are in replicas/, or in sessions/ once the rename landed.
			rimg := store.ReadSession(img, filepath.Join(dataDir, "replicas", id))
			if rimg.Header == nil && len(rimg.Records) == 0 && st.Has(id) {
				rimg = store.ReadSession(img, filepath.Join(dataDir, "sessions", id))
			}
			if err := d.holds(id, rimg); err != nil {
				return fmt.Errorf("replica %s: %v", id, err)
			}
			continue
		}
		if !st.Has(id) {
			if d.created[id] && !d.drop[id] {
				return fmt.Errorf("acknowledged session %s is gone", id)
			}
			continue
		}
		s, rimg, err := st.Load(id)
		if err != nil {
			return fmt.Errorf("session %s does not recover: %v", id, err)
		}
		s.Close()
		if err := d.holds(id, rimg); err != nil {
			return fmt.Errorf("session %s: %v", id, err)
		}
	}
	return nil
}

// holds checks a recovered image against id's history.
func (d *runner) holds(id string, img *store.Image) error {
	tail := map[uint64][]byte{}
	for _, rec := range img.Tail() {
		b := rec.AppendJSON(nil)
		if want, ok := d.hist[id][rec.Seq]; !ok || !bytes.Equal(b, want) {
			return fmt.Errorf("record %d was never appended: %s", rec.Seq, b)
		}
		tail[rec.Seq] = b
	}
	for _, seq := range d.acked[id] {
		if seq > img.Seq() && tail[seq] == nil {
			return fmt.Errorf("acknowledged record %d is lost (checkpoint at %d, %d in the tail)", seq, img.Seq(), len(tail))
		}
	}
	return nil
}

// checkInterval holds a crash image to PolicyInterval's promise: it
// recovers, and each session's history is a prefix of what was appended.
func (d *runner) checkInterval(img *memFS) error {
	st, _, err := store.Open(dataDir, wal.Options{Policy: wal.PolicyInterval, Interval: time.Hour, FS: img}, true)
	if err != nil {
		return fmt.Errorf("store does not open: %v", err)
	}
	for id := range d.hist {
		if !st.Has(id) {
			continue
		}
		if raw := store.ReadSession(img, filepath.Join(dataDir, "sessions", id)); raw.Header == nil && len(raw.Records) == 0 {
			continue // nothing of the session reached the disk
		}
		s, rimg, err := st.Load(id)
		if err != nil {
			return fmt.Errorf("session %s does not recover: %v", id, err)
		}
		s.Close()
		if _, ok := d.hist[id][rimg.Seq()]; rimg.Seq() > 0 && !ok {
			return fmt.Errorf("session %s: checkpoint at %d, past every append", id, rimg.Seq())
		}
		for i, rec := range rimg.Tail() {
			if want := rimg.Seq() + uint64(i) + 1; rec.Seq != want || !bytes.Equal(rec.AppendJSON(nil), d.hist[id][want]) {
				return fmt.Errorf("session %s: record %d is not the one appended as %d", id, rec.Seq, want)
			}
		}
	}
	return nil
}

// ---- the matrix ----

// crashEvery runs steps once under policy, and before every mutating FS
// operation recovers and checks both crash images of the disk so far. It
// returns the number of operations.
func crashEvery(t *testing.T, steps []step, policy wal.Policy, every int) int {
	fsys := newMemFS(dataDir)
	d := newRunner(fsys, policy, every)
	check := d.checkAlways
	if policy != wal.PolicyAlways {
		check = d.checkInterval
	}
	failures := 0
	fsys.hook = func(o op) error {
		if o.k%stride != 0 {
			return nil
		}
		for _, durableOnly := range []bool{true, false} {
			if err := check(fsys.image(durableOnly)); err != nil && failures < 5 {
				failures++
				t.Errorf("crash before op %d (%s %s), durable-only=%v: %v", o.k, o.kind, o.path, durableOnly, err)
			}
		}
		return nil
	}
	if i, err := d.run(steps); err != nil {
		t.Fatalf("step %d: %v", i, err)
	}
	fsys.hook = nil
	for _, durableOnly := range []bool{true, false} {
		if err := check(fsys.image(durableOnly)); err != nil {
			t.Errorf("crash after the last op, durable-only=%v: %v", durableOnly, err)
		}
	}
	for _, s := range d.live {
		s.Close()
	}
	return fsys.ops
}

const ingestSeed, churnSeed = 1, 2

// TestCrashMatrix crashes both op lists before every mutating FS
// operation, under PolicyAlways (acked ⇒ durable) and PolicyInterval
// (a prefix survives).
func TestCrashMatrix(t *testing.T) {
	for _, tc := range []struct {
		name   string
		steps  []step
		policy wal.Policy
		every  int
	}{
		{"ingest/always", ingestList(ingestSeed, 300), wal.PolicyAlways, 20},
		{"ingest/interval", ingestList(ingestSeed, 300), wal.PolicyInterval, 20},
		{"churn/always", churnList(churnSeed), wal.PolicyAlways, 3},
		{"churn/interval", churnList(churnSeed), wal.PolicyInterval, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := crashEvery(t, tc.steps, tc.policy, tc.every)
			t.Logf("%d crash boundaries, two images each", n)
		})
	}
}

// TestCrashBetweenCheckpointAndReset is the window a kill can hit in the
// audit smoke: the checkpoint is renamed into place but the log it covers
// is not yet emptied. A byte flipped in one of those covered frames reads
// as a torn tail: recovery drops the frame and loses nothing, and an audit
// reports at most that torn tail — it cannot tell such a frame from crash
// debris.
func TestCrashBetweenCheckpointAndReset(t *testing.T) {
	fsys := newMemFS(dataDir)
	d := newRunner(fsys, wal.PolicyAlways, 20)
	windows := 0
	fsys.hook = func(o op) error {
		if o.kind != "truncate" || filepath.Base(o.path) != store.WALFile {
			return nil
		}
		windows++
		img := fsys.image(true)
		dir := filepath.Join(dataDir, "sessions", "s1")
		walPath := filepath.Join(dir, store.WALFile)
		w := img.lookup(walPath)
		if len(w.data) == 0 {
			t.Fatalf("window %d: the log the checkpoint covers is empty", windows)
		}
		w.data[len(w.data)/2] ^= 0x40
		w.durable = w.data
		for _, f := range audit.VerifyImage(dir, store.ReadSession(img, dir)).Findings {
			if f.Code != audit.CodeWALTorn {
				t.Errorf("window %d: audit finds %s %s: %s", windows, f.Level, f.Code, f.Detail)
			}
		}
		st, _, err := store.Open(dataDir, wal.Options{Policy: wal.PolicyAlways, FS: img}, true)
		if err != nil {
			t.Fatal(err)
		}
		s, rimg, err := st.Load("s1")
		if err != nil {
			t.Fatalf("window %d: recovery fails: %v", windows, err)
		}
		s.Close()
		if rimg.TornBytes == 0 || len(rimg.Tail()) != 0 {
			t.Errorf("window %d: recovery kept the flipped frame (%d torn bytes, %d records past the checkpoint)",
				windows, rimg.TornBytes, len(rimg.Tail()))
		}
		if err := d.holds("s1", rimg); err != nil {
			t.Errorf("window %d: %v", windows, err)
		}
		return nil
	}
	if i, err := d.run(ingestList(ingestSeed, 100)); err != nil {
		t.Fatalf("step %d: %v", i, err)
	}
	d.live["s1"].Close()
	if windows == 0 {
		t.Fatal("no checkpoint reached its log reset")
	}
}

// TestFaultMatrix injects, at each write of the ingest list, a short
// write and ENOSPC, and at each sync EIO. The step that hit the fault is
// not acknowledged; a fault in the log or its ledger poisons the log, so
// the next append fails too; and the disk a crash right after leaves
// still meets PolicyAlways' promise.
func TestFaultMatrix(t *testing.T) {
	steps := ingestList(ingestSeed, 300)
	fsys := newMemFS(dataDir)
	var kinds []string
	fsys.hook = func(o op) error { kinds = append(kinds, o.kind); return nil }
	d := newRunner(fsys, wal.PolicyAlways, 20)
	if _, err := d.run(steps); err != nil {
		t.Fatal(err)
	}
	fsys.hook = nil
	d.live["s1"].Close()

	faults, failures := 0, 0
	for k, kind := range kinds {
		if k%stride != 0 {
			continue
		}
		var injects []error
		switch kind {
		case "write":
			injects = []error{shortWrite{syscall.EIO}, syscall.ENOSPC}
		case "sync", "syncdir":
			injects = []error{syscall.EIO}
		}
		for _, inject := range injects {
			faults++
			if err := faultAt(t, steps, k+1, inject); err != nil && failures < 5 {
				failures++
				t.Errorf("%v at op %d (%s): %v", inject, k+1, kind, err)
			}
		}
	}
	t.Logf("%d faults injected over %d operations", faults, len(kinds))
}

// faultAt runs steps with inject failing the k-th operation, then checks
// the three promises.
func faultAt(t *testing.T, steps []step, k int, inject error) error {
	fsys := newMemFS(dataDir)
	d := newRunner(fsys, wal.PolicyAlways, 20)
	var (
		hit    op
		hitSeq uint64
	)
	fsys.hook = func(o op) error {
		if o.k != k {
			return nil
		}
		hit, hitSeq = o, d.pending
		return inject
	}
	defer func() {
		for _, s := range d.live {
			s.Discard()
		}
	}()
	if _, err := d.run(steps); !errors.Is(err, syscall.EIO) && !errors.Is(err, syscall.ENOSPC) {
		return fmt.Errorf("the step that hit the fault returned %v", err)
	}
	for _, seq := range d.acked["s1"] {
		if hitSeq != 0 && seq == hitSeq {
			return fmt.Errorf("the faulted append of seq %d was acknowledged", seq)
		}
	}
	if base := filepath.Base(hit.path); (base == store.WALFile || base == store.LedgerFile) && d.live["s1"] != nil {
		if _, err := d.live["s1"].Append(&wal.Record{Op: wal.OpRun, Cycles: 1}, false); err == nil {
			return errors.New("the log took an append after the fault")
		}
	}
	fsys.hook = nil
	for _, durableOnly := range []bool{true, false} {
		if err := d.checkAlways(fsys.image(durableOnly)); err != nil {
			return fmt.Errorf("crash after the fault, durable-only=%v: %v", durableOnly, err)
		}
	}
	return nil
}
