package wal

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"parulel/internal/wm"
)

func openTemp(t *testing.T, opts Options) (*Log, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "wal.log")
	l, res, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 0 || res.TruncatedBytes != 0 {
		t.Fatalf("fresh log not empty: %+v", res)
	}
	t.Cleanup(func() { l.Close() })
	return l, path
}

func sampleRecords() []Record {
	return []Record{
		{Op: OpCreate, Program: "quickstart", Source: "(literalize a x)", Workers: 4, Matcher: "rete", MaxCycles: 100},
		{Op: OpAssert, Facts: []Fact{
			{Template: "a", Fields: Fields{{"x", wm.Int(7)}}},
			{Template: "a", Fields: Fields{{"x", wm.Sym("hello")}}},
		}},
		{Op: OpRun, Cycles: 12, Halted: false},
		{Op: OpRetract, Template: "a", Fields: Fields{{"x", wm.Int(7)}}, Count: 1},
		{Op: OpImport, Text: "(wm (a ^x 3))"},
	}
}

func TestAppendReplayRoundTrip(t *testing.T) {
	l, path := openTemp(t, Options{Policy: PolicyAlways})
	want := sampleRecords()
	for i := range want {
		if err := l.Append(&want[i]); err != nil {
			t.Fatal(err)
		}
		if want[i].Seq != uint64(i+1) {
			t.Fatalf("record %d assigned seq %d", i, want[i].Seq)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, res, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if res.TruncatedBytes != 0 {
		t.Fatalf("clean log reported %d truncated bytes", res.TruncatedBytes)
	}
	if !reflect.DeepEqual(res.Records, want) {
		t.Fatalf("replay mismatch:\ngot  %+v\nwant %+v", res.Records, want)
	}
	// Sequence numbering continues where the scan left off.
	extra := Record{Op: OpRun, Cycles: 1}
	if err := l2.Append(&extra); err != nil {
		t.Fatal(err)
	}
	if extra.Seq != uint64(len(want)+1) {
		t.Fatalf("continued seq = %d, want %d", extra.Seq, len(want)+1)
	}
}

func TestTornTailTruncated(t *testing.T) {
	l, path := openTemp(t, Options{Policy: PolicyAlways})
	recs := sampleRecords()
	for i := range recs {
		if err := l.Append(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	cleanSize := info.Size()

	for name, mutate := range map[string]func([]byte) []byte{
		// A frame header with no payload behind it.
		"torn header": func(b []byte) []byte { return append(b, 0x40, 0, 0, 0, 1, 2, 3, 4) },
		// A plausible frame whose payload is cut short.
		"torn payload": func(b []byte) []byte {
			return append(b, 0x40, 0, 0, 0, 1, 2, 3, 4, 'p', 'a', 'r')
		},
		// A full frame whose checksum is wrong.
		"bad checksum": func(b []byte) []byte {
			return append(b, 4, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, '{', '}', ' ', ' ')
		},
		// Raw garbage.
		"garbage": func(b []byte) []byte { return append(b, []byte("not a frame at all")...) },
	} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		dirty := filepath.Join(t.TempDir(), "dirty.log")
		if err := os.WriteFile(dirty, mutate(append([]byte(nil), data...)), 0o644); err != nil {
			t.Fatal(err)
		}
		l2, res, err := Open(dirty, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Records) != len(recs) {
			t.Fatalf("%s: recovered %d records, want %d", name, len(res.Records), len(recs))
		}
		if res.TruncatedBytes == 0 {
			t.Fatalf("%s: no truncation reported", name)
		}
		// Opening leaves the tail in the file; the first append cuts it
		// back to the valid prefix, so the log is clean again.
		if info, err := os.Stat(dirty); err != nil || info.Size() != cleanSize+res.TruncatedBytes {
			t.Fatalf("%s: file size %d after open, want it unchanged at %d (err=%v)", name, info.Size(), cleanSize+res.TruncatedBytes, err)
		}
		if err := l2.Append(&Record{Op: OpRun, Cycles: 1}); err != nil {
			t.Fatalf("%s: append: %v", name, err)
		}
		l2.Close()
		_, res, err = Open(dirty, Options{})
		if err != nil || res.TruncatedBytes != 0 || len(res.Records) != len(recs)+1 {
			t.Fatalf("%s: after the append the log reads %d records, %d torn bytes (err=%v); want %d, none",
				name, len(res.Records), res.TruncatedBytes, err, len(recs)+1)
		}
	}
}

func TestCorruptionMidFileDropsSuffix(t *testing.T) {
	l, path := openTemp(t, Options{Policy: PolicyAlways})
	recs := sampleRecords()
	for i := range recs {
		if err := l.Append(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	// Flip a byte inside the second record's payload: records 2..n are
	// unreachable (scanning cannot resynchronize) and must be dropped.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[frameHeader+int(data[0])+frameHeader+4] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, res, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(res.Records) != 1 {
		t.Fatalf("recovered %d records, want 1", len(res.Records))
	}
	if res.TruncatedBytes == 0 {
		t.Fatal("no truncation reported")
	}
}

func TestResetKeepsSequence(t *testing.T) {
	l, path := openTemp(t, Options{Policy: PolicyAlways})
	r1 := Record{Op: OpRun, Cycles: 1}
	r2 := Record{Op: OpRun, Cycles: 2}
	if err := l.Append(&r1); err != nil {
		t.Fatal(err)
	}
	if err := l.Reset(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(&r2); err != nil {
		t.Fatal(err)
	}
	if r2.Seq != 2 {
		t.Fatalf("post-reset seq = %d, want 2", r2.Seq)
	}
	l.Close()
	_, res, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 1 || res.Records[0].Seq != 2 {
		t.Fatalf("post-reset replay: %+v", res.Records)
	}
}

// TestAdvanceSeqAfterReopen: a Reset (checkpoint) followed by a reopen
// loses the in-memory counter — the file is empty, so Open scans seq 0.
// AdvanceSeq restores the externally remembered sequence point so new
// appends sort strictly after it; advancing backwards is a no-op.
func TestAdvanceSeqAfterReopen(t *testing.T) {
	l, path := openTemp(t, Options{Policy: PolicyAlways})
	for i := 0; i < 3; i++ {
		if err := l.Append(&Record{Op: OpRun, Cycles: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Reset(); err != nil {
		t.Fatal(err)
	}
	l.Close()

	l2, res, err := Open(path, Options{Policy: PolicyAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(res.Records) != 0 || l2.Seq() != 0 {
		t.Fatalf("reopened emptied log: records=%d seq=%d", len(res.Records), l2.Seq())
	}
	l2.AdvanceSeq(3)
	l2.AdvanceSeq(1) // backwards is a no-op
	if got := l2.Seq(); got != 3 {
		t.Fatalf("advanced seq = %d, want 3", got)
	}
	rec := Record{Op: OpRun, Cycles: 9}
	if err := l2.Append(&rec); err != nil {
		t.Fatal(err)
	}
	if rec.Seq != 4 {
		t.Fatalf("post-advance append seq = %d, want 4", rec.Seq)
	}
}

func TestValueCodecExact(t *testing.T) {
	vals := []wm.Value{
		wm.Nil(), wm.Int(0), wm.Int(-9_223_372_036_854_775_808), wm.Int(42),
		wm.Float(0), wm.Float(0.1), wm.Float(math.Pi), wm.Float(math.Inf(1)),
		wm.Float(math.Inf(-1)), wm.Float(math.SmallestNonzeroFloat64),
		wm.Sym("x"), wm.Sym("a b c"), wm.Str(""), wm.Str("line\nbreak"),
	}
	roundTrip := func(v wm.Value) (wm.Value, error) {
		rec := Record{Seq: 1, Op: OpRetract, Template: "a", Fields: Fields{{"x", v}}}
		back, err := decodePayload(rec.AppendJSON(nil))
		if err != nil || len(back.Fields) != 1 {
			return wm.Value{}, fmt.Errorf("decoded %+v, %v", back, err)
		}
		return back.Fields[0].Value, nil
	}
	for _, v := range vals {
		back, err := roundTrip(v)
		if err != nil {
			t.Fatalf("decode %v: %v", v, err)
		}
		if back != v {
			t.Errorf("round trip %#v -> %#v", v, back)
		}
	}
	// NaN != NaN under ==; compare bit patterns.
	nan := wm.Float(math.NaN())
	back, err := roundTrip(nan)
	if err != nil || back.Kind != wm.KindFloat || math.Float64bits(back.F) != math.Float64bits(nan.F) {
		t.Errorf("NaN round trip failed: %#v, %v", back, err)
	}
	if _, err := decodePayload([]byte(`{"seq":1,"op":"retract","fields":{"x":{"k":"bogus"}}}`)); err == nil {
		t.Error("unknown kind should fail to decode")
	}
}

// TestFsyncPoliciesAndCallbacks: a log ignores the policy (the store
// decides when to sync): under each one an append issues no fsync, a Sync
// of a dirty log one, of a clean log none, and Close flushes only a dirty
// log. The callbacks see every appended byte and every fsync.
func TestFsyncPoliciesAndCallbacks(t *testing.T) {
	for _, p := range []Policy{PolicyAlways, PolicyInterval, PolicyNever} {
		var appended, syncs int
		l, _ := openTemp(t, Options{Policy: p,
			OnAppend: func(n int) { appended += n },
			OnFsync:  func(time.Duration) { syncs++ }})
		step := func(what string, do func() error, want int) {
			t.Helper()
			if err := do(); err != nil {
				t.Fatalf("%v: %s: %v", p, what, err)
			}
			if syncs != want {
				t.Fatalf("%v: after %s, %d fsyncs, want %d", p, what, syncs, want)
			}
		}
		step("append", func() error { return l.Append(&Record{Op: OpRun, Cycles: 1}) }, 0)
		step("sync", l.Sync, 1)
		step("a second sync", l.Sync, 1)
		step("append", func() error { return l.Append(&Record{Op: OpRun, Cycles: 2}) }, 1)
		step("close", l.Close, 2)
		step("a second close", l.Close, 2)
		if appended == 0 {
			t.Fatalf("%v: OnAppend saw nothing", p)
		}
	}
}

func TestAppendKeepSeqPreservesNumbering(t *testing.T) {
	l, path := openTemp(t, Options{Policy: PolicyAlways})
	// A replica receives records numbered by the primary, with gaps where
	// the primary checkpointed.
	for _, seq := range []uint64{3, 4, 9} {
		rec := Record{Op: OpRun, Cycles: int(seq), Seq: seq}
		if err := l.AppendKeepSeq(&rec); err != nil {
			t.Fatal(err)
		}
	}
	// Stale and duplicate sequence numbers are rejected, not written.
	for _, seq := range []uint64{9, 2} {
		if err := l.AppendKeepSeq(&Record{Op: OpRun, Seq: seq}); err == nil {
			t.Fatalf("seq %d after 9 should be rejected", seq)
		}
	}
	// Local numbering continues after the preserved sequence point.
	rec := Record{Op: OpRun}
	if err := l.Append(&rec); err != nil {
		t.Fatal(err)
	}
	if rec.Seq != 10 {
		t.Fatalf("append after keep-seq assigned %d, want 10", rec.Seq)
	}
	l.Close()
	_, res, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := make([]uint64, 0, len(res.Records))
	for _, r := range res.Records {
		got = append(got, r.Seq)
	}
	if !reflect.DeepEqual(got, []uint64{3, 4, 9, 10}) {
		t.Fatalf("replayed seqs = %v", got)
	}
}

func TestScanFileLeavesLogUntouched(t *testing.T) {
	l, path := openTemp(t, Options{Policy: PolicyAlways})
	want := sampleRecords()
	for i := range want {
		if err := l.Append(&want[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Scan while the log is still open for appending.
	res, err := ScanFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Records, want) {
		t.Fatalf("scan mismatch:\ngot  %+v\nwant %+v", res.Records, want)
	}
	// The open log keeps working after the read-only scan.
	extra := Record{Op: OpRun, Cycles: 99}
	if err := l.Append(&extra); err != nil {
		t.Fatal(err)
	}
	// A missing file is an empty log, not an error.
	res, err = ScanFile(filepath.Join(t.TempDir(), "absent.log"))
	if err != nil || len(res.Records) != 0 {
		t.Fatalf("missing file: res=%+v err=%v", res, err)
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	l, _ := openTemp(t, Options{})
	l.Close()
	rec := Record{Op: OpRun}
	if err := l.Append(&rec); err == nil {
		t.Fatal("append after close should fail")
	}
}
