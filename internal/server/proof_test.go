package server

// Coverage for the tamper-evidence surface at the server level: the
// inclusion-proof endpoint, one fsync per WAL record under the always
// policy, and recovery-time rejection of a WAL spliced in from another
// session.

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"parulel/internal/wal"
	"parulel/internal/wm"
)

func fetchProof(t *testing.T, url, seq string) (int, wal.Proof, string) {
	t.Helper()
	resp, err := http.Get(url + "/proof?seq=" + seq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var p wal.Proof
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, &p); err != nil {
			t.Fatalf("proof body does not decode: %v: %s", err, body)
		}
	}
	return resp.StatusCode, p, string(body)
}

// TestProofEndpoint: proofs round-trip through the HTTP surface and
// verify offline; the root survives checkpoints and a crash-restart
// (the ledger spans checkpoints by design).
func TestProofEndpoint(t *testing.T) {
	cfg := Config{DataDir: t.TempDir(), Fsync: wal.PolicyAlways, CheckpointEvery: 4}
	ts := startCrashable(t, cfg)
	info := createSession(t, ts.URL, createSessionRequest{Source: recoverySrc})
	url := ts.URL + "/api/v1/sessions/" + info.ID
	driveSession(t, url) // several appends; CheckpointEvery 4 forces checkpoints

	st, p, body := fetchProof(t, url, "1")
	if st != http.StatusOK {
		t.Fatalf("proof seq 1: status %d: %s", st, body)
	}
	if p.Session != info.ID || p.Seq != 1 {
		t.Fatalf("proof identity: %+v", p)
	}
	if err := wal.VerifyProof(&p); err != nil {
		t.Fatalf("served proof does not verify: %v", err)
	}

	if st, _, _ := fetchProof(t, url, "99999"); st != http.StatusNotFound {
		t.Fatalf("unknown seq: status %d, want 404", st)
	}
	for _, bad := range []string{"", "0", "x", "-3"} {
		if st, _, _ := fetchProof(t, url, bad); st != http.StatusBadRequest {
			t.Fatalf("seq %q: status %d, want 400", bad, st)
		}
	}

	// Crash and restart over the same data dir: the recovered ledger
	// serves the same proof — same leaf, same root — because the ledger
	// records the session's whole history, checkpoints included.
	ts.Close()
	_, ts2 := newTestServer(t, cfg)
	url2 := ts2.URL + "/api/v1/sessions/" + info.ID
	st2, p2, body2 := fetchProof(t, url2, "1")
	if st2 != http.StatusOK {
		t.Fatalf("proof after recovery: status %d: %s", st2, body2)
	}
	if err := wal.VerifyProof(&p2); err != nil {
		t.Fatalf("recovered proof does not verify: %v", err)
	}
	if p2.Leaf != p.Leaf || p2.Root != p.Root || p2.Count != p.Count {
		t.Fatalf("recovery changed the attested history:\n before %+v\n after  %+v", p, p2)
	}
}

// TestProofCoversDurableEntriesOnly: under the interval policy a record
// whose frame has not been fsynced yet has no proof (404), and once the
// log has synced the same request answers 200 with a proof that verifies.
func TestProofCoversDurableEntriesOnly(t *testing.T) {
	s, ts := newTestServer(t, Config{DataDir: t.TempDir(), Fsync: wal.PolicyInterval,
		FsyncInterval: time.Hour, CheckpointEvery: 1 << 20})
	info := createSession(t, ts.URL, createSessionRequest{Source: recoverySrc})
	url := ts.URL + "/api/v1/sessions/" + info.ID
	assertTasks(t, url, 0, 1) // seq 2
	for _, seq := range []string{"1", "2"} {
		if st, _, body := fetchProof(t, url, seq); st != http.StatusNotFound {
			t.Fatalf("seq %s before the log synced: status %d, want 404: %s", seq, st, body)
		}
	}
	sess, err := s.sessionByID(context.Background(), info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.dur.Sync(); err != nil {
		t.Fatal(err)
	}
	for _, seq := range []string{"1", "2"} {
		st, p, body := fetchProof(t, url, seq)
		if st != http.StatusOK {
			t.Fatalf("seq %s after the log synced: status %d: %s", seq, st, body)
		}
		if err := wal.VerifyProof(&p); err != nil {
			t.Fatalf("seq %s: served proof does not verify: %v", seq, err)
		}
		if p.Count != 2 {
			t.Fatalf("seq %s: proof over %d leaves, want 2", seq, p.Count)
		}
	}
}

func TestProofEndpointUnavailable(t *testing.T) {
	// Memory-only server: nothing to attest.
	_, ts := newTestServer(t, Config{})
	info := createSession(t, ts.URL, createSessionRequest{Source: boundedSrc})
	if st, _, body := fetchProof(t, ts.URL+"/api/v1/sessions/"+info.ID, "1"); st != http.StatusConflict {
		t.Fatalf("memory-only proof: status %d: %s", st, body)
	}

	// Durable but with the merkle ledger switched off.
	_, ts2 := newTestServer(t, Config{DataDir: t.TempDir(), DisableMerkle: true})
	info2 := createSession(t, ts2.URL, createSessionRequest{Source: boundedSrc})
	st, _, body := fetchProof(t, ts2.URL+"/api/v1/sessions/"+info2.ID, "1")
	if st != http.StatusConflict || !strings.Contains(body, "merkle") {
		t.Fatalf("merkle-disabled proof: status %d: %s", st, body)
	}
}

// TestSpliceRejectedAtRecovery: substituting one durable session's WAL
// into another session's directory — valid frames, valid CRCs, right
// sequence numbers, wrong history — must fail recovery, not serve the
// foreign state.
func TestSpliceRejectedAtRecovery(t *testing.T) {
	dataDir := t.TempDir()
	cfg := Config{DataDir: dataDir, Fsync: wal.PolicyAlways, CheckpointEvery: 1 << 20}

	ts := startCrashable(t, cfg)
	a := createSession(t, ts.URL, createSessionRequest{Source: recoverySrc})
	b := createSession(t, ts.URL, createSessionRequest{Source: recoverySrc})
	driveSession(t, ts.URL+"/api/v1/sessions/"+a.ID)
	// Session b runs the same script over different facts, so its frames
	// are valid but hash differently.
	urlB := ts.URL + "/api/v1/sessions/" + b.ID
	assertTasks(t, urlB, 10, 16)
	runSession(t, urlB)
	ts.Close() // crash

	// The splice: b's WAL into a's directory.
	src := filepath.Join(dataDir, "sessions", b.ID, "wal.log")
	dst := filepath.Join(dataDir, "sessions", a.ID, "wal.log")
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, ts2 := newTestServer(t, cfg)
	resp, err := http.Get(ts2.URL + "/api/v1/sessions/" + a.ID)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("spliced session served: status %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "recovery failed") || !strings.Contains(string(body), "merkle") {
		t.Fatalf("splice rejection reason not surfaced: %s", body)
	}
	// Session b itself still recovers fine.
	getInfo(t, ts2.URL+"/api/v1/sessions/"+b.ID)
}

// TestSessionAppendsEachPayOneFsync: a session's log never has two
// appends in flight, so under the always policy every WAL record pays its
// own fsync — the premise that leaves nothing for a group commit to
// coalesce. Concurrent writers mix asserts, batches and retracts on one
// session while an async run logs its job markers; the fsync count must
// rise exactly as much as the record count.
func TestSessionAppendsEachPayOneFsync(t *testing.T) {
	s, ts := newTestServer(t, Config{DataDir: t.TempDir(), Fsync: wal.PolicyAlways, CheckpointEvery: 1 << 20})
	info := createSession(t, ts.URL, createSessionRequest{Source: recoverySrc})
	url := ts.URL + "/api/v1/sessions/" + info.ID
	task := func(n int) factPayload {
		return factPayload{Template: "task", Fields: map[string]jsonValue{
			"n": {V: wm.Int(int64(n))}, "state": {V: wm.Sym("new")},
		}}
	}
	before := s.metrics.snapshot().Durability

	const writers, rounds = 8, 4
	var acked atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				n := 1000*w + 10*r
				for _, req := range []struct {
					path string
					body any
				}{
					{"/facts", assertRequest{Facts: []factPayload{task(n)}}},
					{"/batch", batchRequest{Ops: []batchOp{{Op: "assert", Facts: []factPayload{task(n + 1), task(n + 2)}}, {Op: "run"}}}},
					{"/retract", retractRequest{Template: "task", Fields: map[string]jsonValue{"n": {V: wm.Int(int64(n + 1))}}}},
				} {
					st, err := tryCall("POST", url+req.path, req.body)
					if err != nil || st != http.StatusOK {
						t.Errorf("writer %d %s: status %d, err %v", w, req.path, st, err)
						return
					}
					acked.Add(1)
				}
			}
		}(w)
	}
	var j jobInfo
	if st := call(t, "POST", url+"/run?async=1", runRequest{}, &j); st != http.StatusAccepted {
		t.Fatalf("async run: status %d", st)
	}
	pollJob(t, url+"/jobs/"+j.ID, func(v jobInfo) bool { return v.Status == jobDone })
	wg.Wait()

	after := s.metrics.snapshot().Durability
	records, fsyncs := after.WALRecords-before.WALRecords, after.Fsyncs-before.Fsyncs
	if min := uint64(acked.Load()); records < min {
		t.Fatalf("%d WAL records for %d acked writes", records, min)
	}
	if fsyncs != records {
		t.Fatalf("%d fsyncs for %d WAL records: appends to one session's log overlapped and shared a flush", fsyncs, records)
	}
}
