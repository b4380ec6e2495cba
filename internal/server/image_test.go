package server

// Coverage for the state images a session hands out: the `(wm …)`
// snapshot served at GET /snapshot and the checkpoint that carries it
// together with the Merkle ledger's commit.

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"parulel/internal/checkpoint"
	"parulel/internal/wal"
	"parulel/internal/wm"
)

const itemSrc = `(literalize item k state)`

// postBody sends one raw JSON body and fails the test unless it answers
// 200.
func postBody(t *testing.T, url, body string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST %s: status %d: %s", url, resp.StatusCode, b)
	}
}

func assertItem(t *testing.T, url string, k int, state string) {
	t.Helper()
	postBody(t, url+"/facts", fmt.Sprintf(`{"facts":[{"template":"item","fields":{"k":%d,"state":%q}}]}`, k, state))
}

func durabilityMetrics(t *testing.T, base string) durabilityPayload {
	t.Helper()
	var m metricsPayload
	if st := call(t, "GET", base+"/metrics", nil, &m); st != http.StatusOK || m.Durability == nil {
		t.Fatalf("metrics: status %d", st)
	}
	return *m.Durability
}

// TestSnapshotRefusesSymbolWithoutLiteral: a JSON string becomes a
// symbol, so a client can store one with no literal form ("a b"). The
// snapshot export must refuse it with a status naming the fact, not
// answer 200 with the image cut off before that fact.
func TestSnapshotRefusesSymbolWithoutLiteral(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	info := createSession(t, ts.URL, createSessionRequest{Source: itemSrc})
	url := ts.URL + "/api/v1/sessions/" + info.ID
	assertItem(t, url, 1, "ok")
	assertItem(t, url, 2, "a b")

	resp, err := http.Get(url + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("snapshot with an unwritable symbol: status %d, body %q", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), `WME 2 attribute state: symbol \"a b\"`) {
		t.Fatalf("error does not name the fact: %s", body)
	}

	if st := call(t, "POST", url+"/retract", retractRequest{
		Template: "item", Fields: map[string]jsonValue{"k": {V: wm.Int(2)}},
	}, nil); st != http.StatusOK {
		t.Fatalf("retract: status %d", st)
	}
	if got, want := exportSnapshot(t, url), "(wm\n  (item ^k 1 ^state ok)\n)\n"; got != want {
		t.Fatalf("snapshot after the retract %q, want %q", got, want)
	}
}

// TestFailedCheckpointWaitsAnotherInterval: a state that cannot be
// checkpointed is tried again only after another CheckpointEvery
// records, not on every append, and every failure is still counted.
func TestFailedCheckpointWaitsAnotherInterval(t *testing.T) {
	_, ts := newTestServer(t, Config{DataDir: t.TempDir(), Fsync: wal.PolicyNever, CheckpointEvery: 4})
	info := createSession(t, ts.URL, createSessionRequest{Source: itemSrc})
	url := ts.URL + "/api/v1/sessions/" + info.ID
	assertItem(t, url, 0, "a b")
	for k := 1; k < 19; k++ {
		assertItem(t, url, k, "ok")
	}
	// One attempt per four asserts, each failing on the symbol.
	if m := durabilityMetrics(t, ts.URL); m.CheckpointErrors != 4 || m.Checkpoints != 0 {
		t.Fatalf("after 19 asserts: %d checkpoint errors and %d checkpoints, want 4 and 0",
			m.CheckpointErrors, m.Checkpoints)
	}

	// Once the symbol is gone, the next due checkpoint (at the retract,
	// the fourth record since the last attempt) succeeds.
	if st := call(t, "POST", url+"/retract", retractRequest{
		Template: "item", Fields: map[string]jsonValue{"k": {V: wm.Int(0)}},
	}, nil); st != http.StatusOK {
		t.Fatalf("retract: status %d", st)
	}
	for k := 19; k < 22; k++ {
		assertItem(t, url, k, "ok")
	}
	if m := durabilityMetrics(t, ts.URL); m.CheckpointErrors != 4 || m.Checkpoints != 1 {
		t.Fatalf("after the retract: %d checkpoint errors and %d checkpoints, want 4 and 1",
			m.CheckpointErrors, m.Checkpoints)
	}
}

// TestCheckpointCommitsMatchLedger: every checkpoint a live session
// writes commits the root that range recursion over the ledger file's
// leaves computes, peaks that resume to that root, and the previous
// commit as its predecessor — across a crash and the rehydration that
// reconciles the ledger and continues its frontier.
func TestCheckpointCommitsMatchLedger(t *testing.T) {
	cfg := Config{DataDir: t.TempDir(), Fsync: wal.PolicyNever, CheckpointEvery: 3}
	ts := startCrashable(t, cfg)
	info := createSession(t, ts.URL, createSessionRequest{Source: itemSrc})
	dir := filepath.Join(cfg.DataDir, "sessions", info.ID)

	var prev *checkpoint.LedgerCommit
	commits := 0
	check := func() {
		t.Helper()
		f, err := os.Open(filepath.Join(dir, checkpointFile))
		if os.IsNotExist(err) {
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		h, _, err := checkpoint.Read(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		c := h.Ledger
		if c == nil {
			t.Fatal("checkpoint carries no ledger commit")
		}
		if prev != nil && c.Count == prev.Count {
			return // no checkpoint since the last look
		}
		ledger, err := wal.InspectLedger(filepath.Join(dir, ledgerFile))
		if err != nil {
			t.Fatal(err)
		}
		root, err := ledger.RootAt(c.Count)
		if err != nil {
			t.Fatal(err)
		}
		if c.Root != root {
			t.Fatalf("checkpoint commits root %s over %d leaves, the ledger's leaves give %s", c.Root, c.Count, root)
		}
		resumed, err := wal.OpenLedger(filepath.Join(t.TempDir(), ledgerFile))
		if err != nil {
			t.Fatal(err)
		}
		err = resumed.Reconcile(nil, c.Count, &wal.LedgerState{Count: c.Count, Root: c.Root, Peaks: c.Peaks})
		resumed.Close()
		if err != nil {
			t.Fatalf("the committed peaks do not resume to the committed root: %v", err)
		}
		if prev != nil && (c.PrevCount != prev.Count || c.PrevRoot != prev.Root) {
			t.Fatalf("commit chains to %d/%s, previous commit was %d/%s", c.PrevCount, c.PrevRoot, prev.Count, prev.Root)
		}
		prev = c
		commits++
	}
	url := ts.URL + "/api/v1/sessions/" + info.ID
	for k := 0; k < 20; k++ {
		assertItem(t, url, k, "ok")
		check()
	}
	ts.Close() // crash: the next server rehydrates from checkpoint and log

	_, ts2 := newTestServer(t, cfg)
	url = ts2.URL + "/api/v1/sessions/" + info.ID
	for k := 20; k < 40; k++ {
		assertItem(t, url, k, "ok")
		check()
	}
	if commits < 10 {
		t.Fatalf("%d checkpoints seen, want at least 10", commits)
	}
}
