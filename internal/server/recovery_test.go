package server

// Crash-recovery and rehydration coverage for the durability subsystem:
// kill-and-restart over the same data directory, transparent rehydration
// after LRU eviction, checkpoint-based recovery, torn-tail tolerance,
// and replay of every mutation kind (assert, retract, run, import).

import (
	"context"
	"encoding/json"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"parulel/internal/checkpoint"
	"parulel/internal/compile"
	"parulel/internal/core"
	"parulel/internal/match/treat"
	"parulel/internal/snapshot"
	"parulel/internal/store"
	"parulel/internal/wal"
	"parulel/internal/wm"
)

// recoverySrc claims tasks with a gensym id — the recovered working
// memory is byte-identical only if replay reproduces the original time
// tags exactly, since gensym values are derived from them.
const recoverySrc = `
(literalize task n state id)
(literalize log n note)
(rule claim
  <t> <- (task ^n <n> ^state new)
-->
  (bind <g>)
  (modify <t> ^state claimed ^id <g>)
  (make log ^n <n> ^note claimed))
`

// startCrashable starts a server that the test will "crash": closing only
// the httptest listener abandons the session pool without the drain path
// that flushes and closes logs, like a process kill.
func startCrashable(t *testing.T, cfg Config) *httptest.Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return httptest.NewServer(s)
}

func assertTasks(t *testing.T, url string, from, to int) {
	t.Helper()
	var req assertRequest
	for i := from; i < to; i++ {
		req.Facts = append(req.Facts, factPayload{Template: "task", Fields: map[string]jsonValue{
			"n":     {V: wm.Int(int64(i))},
			"state": {V: wm.Sym("new")},
		}})
	}
	if st := call(t, "POST", url+"/facts", req, nil); st != http.StatusOK {
		t.Fatalf("assert: status %d", st)
	}
}

func runSession(t *testing.T, url string) runResponse {
	t.Helper()
	var resp runResponse
	if st := call(t, "POST", url+"/run", runRequest{}, &resp); st != http.StatusOK {
		t.Fatalf("run: status %d", st)
	}
	return resp
}

func exportSnapshot(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot export: status %d: %s", resp.StatusCode, body)
	}
	return string(body)
}

// driveSession applies the canonical mutation script: used both for the
// session that gets killed and for the uninterrupted control.
func driveSession(t *testing.T, url string) {
	t.Helper()
	assertTasks(t, url, 0, 4)
	runSession(t, url)
	if st := call(t, "POST", url+"/retract", retractRequest{
		Template: "task",
		Fields:   map[string]jsonValue{"n": {V: wm.Int(2)}},
	}, nil); st != http.StatusOK {
		t.Fatalf("retract: status %d", st)
	}
	assertTasks(t, url, 4, 6)
	runSession(t, url)
}

func getInfo(t *testing.T, url string) sessionInfo {
	t.Helper()
	var info sessionInfo
	if st := call(t, "GET", url, nil, &info); st != http.StatusOK {
		t.Fatalf("get session: status %d", st)
	}
	return info
}

// TestRecoveryAfterRestart is the acceptance check: a session's working
// memory, cycle count and firing count survive a kill-and-restart over
// the same data directory byte-identically, and the recovered session
// continues exactly like an uninterrupted control.
func TestRecoveryAfterRestart(t *testing.T) {
	cfg := Config{DataDir: t.TempDir(), Fsync: wal.PolicyAlways}

	tsA := startCrashable(t, cfg)
	info := createSession(t, tsA.URL, createSessionRequest{Source: recoverySrc})
	if !info.Durable {
		t.Fatal("session not marked durable")
	}
	urlA := tsA.URL + "/api/v1/sessions/" + info.ID
	driveSession(t, urlA)
	wantSnap := exportSnapshot(t, urlA)
	wantInfo := getInfo(t, urlA)
	tsA.Close() // crash: no drain, no log close, no checkpoint

	sB, tsB := newTestServer(t, cfg)
	urlB := tsB.URL + "/api/v1/sessions/" + info.ID
	gotInfo := getInfo(t, urlB) // transparently rehydrates
	if gotInfo.Cycles != wantInfo.Cycles || gotInfo.Firings != wantInfo.Firings ||
		gotInfo.Redactions != wantInfo.Redactions || gotInfo.Runs != wantInfo.Runs ||
		gotInfo.WMSize != wantInfo.WMSize {
		t.Fatalf("recovered counters differ:\n got %+v\nwant %+v", gotInfo, wantInfo)
	}
	if gotSnap := exportSnapshot(t, urlB); gotSnap != wantSnap {
		t.Fatalf("recovered snapshot differs:\n-- got --\n%s\n-- want --\n%s", gotSnap, wantSnap)
	}

	// The recovered session must evolve exactly like a control session
	// that ran the same script without interruption.
	control := createSession(t, tsB.URL, createSessionRequest{Source: recoverySrc})
	controlURL := tsB.URL + "/api/v1/sessions/" + control.ID
	driveSession(t, controlURL)
	for _, u := range []string{urlB, controlURL} {
		assertTasks(t, u, 6, 8)
		runSession(t, u)
	}
	if a, b := exportSnapshot(t, urlB), exportSnapshot(t, controlURL); a != b {
		t.Fatalf("post-recovery evolution diverged from control:\n-- recovered --\n%s\n-- control --\n%s", a, b)
	}

	var m metricsPayload
	if st := call(t, "GET", tsB.URL+"/metrics", nil, &m); st != http.StatusOK {
		t.Fatalf("metrics: status %d", st)
	}
	if m.Durability == nil {
		t.Fatal("durability metrics missing")
	}
	if m.Durability.FoundOnBoot == 0 || m.Durability.Rehydrated == 0 || m.Sessions.Recovered == 0 {
		t.Fatalf("recovery not reflected in metrics: %+v", *m.Durability)
	}
	_ = sB
}

// TestRecoveryAfterTimedOutRun: a run killed mid-flight by its deadline
// commits a prefix of cycles; the logged cycle delta must replay to the
// identical intermediate state.
func TestRecoveryAfterTimedOutRun(t *testing.T) {
	cfg := Config{DataDir: t.TempDir(), Fsync: wal.PolicyAlways}
	tsA := startCrashable(t, cfg)
	info := createSession(t, tsA.URL, createSessionRequest{Source: spinnerSrc})
	urlA := tsA.URL + "/api/v1/sessions/" + info.ID

	var timedOut struct {
		Result runResponse `json:"result"`
	}
	if st := call(t, "POST", urlA+"/run", runRequest{TimeoutMS: 150}, &timedOut); st != http.StatusGatewayTimeout {
		t.Fatalf("run: status %d, want 504", st)
	}
	if timedOut.Result.Cycles == 0 {
		t.Fatal("timed-out run committed no cycles; test is vacuous")
	}
	wantSnap := exportSnapshot(t, urlA)
	tsA.Close()

	_, tsB := newTestServer(t, cfg)
	urlB := tsB.URL + "/api/v1/sessions/" + info.ID
	if gotSnap := exportSnapshot(t, urlB); gotSnap != wantSnap {
		t.Fatalf("mid-run state not recovered:\n-- got --\n%s\n-- want --\n%s", gotSnap, wantSnap)
	}
}

// TestEvictionRehydratesTransparently: with durability on, an LRU-evicted
// session comes back from disk on its next request instead of 404/410.
func TestEvictionRehydratesTransparently(t *testing.T) {
	s, ts := newTestServer(t, Config{DataDir: t.TempDir(), MaxSessions: 1})
	first := createSession(t, ts.URL, createSessionRequest{Source: recoverySrc})
	firstURL := ts.URL + "/api/v1/sessions/" + first.ID
	driveSession(t, firstURL)
	wantSnap := exportSnapshot(t, firstURL)

	second := createSession(t, ts.URL, createSessionRequest{Source: boundedSrc}) // evicts first
	s.mu.Lock()
	_, firstLive := s.sessions[first.ID]
	s.mu.Unlock()
	if firstLive {
		t.Fatal("first session not evicted")
	}

	if gotSnap := exportSnapshot(t, firstURL); gotSnap != wantSnap {
		t.Fatalf("rehydrated snapshot differs:\n-- got --\n%s\n-- want --\n%s", gotSnap, wantSnap)
	}
	// And the second session is itself recoverable after being displaced.
	if run := runSession(t, ts.URL+"/api/v1/sessions/"+second.ID); run.Cycles == 0 {
		t.Fatal("second session did not run after rehydration")
	}

	var m metricsPayload
	if st := call(t, "GET", ts.URL+"/metrics", nil, &m); st != http.StatusOK {
		t.Fatalf("metrics: status %d", st)
	}
	if m.Sessions.Evicted == 0 || m.Sessions.Recovered == 0 {
		t.Fatalf("eviction/recovery not reflected in metrics: %+v", m.Sessions)
	}
}

// TestCheckpointRecovery: with CheckpointEvery=1 every mutation triggers a
// checkpoint and empties the log, so recovery runs almost entirely off
// the checkpoint image (counters, tags, refraction set).
func TestCheckpointRecovery(t *testing.T) {
	cfg := Config{DataDir: t.TempDir(), Fsync: wal.PolicyAlways, CheckpointEvery: 1}
	tsA := startCrashable(t, cfg)
	info := createSession(t, tsA.URL, createSessionRequest{Source: recoverySrc})
	urlA := tsA.URL + "/api/v1/sessions/" + info.ID
	driveSession(t, urlA)
	wantSnap := exportSnapshot(t, urlA)
	wantInfo := getInfo(t, urlA)

	dir := filepath.Join(cfg.DataDir, "sessions", info.ID)
	if _, err := os.Stat(filepath.Join(dir, "checkpoint")); err != nil {
		t.Fatalf("no checkpoint written: %v", err)
	}
	if fi, err := os.Stat(filepath.Join(dir, "wal.log")); err != nil || fi.Size() != 0 {
		t.Fatalf("log not emptied by checkpoint (size %d, err %v)", fi.Size(), err)
	}
	var m metricsPayload
	if st := call(t, "GET", tsA.URL+"/metrics", nil, &m); st != http.StatusOK || m.Durability == nil {
		t.Fatalf("metrics: status %d", st)
	}
	if m.Durability.Checkpoints == 0 || m.Durability.CheckpointErrors != 0 {
		t.Fatalf("checkpoints not reflected in metrics: %+v", *m.Durability)
	}
	tsA.Close()

	_, tsB := newTestServer(t, cfg)
	urlB := tsB.URL + "/api/v1/sessions/" + info.ID
	gotInfo := getInfo(t, urlB)
	if gotInfo.Cycles != wantInfo.Cycles || gotInfo.Firings != wantInfo.Firings || gotInfo.Runs != wantInfo.Runs {
		t.Fatalf("checkpoint recovery counters differ:\n got %+v\nwant %+v", gotInfo, wantInfo)
	}
	if gotSnap := exportSnapshot(t, urlB); gotSnap != wantSnap {
		t.Fatalf("checkpoint recovery snapshot differs:\n-- got --\n%s\n-- want --\n%s", gotSnap, wantSnap)
	}
	// A recovered-from-checkpoint session must still accept new work.
	assertTasks(t, urlB, 10, 12)
	if run := runSession(t, urlB); run.Firings == 0 {
		t.Fatal("recovered session fired nothing on new facts")
	}
}

// TestCheckpointRecoversEscapedString: a string fact holding a byte the
// snapshot writer escapes beyond `\n \t \" \\` (here a carriage return)
// is checkpointed, the data directory reopened, and the string served back.
// The checkpoint used to be unreadable: its writer quoted what its reader
// could not lex.
func TestCheckpointRecoversEscapedString(t *testing.T) {
	cfg := Config{DataDir: t.TempDir(), Fsync: wal.PolicyAlways, CheckpointEvery: 1}
	tsA := startCrashable(t, cfg)
	info := createSession(t, tsA.URL, createSessionRequest{Source: recoverySrc})
	urlA := tsA.URL + "/api/v1/sessions/" + info.ID
	note := wm.Str("a\rb")
	if st := call(t, "POST", urlA+"/facts", assertRequest{Facts: []factPayload{{Template: "log", Fields: map[string]jsonValue{
		"n": {V: wm.Int(1)}, "note": {V: note},
	}}}}, nil); st != http.StatusOK {
		t.Fatalf("assert: status %d", st)
	}
	if _, err := os.Stat(filepath.Join(cfg.DataDir, "sessions", info.ID, "checkpoint")); err != nil {
		t.Fatalf("no checkpoint written: %v", err)
	}
	tsA.Close()

	_, tsB := newTestServer(t, cfg)
	var wmResp struct {
		Facts []factPayload `json:"facts"`
	}
	if st := call(t, "GET", tsB.URL+"/api/v1/sessions/"+info.ID+"/wm", nil, &wmResp); st != http.StatusOK {
		t.Fatalf("wm after reopen: status %d", st)
	}
	if len(wmResp.Facts) != 1 || !wmResp.Facts[0].Fields["note"].V.Equal(note) {
		t.Fatalf("recovered working memory %+v, want one log fact with note %v", wmResp.Facts, note)
	}
}

// TestRecoverMutateCrashRecover: regression for the post-checkpoint
// sequence restart. A checkpoint empties the log, so when a restart
// reopens it the scan finds nothing and the sequence counter would start
// over from zero; mutations accepted after that recovery would then carry
// seq <= the checkpoint's sequence point and the NEXT recovery would
// silently skip them as already checkpointed. CheckpointEvery must be > 1
// here so the post-recovery records survive to the second recovery
// instead of being immediately folded into a fresh checkpoint.
func TestRecoverMutateCrashRecover(t *testing.T) {
	cfg := Config{DataDir: t.TempDir(), Fsync: wal.PolicyAlways, CheckpointEvery: 3}

	tsA := startCrashable(t, cfg)
	info := createSession(t, tsA.URL, createSessionRequest{Source: recoverySrc})
	urlA := tsA.URL + "/api/v1/sessions/" + info.ID
	for i := 0; i < 3; i++ { // three records: the third triggers the checkpoint
		assertTasks(t, urlA, i, i+1)
	}
	dir := filepath.Join(cfg.DataDir, "sessions", info.ID)
	if fi, err := os.Stat(filepath.Join(dir, "wal.log")); err != nil || fi.Size() != 0 {
		t.Fatalf("checkpoint did not empty the log (size %d, err %v); test premise broken", fi.Size(), err)
	}
	tsA.Close() // crash 1: the only sequence witness is the checkpoint header

	// Recover, mutate past the checkpoint, and crash again before the
	// next checkpoint fires (2 records < CheckpointEvery).
	tsB := startCrashable(t, cfg)
	urlB := tsB.URL + "/api/v1/sessions/" + info.ID
	assertTasks(t, urlB, 3, 4)
	runSession(t, urlB)
	wantSnap := exportSnapshot(t, urlB)
	wantInfo := getInfo(t, urlB)
	tsB.Close() // crash 2

	_, tsC := newTestServer(t, cfg)
	urlC := tsC.URL + "/api/v1/sessions/" + info.ID
	gotInfo := getInfo(t, urlC)
	if gotInfo.Cycles != wantInfo.Cycles || gotInfo.Firings != wantInfo.Firings ||
		gotInfo.Runs != wantInfo.Runs || gotInfo.WMSize != wantInfo.WMSize {
		t.Fatalf("mutations after the first recovery were lost:\n got %+v\nwant %+v", gotInfo, wantInfo)
	}
	if gotSnap := exportSnapshot(t, urlC); gotSnap != wantSnap {
		t.Fatalf("mutations after the first recovery were lost:\n-- got --\n%s\n-- want --\n%s", gotSnap, wantSnap)
	}
}

// TestTornTailRecovery: garbage appended to the log (a torn final write)
// is cut off and the session recovers to the last valid record.
func TestTornTailRecovery(t *testing.T) {
	cfg := Config{DataDir: t.TempDir(), Fsync: wal.PolicyAlways}
	tsA := startCrashable(t, cfg)
	info := createSession(t, tsA.URL, createSessionRequest{Source: recoverySrc})
	urlA := tsA.URL + "/api/v1/sessions/" + info.ID
	assertTasks(t, urlA, 0, 3)
	runSession(t, urlA)
	wantSnap := exportSnapshot(t, urlA)
	tsA.Close()

	logPath := filepath.Join(cfg.DataDir, "sessions", info.ID, "wal.log")
	f, err := os.OpenFile(logPath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("\x40\x00\x00\x00\xde\xad\xbe\xefgarbage tail from a torn write")); err != nil {
		t.Fatal(err)
	}
	f.Close()

	_, tsB := newTestServer(t, cfg)
	urlB := tsB.URL + "/api/v1/sessions/" + info.ID
	if gotSnap := exportSnapshot(t, urlB); gotSnap != wantSnap {
		t.Fatalf("torn-tail recovery snapshot differs:\n-- got --\n%s\n-- want --\n%s", gotSnap, wantSnap)
	}
	var m metricsPayload
	if st := call(t, "GET", tsB.URL+"/metrics", nil, &m); st != http.StatusOK || m.Durability == nil {
		t.Fatalf("metrics: status %d", st)
	}
	if m.Durability.WALTruncations == 0 || m.Durability.WALTruncatedBytes == 0 {
		t.Fatalf("torn tail not reflected in metrics: %+v", *m.Durability)
	}
}

// TestImportReplay: snapshot imports are logged verbatim and replayed.
func TestImportReplay(t *testing.T) {
	cfg := Config{DataDir: t.TempDir(), Fsync: wal.PolicyAlways}
	tsA := startCrashable(t, cfg)
	info := createSession(t, tsA.URL, createSessionRequest{Source: recoverySrc})
	urlA := tsA.URL + "/api/v1/sessions/" + info.ID

	imported := "(wm (task ^n 40 ^state new) (task ^n 41 ^state new))\n"
	resp, err := http.Post(urlA+"/snapshot", "text/plain", strings.NewReader(imported))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("import: status %d", resp.StatusCode)
	}
	runSession(t, urlA)
	wantSnap := exportSnapshot(t, urlA)
	tsA.Close()

	_, tsB := newTestServer(t, cfg)
	urlB := tsB.URL + "/api/v1/sessions/" + info.ID
	if gotSnap := exportSnapshot(t, urlB); gotSnap != wantSnap {
		t.Fatalf("import replay snapshot differs:\n-- got --\n%s\n-- want --\n%s", gotSnap, wantSnap)
	}
}

// TestDeleteRemovesDurableState: deleting a session (live or evicted)
// removes its directory; after a restart it is gone for good.
func TestDeleteRemovesDurableState(t *testing.T) {
	cfg := Config{DataDir: t.TempDir()}
	_, ts := newTestServer(t, cfg)
	info := createSession(t, ts.URL, createSessionRequest{Source: recoverySrc})
	url := ts.URL + "/api/v1/sessions/" + info.ID
	if st := call(t, "DELETE", url, nil, nil); st != http.StatusOK {
		t.Fatalf("delete: status %d", st)
	}
	if _, err := os.Stat(filepath.Join(cfg.DataDir, "sessions", info.ID)); !os.IsNotExist(err) {
		t.Fatalf("session directory survived deletion: %v", err)
	}
	if st := call(t, "GET", url, nil, nil); st != http.StatusNotFound {
		t.Fatalf("get after delete: status %d, want 404", st)
	}

	_, ts2 := newTestServer(t, cfg)
	if st := call(t, "GET", ts2.URL+"/api/v1/sessions/"+info.ID, nil, nil); st != http.StatusNotFound {
		t.Fatalf("deleted session recovered after restart: status %d", st)
	}
}

// failingRemoveFS is the OS filesystem with a RemoveAll that fails
// while fail is set.
type failingRemoveFS struct {
	wal.FS
	fail atomic.Bool
}

func (f *failingRemoveFS) RemoveAll(name string) error {
	if f.fail.Load() {
		return &fs.PathError{Op: "removeall", Path: name, Err: syscall.EIO}
	}
	return f.FS.RemoveAll(name)
}

// TestDeleteFailureAnswers500: a DELETE whose files could not be removed
// says so, and the session stays served, so a retry can delete it.
func TestDeleteFailureAnswers500(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{DataDir: dir, Fsync: wal.PolicyAlways})
	if err != nil {
		t.Fatal(err)
	}
	fsys := &failingRemoveFS{FS: wal.OS}
	s.store.Close()
	if s.store, _, err = store.Open(dir, wal.Options{Policy: wal.PolicyAlways, FS: fsys}, true); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Close(ctx)
	})
	info := createSession(t, ts.URL, createSessionRequest{Source: recoverySrc})
	url := ts.URL + "/api/v1/sessions/" + info.ID

	fsys.fail.Store(true)
	var e errorResponse
	if st := call(t, "DELETE", url, nil, &e); st != http.StatusInternalServerError || !strings.Contains(e.Error, syscall.EIO.Error()) {
		t.Fatalf("delete with a failing RemoveAll: status %d %q, want 500 naming the error", st, e.Error)
	}
	fsys.fail.Store(false)
	if st := call(t, "GET", url, nil, nil); st != http.StatusOK {
		t.Fatalf("get after the failed delete: status %d, want the session served", st)
	}
	if st := call(t, "DELETE", url, nil, nil); st != http.StatusOK {
		t.Fatalf("retried delete: status %d", st)
	}
	if _, err := os.Stat(filepath.Join(dir, "sessions", info.ID)); !os.IsNotExist(err) {
		t.Fatalf("session directory survived the retried delete: %v", err)
	}
}

// TestDeleteDoesNotFsync: a DELETE closes the session's log without
// flushing it, since the directory goes next, while an eviction, which
// keeps the files, still flushes a dirty log.
func TestDeleteDoesNotFsync(t *testing.T) {
	s, ts := newTestServer(t, Config{DataDir: t.TempDir(), Fsync: wal.PolicyNever, MaxSessions: 1})
	fsyncs := func() uint64 { return s.metrics.snapshot().Durability.Fsyncs }
	dirty := func() sessionInfo {
		info := createSession(t, ts.URL, createSessionRequest{Program: "quickstart"})
		body := map[string]any{"facts": []map[string]any{{"template": "person", "fields": map[string]any{"name": "ada", "age": 36}}}}
		if st := call(t, "POST", ts.URL+"/api/v1/sessions/"+info.ID+"/facts", body, nil); st != http.StatusOK {
			t.Fatalf("assert: status %d", st)
		}
		return info
	}
	info := dirty()
	before := fsyncs()
	if st := call(t, "DELETE", ts.URL+"/api/v1/sessions/"+info.ID, nil, nil); st != http.StatusOK {
		t.Fatalf("delete: status %d", st)
	}
	if got := fsyncs(); got != before {
		t.Fatalf("a DELETE fsynced %d times", got-before)
	}
	dirty()
	before = fsyncs()
	dirty() // evicts the other from the one slot
	if got := fsyncs(); got == before {
		t.Fatal("evicting a session with a dirty log did not fsync it")
	}
}

// TestRehydrationRebuildsRedactionState: the engine's meta level (images of
// eligible instantiations and their witnesses) is derived
// state — no checkpoint or log record carries it. A session evicted between
// two runs and rehydrated from its checkpoint must continue exactly like a
// control that stayed resident: same per-run cycles, firings and
// redactions, same snapshot.
//
// In the first program fired instantiations stay in the conflict set,
// refracted, and the meta-rule would let any of them redact every later
// one: rehydration that reified the restored refraction set would fire
// nothing in the second run. alexsys is the redaction-bound builtin.
func TestRehydrationRebuildsRedactionState(t *testing.T) {
	const persistentSrc = `
(literalize item n)
(literalize out n)
(rule emit (item ^n <n>) --> (make out ^n <n>))
(metarule one-at-a-time
  [<i> (emit ^n <a>)]
  [<j> (emit ^n <b>)]
  (test (< <a> <b>))
-->
  (redact <j>))
`
	ints := func(template string, rows ...map[string]int64) assertRequest {
		var req assertRequest
		for _, row := range rows {
			f := factPayload{Template: template, Fields: map[string]jsonValue{}}
			for k, v := range row {
				f.Fields[k] = jsonValue{V: wm.Int(v)}
			}
			req.Facts = append(req.Facts, f)
		}
		return req
	}
	items := func(from, to int64) assertRequest {
		var rows []map[string]int64
		for n := from; n < to; n++ {
			rows = append(rows, map[string]int64{"n": n})
		}
		return ints("item", rows...)
	}
	alexsysFacts := func(pools, orders [2]int64) []assertRequest {
		var ps, os assertRequest
		for p := pools[0]; p < pools[1]; p++ {
			ps.Facts = append(ps.Facts, factPayload{Template: "pool", Fields: map[string]jsonValue{
				"id": {V: wm.Int(p)}, "amount": {V: wm.Int(20 + 7*p%60)}, "status": {V: wm.Sym("free")}}})
		}
		for o := orders[0]; o < orders[1]; o++ {
			os.Facts = append(os.Facts, factPayload{Template: "order", Fields: map[string]jsonValue{
				"id": {V: wm.Int(o)}, "lo": {V: wm.Int(15 + 5*o%40)}, "hi": {V: wm.Int(45 + 5*o%40)}, "filled": {V: wm.Sym("no")}}})
		}
		return []assertRequest{ps, os}
	}
	cases := []struct {
		name   string
		create createSessionRequest
		phases [2][]assertRequest
	}{
		{"persistent", createSessionRequest{Source: persistentSrc}, [2][]assertRequest{{items(0, 6)}, {items(6, 10)}}},
		{"alexsys", createSessionRequest{Program: "alexsys"}, [2][]assertRequest{
			alexsysFacts([2]int64{0, 12}, [2]int64{0, 6}), alexsysFacts([2]int64{12, 20}, [2]int64{6, 16})}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := newTestServer(t, Config{DataDir: t.TempDir(), MaxSessions: 2, CheckpointEvery: 1})
			drive := func(url string, phase []assertRequest) runResponse {
				for _, req := range phase {
					if st := call(t, "POST", url+"/facts", req, nil); st != http.StatusOK {
						t.Fatalf("assert: status %d", st)
					}
				}
				return runSession(t, url)
			}
			control := ts.URL + "/api/v1/sessions/" + createSession(t, ts.URL, tc.create).ID
			want1 := drive(control, tc.phases[0])
			want2 := drive(control, tc.phases[1])
			wantSnap := exportSnapshot(t, control)
			if want1.Redactions == 0 || want2.Redactions == 0 || want2.Firings == 0 {
				t.Fatalf("runs too tame to test anything: %+v then %+v", want1, want2)
			}

			subject := createSession(t, ts.URL, tc.create) // pool now full
			url := ts.URL + "/api/v1/sessions/" + subject.ID
			if got := drive(url, tc.phases[0]); got.Cycles != want1.Cycles || got.Firings != want1.Firings || got.Redactions != want1.Redactions {
				t.Fatalf("first run differs before any eviction: %+v vs %+v", got, want1)
			}
			// Two more sessions push the subject (and the control) out.
			createSession(t, ts.URL, createSessionRequest{Source: boundedSrc})
			createSession(t, ts.URL, createSessionRequest{Source: boundedSrc})
			s.mu.Lock()
			_, live := s.sessions[subject.ID]
			s.mu.Unlock()
			if live {
				t.Fatal("subject session not evicted")
			}
			got2 := drive(url, tc.phases[1]) // rehydrates
			if got2.Cycles != want2.Cycles || got2.Firings != want2.Firings || got2.Redactions != want2.Redactions || got2.WMSize != want2.WMSize {
				t.Fatalf("second run after rehydration: %+v, resident control: %+v", got2, want2)
			}
			if gotSnap := exportSnapshot(t, url); gotSnap != wantSnap {
				t.Fatalf("snapshot after rehydration differs:\n-- got --\n%s\n-- want --\n%s", gotSnap, wantSnap)
			}
		})
	}
}

// TestCreateMatcherField: the create request still carries a matcher
// field, but the daemon serves one matcher — naming it is fine, naming
// TREAT is a 400 that says where TREAT still runs.
func TestCreateMatcherField(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, body := range []string{`{"source":"(literalize a n)"}`, `{"source":"(literalize a n)","matcher":"rete"}`} {
		resp, err := http.Post(ts.URL+"/api/v1/sessions", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var info sessionInfo
		err = json.NewDecoder(resp.Body).Decode(&info)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusCreated || info.Matcher != "rete" {
			t.Fatalf("create %s: status %d, matcher %q, %v", body, resp.StatusCode, info.Matcher, err)
		}
	}
	for _, matcher := range []string{"treat", "leaps"} {
		var e errorResponse
		st := call(t, "POST", ts.URL+"/api/v1/sessions", createSessionRequest{Source: "(literalize a n)", Matcher: matcher}, &e)
		if st != http.StatusBadRequest || !strings.Contains(e.Error, matcher) || !strings.Contains(e.Error, "rete") {
			t.Fatalf("create with matcher %q: status %d, error %q", matcher, st, e.Error)
		}
	}
}

// TestRecoveryOfTreatRecordedSession: a data directory whose create
// record (and, after the next checkpoint, whose checkpoint header) names
// TREAT — written when the daemon still offered it — recovers on RETE to
// the state a TREAT engine reaches on the same history, byte for byte.
func TestRecoveryOfTreatRecordedSession(t *testing.T) {
	// The reference: driveSession's script on a TREAT engine.
	prog, err := compile.CompileSource(recoverySrc)
	if err != nil {
		t.Fatal(err)
	}
	ref := core.New(prog, core.Options{Matcher: treat.Factory(treat.Options{})})
	tasks := func(from, to int) {
		for n := from; n < to; n++ {
			if _, err := ref.Insert("task", map[string]wm.Value{"n": wm.Int(int64(n)), "state": wm.Sym("new")}); err != nil {
				t.Fatal(err)
			}
		}
	}
	run := func() {
		if _, err := ref.Run(); err != nil {
			t.Fatal(err)
		}
	}
	tasks(0, 4)
	run()
	for _, w := range ref.Memory().OfTemplate("task") {
		if w.Fields[0].Equal(wm.Int(2)) {
			ref.Retract(w.Time)
		}
	}
	tasks(4, 6)
	run()
	var want strings.Builder
	if err := snapshot.Write(&want, ref.Memory()); err != nil {
		t.Fatal(err)
	}

	// The directory: today's daemon writes the history, and the copy names
	// TREAT in its create record.
	dirA := t.TempDir()
	tsA := startCrashable(t, Config{DataDir: dirA, Fsync: wal.PolicyAlways})
	info := createSession(t, tsA.URL, createSessionRequest{Source: recoverySrc})
	driveSession(t, tsA.URL+"/api/v1/sessions/"+info.ID)
	tsA.Close()
	scan, err := wal.ScanFile(filepath.Join(dirA, "sessions", info.ID, walFile))
	if err != nil || len(scan.Records) == 0 || scan.Records[0].Matcher != "rete" {
		t.Fatalf("the written log: %d records, %v", len(scan.Records), err)
	}
	dirB := t.TempDir()
	sessDir := filepath.Join(dirB, "sessions", info.ID)
	if err := os.MkdirAll(sessDir, 0o755); err != nil {
		t.Fatal(err)
	}
	l, _, err := wal.Open(filepath.Join(sessDir, walFile), wal.Options{Policy: wal.PolicyAlways})
	if err != nil {
		t.Fatal(err)
	}
	scan.Records[0].Matcher = "treat"
	for i := range scan.Records {
		if err := l.AppendKeepSeq(&scan.Records[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	cfg := Config{DataDir: dirB, Fsync: wal.PolicyAlways, CheckpointEvery: 2}
	tsB := startCrashable(t, cfg)
	url := tsB.URL + "/api/v1/sessions/" + info.ID
	if got := exportSnapshot(t, url); got != want.String() {
		t.Fatalf("recovered on rete, differs from the treat run:\n-- got --\n%s\n-- want --\n%s", got, want.String())
	}
	if got := getInfo(t, url); got.Matcher != "rete" {
		t.Fatalf("recovered session reports matcher %q", got.Matcher)
	}
	// Two more records force a checkpoint; its header keeps what the
	// directory recorded, and recovery from it is the same session.
	assertTasks(t, url, 6, 7)
	assertTasks(t, url, 7, 8)
	after := exportSnapshot(t, url)
	tsB.Close()
	f, err := os.Open(filepath.Join(sessDir, checkpointFile))
	if err != nil {
		t.Fatalf("no checkpoint was written: %v", err)
	}
	h, _, err := checkpoint.Read(f)
	f.Close()
	if err != nil || h.Matcher != "treat" {
		t.Fatalf("checkpoint header: matcher %q, %v", h.Matcher, err)
	}
	_, tsC := newTestServer(t, cfg)
	if got := exportSnapshot(t, tsC.URL+"/api/v1/sessions/"+info.ID); got != after {
		t.Fatalf("recovery from the treat-labelled checkpoint differs:\n-- got --\n%s\n-- want --\n%s", got, after)
	}
}
