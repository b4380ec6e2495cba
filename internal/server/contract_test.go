package server

// HTTP contract tests for the concurrency surface added with batches and
// async runs: batch semantics, backpressure status codes (429 +
// Retry-After), job lifecycle transitions, and the guarantee that
// observability endpoints stay responsive while the run queue is
// saturated.

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"parulel/internal/wal"
	"parulel/internal/wm"
)

// contractSrc fires its touch rule once per asserted item.
const contractSrc = `
(literalize item k state)
(rule touch
  <i> <- (item ^k <k> ^state new)
-->
  (modify <i> ^state done))
`

func itemFact(key string) factPayload {
	return factPayload{Template: "item", Fields: map[string]jsonValue{
		"k":     {V: wm.Sym(key)},
		"state": {V: wm.Sym("new")},
	}}
}

// pollJob fetches the job until pred is satisfied or the deadline passes.
func pollJob(t *testing.T, url string, pred func(jobInfo) bool) jobInfo {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var info jobInfo
		if st := call(t, "GET", url, nil, &info); st != http.StatusOK {
			t.Fatalf("job poll: status %d", st)
		}
		if pred(info) {
			return info
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never reached wanted state; last: %+v", info)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// startAsyncSpinner creates a spinner session and an async run against it,
// returning the session URL and the job once it is running.
func startAsyncSpinner(t *testing.T, base string, timeoutMS int64) (string, jobInfo) {
	t.Helper()
	info := createSession(t, base, createSessionRequest{Source: spinnerSrc})
	url := base + "/api/v1/sessions/" + info.ID
	var j jobInfo
	if st := call(t, "POST", url+"/run?async=1", runRequest{TimeoutMS: timeoutMS}, &j); st != http.StatusAccepted {
		t.Fatalf("async run: status %d", st)
	}
	j = pollJob(t, url+"/jobs/"+j.ID, func(v jobInfo) bool { return v.Status == jobRunning })
	return url, j
}

func TestBatchAppliesInOrder(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	info := createSession(t, ts.URL, createSessionRequest{Source: contractSrc})
	url := ts.URL + "/api/v1/sessions/" + info.ID

	var resp batchResponse
	st := call(t, "POST", url+"/batch", batchRequest{Ops: []batchOp{
		{Op: "assert", Facts: []factPayload{itemFact("a"), itemFact("b")}},
		{Op: "run"},
		{Op: "retract", Template: "item", Fields: map[string]jsonValue{"state": {V: wm.Sym("done")}}},
	}}, &resp)
	if st != http.StatusOK {
		t.Fatalf("batch: status %d: %+v", st, resp)
	}
	if resp.Applied != 3 || len(resp.Results) != 3 {
		t.Fatalf("batch applied %d results %d, want 3/3", resp.Applied, len(resp.Results))
	}
	if resp.Results[0].Count != 2 {
		t.Fatalf("assert count: got %d, want 2", resp.Results[0].Count)
	}
	if run := resp.Results[1].Run; run == nil || run.Firings != 2 || !run.Quiescent {
		t.Fatalf("run result: %+v", resp.Results[1].Run)
	}
	if resp.Results[2].Count != 2 {
		t.Fatalf("retract count: got %d, want 2", resp.Results[2].Count)
	}
	if resp.WMSize != 0 {
		t.Fatalf("wm size after batch: got %d, want 0", resp.WMSize)
	}
}

func TestBatchRejectsBadOpsUpfront(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	info := createSession(t, ts.URL, createSessionRequest{Source: contractSrc})
	url := ts.URL + "/api/v1/sessions/" + info.ID

	cases := []struct {
		name string
		ops  []batchOp
	}{
		{"unknown op kind", []batchOp{{Op: "assert", Facts: []factPayload{itemFact("x")}}, {Op: "frobnicate"}}},
		{"assert without facts", []batchOp{{Op: "assert"}}},
		{"retract without template", []batchOp{{Op: "retract"}}},
		{"unknown template", []batchOp{
			{Op: "assert", Facts: []factPayload{itemFact("x")}},
			{Op: "assert", Facts: []factPayload{{Template: "ghost", Fields: map[string]jsonValue{"k": {V: wm.Sym("y")}}}}},
		}},
		{"unknown field", []batchOp{{Op: "assert", Facts: []factPayload{{Template: "item", Fields: map[string]jsonValue{"bogus": {V: wm.Sym("y")}}}}}}},
	}
	for _, tc := range cases {
		var errResp errorResponse
		if st := call(t, "POST", url+"/batch", batchRequest{Ops: tc.ops}, &errResp); st != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%+v)", tc.name, st, errResp)
		}
	}
	// Rejected batches apply nothing, even when an earlier op was valid.
	var wmResp struct {
		Total int `json:"total"`
	}
	if st := call(t, "GET", url+"/wm?template=item", nil, &wmResp); st != http.StatusOK || wmResp.Total != 0 {
		t.Fatalf("wm after rejected batches: status %d, size %d, want 0", st, wmResp.Total)
	}
}

func TestRunQueueSaturationFastFails(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrentRuns: 1, MaxInflightRuns: 1})
	url, j := startAsyncSpinner(t, ts.URL, 60_000)

	// The single inflight slot is held by the job: further runs (sync or
	// async) must fast-fail 429 with the Retry-After contract, not queue.
	req, err := http.NewRequest("POST", url+"/run", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated run: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After: got %q, want \"1\"", ra)
	}
	if st := call(t, "POST", url+"/run?async=1", runRequest{}, nil); st != http.StatusTooManyRequests {
		t.Fatalf("saturated async run: status %d, want 429", st)
	}

	var m metricsPayload
	if st := call(t, "GET", ts.URL+"/metrics", nil, &m); st != http.StatusOK {
		t.Fatalf("metrics: status %d", st)
	}
	if m.Admission.RunsRejected < 2 || m.Admission.RunsInflight != 1 {
		t.Fatalf("admission metrics: %+v", m.Admission)
	}

	// Canceling the job frees the admission slot.
	if st := call(t, "DELETE", url+"/jobs/"+j.ID, nil, nil); st != http.StatusOK {
		t.Fatalf("cancel: status %d", st)
	}
	pollJob(t, url+"/jobs/"+j.ID, func(v jobInfo) bool { return v.Status == jobCanceled })
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := call(t, "POST", url+"/run", runRequest{TimeoutMS: 50}, nil); st != http.StatusTooManyRequests {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("admission slot never freed after cancel")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestMutationQueueDepthFastFails(t *testing.T) {
	_, ts := newTestServer(t, Config{MutationQueueDepth: 1})
	url, j := startAsyncSpinner(t, ts.URL, 60_000)

	// The running job holds the session slot; one mutation may wait
	// (depth 1), the next must fast-fail. The background assert retries
	// through 429 so that a long-lived waiter is eventually parked in the
	// queue even if a probe transiently occupied the slot first.
	blocked := make(chan int, 1)
	go func() {
		req := assertRequest{Facts: []factPayload{{Template: "counter", Fields: map[string]jsonValue{"n": {V: wm.Int(7)}}}}}
		for {
			st := call(t, "POST", url+"/facts", req, nil)
			if st != http.StatusTooManyRequests {
				blocked <- st
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// The waiter registers quickly but not instantly: retry until the 429
	// surfaces. The probe uses a short client timeout because losing the
	// race means *becoming* the queued waiter, which blocks until the run
	// ends — a timed-out probe withdraws (its request context cancels the
	// queue wait) and tries again.
	probe := &http.Client{Timeout: 500 * time.Millisecond}
	sawReject := false
	deadline := time.Now().Add(10 * time.Second)
	for !sawReject && time.Now().Before(deadline) {
		req, err := http.NewRequest("POST", url+"/retract", strings.NewReader(`{"template":"counter"}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := probe.Do(req)
		if err != nil {
			continue // probe held the queue slot and timed out; retry
		}
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusTooManyRequests:
			if ra := resp.Header.Get("Retry-After"); ra != "1" {
				t.Fatalf("Retry-After: got %q, want \"1\"", ra)
			}
			sawReject = true
		case http.StatusOK:
			// The blocked assert won the race for the queue slot and
			// finished already; re-arm and retry.
			time.Sleep(2 * time.Millisecond)
		default:
			t.Fatalf("retract while saturated: status %d", resp.StatusCode)
		}
	}
	if !sawReject {
		t.Fatal("mutation queue never rejected while the session was busy")
	}

	// Cancel the run: the queued mutation must complete, not be lost.
	if st := call(t, "DELETE", url+"/jobs/"+j.ID, nil, nil); st != http.StatusOK {
		t.Fatalf("cancel: status %d", st)
	}
	select {
	case st := <-blocked:
		if st != http.StatusOK {
			t.Fatalf("queued assert: status %d", st)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("queued assert never completed after cancel")
	}
}

func TestJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	info := createSession(t, ts.URL, createSessionRequest{Source: boundedSrc})
	url := ts.URL + "/api/v1/sessions/" + info.ID

	var j jobInfo
	if st := call(t, "POST", url+"/run?async=1", runRequest{}, &j); st != http.StatusAccepted {
		t.Fatalf("async run: status %d", st)
	}
	if j.Status != jobQueued && j.Status != jobRunning {
		t.Fatalf("initial status: %q", j.Status)
	}
	done := pollJob(t, url+"/jobs/"+j.ID, func(v jobInfo) bool { return v.Status != jobQueued && v.Status != jobRunning })
	if done.Status != jobDone {
		t.Fatalf("final status: %q (%+v)", done.Status, done)
	}
	if done.Result == nil || done.Result.Cycles != 2000 || !done.Result.Quiescent {
		t.Fatalf("job result: %+v", done.Result)
	}
	if done.StartedAt == "" || done.FinishedAt == "" {
		t.Fatalf("missing timestamps: %+v", done)
	}

	var list struct {
		Jobs []jobInfo `json:"jobs"`
	}
	if st := call(t, "GET", url+"/jobs", nil, &list); st != http.StatusOK || len(list.Jobs) != 1 || list.Jobs[0].ID != j.ID {
		t.Fatalf("job list: status %d, %+v", st, list.Jobs)
	}

	// Terminal jobs cannot be canceled; unknown jobs are 404.
	if st := call(t, "DELETE", url+"/jobs/"+j.ID, nil, nil); st != http.StatusConflict {
		t.Fatalf("cancel finished: status %d, want 409", st)
	}
	if st := call(t, "GET", url+"/jobs/jffffffffffffffff", nil, nil); st != http.StatusNotFound {
		t.Fatalf("unknown job: status %d, want 404", st)
	}
	// A job is scoped to its session: another session cannot see it.
	other := createSession(t, ts.URL, createSessionRequest{Source: boundedSrc})
	if st := call(t, "GET", ts.URL+"/api/v1/sessions/"+other.ID+"/jobs/"+j.ID, nil, nil); st != http.StatusNotFound {
		t.Fatalf("cross-session job: status %d, want 404", st)
	}
}

func TestJobCanceledMidRun(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	url, j := startAsyncSpinner(t, ts.URL, 60_000)
	var onCancel jobInfo
	if st := call(t, "DELETE", url+"/jobs/"+j.ID, nil, &onCancel); st != http.StatusOK {
		t.Fatalf("cancel: status %d", st)
	}
	final := pollJob(t, url+"/jobs/"+j.ID, func(v jobInfo) bool { return v.Status == jobCanceled })
	if final.Result == nil {
		t.Fatalf("canceled job should carry the partial result: %+v", final)
	}
	// The session survives the cancellation and accepts further work.
	var si sessionInfo
	if st := call(t, "GET", url, nil, &si); st != http.StatusOK || si.Busy {
		t.Fatalf("session after cancel: status %d, %+v", st, si)
	}
}

func TestJobInterruptedByDrain(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{DataDir: dir})
	url, j := startAsyncSpinner(t, ts.URL, 60_000)
	sessID := strings.TrimPrefix(url, ts.URL+"/api/v1/sessions/")

	// Graceful drain interrupts live jobs and logs the terminal marker.
	closeServer(t, s, ts)

	_, ts2 := newTestServer(t, Config{DataDir: dir})
	url2 := ts2.URL + "/api/v1/sessions/" + sessID
	var recovered jobInfo
	if st := call(t, "GET", url2+"/jobs/"+j.ID, nil, &recovered); st != http.StatusOK {
		t.Fatalf("recovered job: status %d", st)
	}
	if recovered.Status != jobInterrupted {
		t.Fatalf("recovered status: %q, want interrupted", recovered.Status)
	}
	// Interrupted jobs are terminal: canceling is a conflict.
	if st := call(t, "DELETE", url2+"/jobs/"+j.ID, nil, nil); st != http.StatusConflict {
		t.Fatalf("cancel interrupted: status %d, want 409", st)
	}
}

// closeServer shuts one test server down mid-test (the registered cleanup
// tolerates the double close).
func closeServer(t *testing.T, s *Server, ts *httptest.Server) {
	t.Helper()
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func TestObservabilityNotBlockedWhenSaturated(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrentRuns: 1, MaxInflightRuns: 8})
	url, _ := startAsyncSpinner(t, ts.URL, 60_000)

	// Pile more admitted runs behind the busy engine so both the run queue
	// and the session are saturated.
	for i := 0; i < 3; i++ {
		if st := call(t, "POST", url+"/run?async=1", runRequest{TimeoutMS: 60_000}, nil); st != http.StatusAccepted {
			t.Fatalf("async run %d: status %d", i, st)
		}
	}

	// Scrapes and traces must answer from samples, never wait for a slot.
	const bound = 2 * time.Second
	for _, path := range []string{"/metrics", "/metrics?format=prometheus", url[len(ts.URL):] + "/trace"} {
		t0 := time.Now()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		if d := time.Since(t0); d > bound {
			t.Fatalf("GET %s took %s under saturation (bound %s)", path, d, bound)
		}
	}
	var m metricsPayload
	if st := call(t, "GET", ts.URL+"/metrics", nil, &m); st != http.StatusOK {
		t.Fatalf("metrics: status %d", st)
	}
	if m.Jobs.Active < 1 {
		t.Fatalf("jobs active: %+v", m.Jobs)
	}
}

// TestRejectedFactsApplyNothing: on every endpoint that takes facts, a
// rejection — 400, or the in-band error line on /stream — means nothing
// happened. Working memory, the clock and the session's log are as they
// were, also when the fact at fault comes after valid ones (which /facts
// and snapshot import used to insert, and log, before answering 400).
func TestRejectedFactsApplyNothing(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{DataDir: dir, Fsync: wal.PolicyAlways})
	info := createSession(t, ts.URL, createSessionRequest{Source: contractSrc})
	url := ts.URL + "/api/v1/sessions/" + info.ID
	if st := call(t, "POST", url+"/facts", assertRequest{Facts: []factPayload{itemFact("seed")}}, nil); st != http.StatusOK {
		t.Fatalf("seeding: status %d", st)
	}
	type state struct {
		wm, records int
		tick        int64
	}
	observe := func() state {
		res, err := wal.ScanFile(filepath.Join(dir, "sessions", info.ID, walFile))
		if err != nil {
			t.Fatal(err)
		}
		got := getInfo(t, url)
		return state{got.WMSize, len(res.Records), got.Tick}
	}
	before := observe()
	if before.wm != 1 || before.records != 2 {
		t.Fatalf("seeded session: %+v", before)
	}

	const good = `{"template":"item","fields":{"k":"a","state":"new"}}`
	bad := []struct{ name, fact, wantErr string }{
		{"unknown template", `{"template":"ghost","fields":{"k":"b"}}`, `fact 1: unknown template "ghost"`},
		{"unknown attribute", `{"template":"item","fields":{"k":"b","bogus":1}}`, `fact 1: template item has no attribute "bogus"`},
		{"negative ttl", `{"template":"item","fields":{"k":"c"},"ttl":-1}`, `fact 1: ttl must be non-negative`},
	}
	for _, c := range bad {
		facts := `[` + good + `,` + c.fact + `]`
		for _, ep := range []struct{ path, body, wantErr string }{
			{"/facts", `{"facts":` + facts + `}`, c.wantErr},
			{"/batch", `{"ops":[{"op":"assert","facts":[` + good + `]},{"op":"assert","facts":` + facts + `}]}`,
				strings.Replace(c.wantErr, "fact 1:", "op 1:", 1)},
			{"/stream", `{"facts":[` + good + `]}` + "\n" + `{"facts":` + facts + `}` + "\n", c.wantErr},
		} {
			resp := postRaw(t, url+ep.path, ep.body, "")
			body, _ := io.ReadAll(resp.Body)
			if ep.path == "/stream" {
				// The first frame is valid and stands; the second is refused whole.
				lines := strings.Split(strings.TrimSpace(string(body)), "\n")
				if resp.StatusCode != http.StatusOK || len(lines) != 2 || !strings.Contains(lines[1], strings.ReplaceAll(c.wantErr, `"`, `\"`)) {
					t.Fatalf("%s, %s: status %d, body %s", ep.path, c.name, resp.StatusCode, body)
				}
				before.wm, before.records, before.tick = before.wm+1, before.records+1, before.tick+1
			} else if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), strings.ReplaceAll(ep.wantErr, `"`, `\"`)) {
				t.Fatalf("%s, %s: status %d, body %s; want 400 with %q", ep.path, c.name, resp.StatusCode, body, ep.wantErr)
			}
			if after := observe(); after != before {
				t.Fatalf("%s, %s: the rejected request changed the session: %+v, was %+v", ep.path, c.name, after, before)
			}
		}
	}
	for _, c := range []struct{ name, text string }{
		{"unknown template", "(wm (item ^k a ^state new) (ghost ^k b))"},
		{"unknown attribute", "(wm (item ^k a ^state new) (item ^k b ^bogus 1))"},
	} {
		resp := postRaw(t, url+"/snapshot", c.text, "")
		if body, _ := io.ReadAll(resp.Body); resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "fact 1: ") {
			t.Fatalf("snapshot import, %s: status %d, body %s", c.name, resp.StatusCode, body)
		}
		if after := observe(); after != before {
			t.Fatalf("snapshot import, %s: the rejected request changed the session: %+v, was %+v", c.name, after, before)
		}
	}
	// And an accepted one on each still lands whole.
	if st := call(t, "POST", url+"/facts", assertRequest{Facts: []factPayload{itemFact("x"), itemFact("y")}}, nil); st != http.StatusOK {
		t.Fatalf("valid assert after the rejections: status %d", st)
	}
	if resp := postRaw(t, url+"/snapshot", "(wm (item ^k z ^state new))", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("valid import after the rejections: status %d", resp.StatusCode)
	}
	before.wm, before.records = before.wm+3, before.records+2
	if after := observe(); after != before {
		t.Fatalf("after two valid requests: %+v, want %+v", after, before)
	}
}
