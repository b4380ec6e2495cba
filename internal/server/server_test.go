package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"parulel/internal/wm"
)

// spinnerSrc modifies one counter WME per cycle, effectively forever —
// the timeout-path workload.
const spinnerSrc = `
(literalize counter n)
(rule tick
  <c> <- (counter ^n <n>)
  (test (< <n> 1000000000))
-->
  (modify <c> ^n (+ <n> 1)))
(wm (counter ^n 0))
`

// boundedSrc is the same counter stopped after 2000 cycles (finishes in
// well under a second); drainSrc runs long enough (~hundreds of ms) for
// the drain test to observe it in flight, but still finishes.
const boundedSrc = `
(literalize counter n)
(rule tick
  <c> <- (counter ^n <n>)
  (test (< <n> 2000))
-->
  (modify <c> ^n (+ <n> 1)))
(wm (counter ^n 0))
`

const drainSrc = `
(literalize counter n)
(rule tick
  <c> <- (counter ^n <n>)
  (test (< <n> 50000))
-->
  (modify <c> ^n (+ <n> 1)))
(wm (counter ^n 0))
`

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Close(ctx)
	})
	return s, ts
}

// call performs one JSON request and decodes the response into out (which
// may be nil). It returns the status code.
func call(t *testing.T, method, url string, body any, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("decode %s %s response %q: %v", method, url, data, err)
		}
	}
	return resp.StatusCode
}

func createSession(t *testing.T, base string, req createSessionRequest) sessionInfo {
	t.Helper()
	var info sessionInfo
	if st := call(t, "POST", base+"/api/v1/sessions", req, &info); st != http.StatusCreated {
		t.Fatalf("create session: status %d", st)
	}
	return info
}

func TestSessionLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	base := ts.URL

	var progs struct {
		Programs []string `json:"programs"`
	}
	if st := call(t, "GET", base+"/api/v1/programs", nil, &progs); st != 200 || len(progs.Programs) < 5 {
		t.Fatalf("programs: status %d, %v", st, progs.Programs)
	}

	info := createSession(t, base, createSessionRequest{Program: "quickstart"})
	if info.ID == "" || info.Program != "quickstart" || info.WMSize != 1 {
		t.Fatalf("bad session info: %+v", info)
	}
	sessURL := base + "/api/v1/sessions/" + info.ID

	// Assert two adults and a minor.
	facts := assertRequest{Facts: []factPayload{
		{Template: "person", Fields: map[string]jsonValue{"name": {wm.Sym("ada")}, "age": {wm.Int(36)}}},
		{Template: "person", Fields: map[string]jsonValue{"name": {wm.Sym("grace")}, "age": {wm.Int(45)}}},
		{Template: "person", Fields: map[string]jsonValue{"name": {wm.Sym("kid")}, "age": {wm.Int(9)}}},
	}}
	var cnt countResponse
	if st := call(t, "POST", sessURL+"/facts", facts, &cnt); st != 200 || cnt.Count != 3 {
		t.Fatalf("assert: status %d, %+v", st, cnt)
	}

	var run runResponse
	if st := call(t, "POST", sessURL+"/run", runRequest{}, &run); st != 200 {
		t.Fatalf("run: status %d", st)
	}
	if !run.Quiescent || run.Halted {
		t.Fatalf("quickstart should quiesce without halt: %+v", run)
	}
	// greet fires twice (adults), count fires twice (serialized by the
	// meta-rule, one per cycle).
	if run.Firings != 4 {
		t.Fatalf("firings = %d, want 4: %+v", run.Firings, run)
	}
	if run.Redactions == 0 {
		t.Fatalf("expected redactions from one-count-per-cycle: %+v", run)
	}
	if !strings.Contains(run.Output, "hello, ada") || !strings.Contains(run.Output, "hello, grace") {
		t.Fatalf("output missing greetings: %q", run.Output)
	}
	if strings.Contains(run.Output, "kid") {
		t.Fatalf("minor should not be greeted: %q", run.Output)
	}

	// Query the tally: must be 2.
	var wmResp struct {
		Total int           `json:"total"`
		Facts []factPayload `json:"facts"`
	}
	if st := call(t, "GET", sessURL+"/wm?template=tally", nil, &wmResp); st != 200 {
		t.Fatalf("wm: status %d", st)
	}
	if wmResp.Total != 1 || !wmResp.Facts[0].Fields["n"].V.Equal(wm.Int(2)) {
		t.Fatalf("tally = %+v, want n=2", wmResp)
	}

	// Retract one greeted fact, check the count drops.
	var ret countResponse
	rr := retractRequest{Template: "greeted", Fields: map[string]jsonValue{"name": {wm.Sym("ada")}}}
	if st := call(t, "POST", sessURL+"/retract", rr, &ret); st != 200 || ret.Count != 1 {
		t.Fatalf("retract: status %d, %+v", st, ret)
	}

	// Delete; subsequent access 404s.
	if st := call(t, "DELETE", sessURL, nil, nil); st != 200 {
		t.Fatalf("delete: status %d", st)
	}
	if st := call(t, "GET", sessURL, nil, nil); st != http.StatusNotFound {
		t.Fatalf("get after delete: status %d, want 404", st)
	}
}

// TestCreateIgnoresWorkers: a create request may still name `workers`,
// which once sized a session's fire phase. It is accepted and changes
// nothing: the session fires the same instantiations in the same cycles
// and ends in the same working memory as one created without it.
func TestCreateIgnoresWorkers(t *testing.T) {
	const src = `
(literalize item k n)
(literalize out k n)
(rule take (item ^k <k> ^n <n>) --> (remove 1) (make out ^k <k> ^n <n>))
(metarule one-per-key
  [<i> (take ^k <k> ^n <a>)]
  [<j> (take ^k <k> ^n <b>)]
  (test (< <a> <b>))
-->
  (redact <j>))
(wm (item ^k 1 ^n 1) (item ^k 1 ^n 2) (item ^k 1 ^n 3) (item ^k 2 ^n 4) (item ^k 2 ^n 5))
`
	_, ts := newTestServer(t, Config{})
	run := func(req createSessionRequest) (firings, snap string) {
		sessURL := ts.URL + "/api/v1/sessions/" + createSession(t, ts.URL, req).ID
		if st := call(t, "POST", sessURL+"/run", runRequest{}, nil); st != http.StatusOK {
			t.Fatalf("run: status %d", st)
		}
		var tr traceResponse
		if st := call(t, "GET", sessURL+"/trace", nil, &tr); st != http.StatusOK {
			t.Fatalf("trace: status %d", st)
		}
		for i := range tr.Events {
			ev := &tr.Events[i]
			ev.MatchNS, ev.RedactNS, ev.FireNS, ev.ApplyNS = 0, 0, 0, 0
		}
		b, err := json.Marshal(tr.Events)
		if err != nil {
			t.Fatal(err)
		}
		st, _, snap := fetch(t, sessURL+"/snapshot")
		if st != http.StatusOK {
			t.Fatalf("snapshot: status %d", st)
		}
		return string(b), snap
	}
	firings, snap := run(createSessionRequest{Source: src})
	firings4, snap4 := run(createSessionRequest{Source: src, Workers: 4})
	// One item of each key fires a cycle, the lowest n first.
	if !strings.Contains(firings, `"cycle":3,`) || !strings.Contains(firings, `"redacted":3,`) {
		t.Fatalf("want three cycles, three redactions in the first: %s", firings)
	}
	if firings4 != firings {
		t.Errorf("workers 4 fired\n%s\nwithout workers\n%s", firings4, firings)
	}
	if snap4 != snap {
		t.Errorf("workers 4 left\n%s\nwithout workers\n%s", snap4, snap)
	}
}

func TestUnknownProgramAndBadSource(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if st := call(t, "POST", ts.URL+"/api/v1/sessions", createSessionRequest{Program: "nope"}, nil); st != 400 {
		t.Fatalf("unknown program: status %d, want 400", st)
	}
	if st := call(t, "POST", ts.URL+"/api/v1/sessions", createSessionRequest{Source: "(rule oops"}, nil); st != 400 {
		t.Fatalf("bad source: status %d, want 400", st)
	}
	if st := call(t, "POST", ts.URL+"/api/v1/sessions", createSessionRequest{}, nil); st != 400 {
		t.Fatalf("empty create: status %d, want 400", st)
	}
}

// TestConcurrentSessionsDeterministic is the acceptance check: sessions
// exercised in parallel return exactly the results the same requests
// produce when run alone.
func TestConcurrentSessionsDeterministic(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrentRuns: 4})
	base := ts.URL

	// Reference: closure over a small chain, sequential.
	mkFacts := func(n int) assertRequest {
		var req assertRequest
		for i := 0; i < n; i++ {
			req.Facts = append(req.Facts, factPayload{Template: "arc", Fields: map[string]jsonValue{
				"from": {wm.Int(int64(i))}, "to": {wm.Int(int64(i + 1))},
			}})
		}
		return req
	}
	runOne := func(t *testing.T, n int) runResponse {
		info := createSession(t, base, createSessionRequest{Program: "closure"})
		sessURL := base + "/api/v1/sessions/" + info.ID
		if st := call(t, "POST", sessURL+"/facts", mkFacts(n), nil); st != 200 {
			t.Fatalf("assert: status %d", st)
		}
		var run runResponse
		if st := call(t, "POST", sessURL+"/run", runRequest{}, &run); st != 200 {
			t.Fatalf("run: status %d", st)
		}
		return run
	}

	sizes := []int{3, 5, 8, 12}
	want := make([]runResponse, len(sizes))
	for i, n := range sizes {
		want[i] = runOne(t, n)
		want[i].WallMS = 0
	}

	// Now the same four workloads concurrently, several times over.
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for round := 0; round < 4; round++ {
		for i, n := range sizes {
			wg.Add(1)
			go func(i, n int) {
				defer wg.Done()
				got := runOne(t, n)
				got.WallMS = 0 // wall time varies; compare semantic fields
				if got != want[i] {
					errs <- fmt.Sprintf("closure(%d): concurrent run %+v != sequential %+v", n, got, want[i])
				}
			}(i, n)
		}
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

func TestRunTimeout504AndSessionStillUsable(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	base := ts.URL
	info := createSession(t, base, createSessionRequest{Source: spinnerSrc})
	sessURL := base + "/api/v1/sessions/" + info.ID

	var timeoutBody struct {
		Error  string      `json:"error"`
		Result runResponse `json:"result"`
	}
	st := call(t, "POST", sessURL+"/run", runRequest{TimeoutMS: 60}, &timeoutBody)
	if st != http.StatusGatewayTimeout {
		t.Fatalf("run: status %d, want 504", st)
	}
	if timeoutBody.Result.Cycles == 0 {
		t.Fatalf("some cycles should have committed before the deadline: %+v", timeoutBody)
	}

	// The session must still be usable: WM is consistent (one counter whose
	// value equals the committed cycle count)…
	var wmResp struct {
		Total int           `json:"total"`
		Facts []factPayload `json:"facts"`
	}
	if st := call(t, "GET", sessURL+"/wm", nil, &wmResp); st != 200 || wmResp.Total != 1 {
		t.Fatalf("wm after timeout: status %d, %+v", st, wmResp)
	}
	n := wmResp.Facts[0].Fields["n"].V
	if n.AsInt() != int64(timeoutBody.Result.Cycles) {
		t.Fatalf("counter %v != committed cycles %d", n, timeoutBody.Result.Cycles)
	}

	// …and after retracting the counter, a run quiesces normally.
	if st := call(t, "POST", sessURL+"/retract", retractRequest{Template: "counter"}, nil); st != 200 {
		t.Fatalf("retract: status %d", st)
	}
	var run runResponse
	if st := call(t, "POST", sessURL+"/run", runRequest{TimeoutMS: 5000}, &run); st != 200 || !run.Quiescent {
		t.Fatalf("run after timeout: status %d, %+v", st, run)
	}
}

func TestLRUEviction(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxSessions: 2})
	base := ts.URL
	a := createSession(t, base, createSessionRequest{Program: "quickstart"})
	b := createSession(t, base, createSessionRequest{Program: "quickstart"})
	// Touch a so b is the LRU victim.
	if st := call(t, "GET", base+"/api/v1/sessions/"+a.ID, nil, nil); st != 200 {
		t.Fatalf("touch: status %d", st)
	}
	c := createSession(t, base, createSessionRequest{Program: "quickstart"})
	if st := call(t, "GET", base+"/api/v1/sessions/"+b.ID, nil, nil); st != http.StatusNotFound {
		t.Fatalf("LRU session should be evicted: status %d", st)
	}
	for _, id := range []string{a.ID, c.ID} {
		if st := call(t, "GET", base+"/api/v1/sessions/"+id, nil, nil); st != 200 {
			t.Fatalf("session %s should survive: status %d", id, st)
		}
	}
	var m metricsPayload
	if st := call(t, "GET", base+"/metrics", nil, &m); st != 200 {
		t.Fatalf("metrics: status %d", st)
	}
	if m.Sessions.Evicted != 1 || m.Sessions.Live != 2 {
		t.Fatalf("metrics eviction counts wrong: %+v", m.Sessions)
	}
	_ = s
}

func TestIdleExpiry(t *testing.T) {
	_, ts := newTestServer(t, Config{IdleTTL: 50 * time.Millisecond})
	base := ts.URL
	info := createSession(t, base, createSessionRequest{Program: "quickstart"})
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := call(t, "GET", base+"/api/v1/sessions/"+info.ID, nil, nil)
		if st == http.StatusNotFound {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("session did not expire")
		}
		// Polling refreshes lastUsed — back off beyond the TTL so the
		// janitor gets a chance.
		time.Sleep(120 * time.Millisecond)
	}
	var m metricsPayload
	call(t, "GET", base+"/metrics", nil, &m)
	if m.Sessions.Expired == 0 {
		t.Fatalf("expired count = 0: %+v", m.Sessions)
	}
}

func TestSnapshotRoundTripOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	base := ts.URL
	info := createSession(t, base, createSessionRequest{Program: "quickstart"})
	sessURL := base + "/api/v1/sessions/" + info.ID
	call(t, "POST", sessURL+"/facts", assertRequest{Facts: []factPayload{
		{Template: "person", Fields: map[string]jsonValue{"name": {wm.Sym("ada")}, "age": {wm.Int(36)}}},
	}}, nil)
	var run runResponse
	if st := call(t, "POST", sessURL+"/run", runRequest{}, &run); st != 200 {
		t.Fatalf("run: status %d", st)
	}

	resp, err := http.Get(sessURL + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	snap, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.HasPrefix(string(snap), "(wm") {
		t.Fatalf("snapshot does not look like a (wm …) block: %q", snap[:min(len(snap), 40)])
	}

	// Reload into a schema-only session (no rules, no initial facts).
	decls := createSession(t, base, createSessionRequest{Source: `
(literalize person  name age)
(literalize greeted name counted)
(literalize tally   n)
`})
	declsURL := base + "/api/v1/sessions/" + decls.ID
	req, _ := http.NewRequest("POST", declsURL+"/snapshot", bytes.NewReader(snap))
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var cnt countResponse
	json.NewDecoder(resp2.Body).Decode(&cnt)
	resp2.Body.Close()
	if resp2.StatusCode != 200 {
		t.Fatalf("snapshot import: status %d", resp2.StatusCode)
	}
	if cnt.WMSize != run.WMSize {
		t.Fatalf("imported WM size %d != exported %d", cnt.WMSize, run.WMSize)
	}

	// Re-export from the copy: modulo time tags, same facts.
	resp3, err := http.Get(declsURL + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	snap2, _ := io.ReadAll(resp3.Body)
	resp3.Body.Close()
	if canonical(string(snap)) != canonical(string(snap2)) {
		t.Fatalf("snapshot did not round-trip:\n-- original --\n%s\n-- reimported --\n%s", snap, snap2)
	}
}

// canonical sorts a snapshot's fact lines so comparisons ignore ordering.
func canonical(s string) string {
	lines := strings.Split(s, "\n")
	facts := lines[:0]
	for _, l := range lines {
		if strings.HasPrefix(strings.TrimSpace(l), "(") && !strings.HasPrefix(l, "(wm") {
			facts = append(facts, strings.TrimSpace(l))
		}
	}
	sortStrings(facts)
	return strings.Join(facts, "\n")
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func TestMetricsHistogramsNonZero(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	base := ts.URL
	info := createSession(t, base, createSessionRequest{Source: boundedSrc})
	if st := call(t, "POST", base+"/api/v1/sessions/"+info.ID+"/run", runRequest{TimeoutMS: 30000}, nil); st != 200 {
		t.Fatalf("run: status %d", st)
	}
	var m metricsPayload
	if st := call(t, "GET", base+"/metrics", nil, &m); st != 200 {
		t.Fatalf("metrics: status %d", st)
	}
	if m.Engine.Cycles != 2000 || m.Engine.Fired != 2000 {
		t.Fatalf("engine counters wrong: %+v", m.Engine)
	}
	for _, phase := range []string{"match", "redact", "fire", "apply"} {
		p, ok := m.Engine.Phases[phase]
		if !ok || p.HistCount == 0 {
			t.Fatalf("phase %s histogram empty: %+v", phase, p)
		}
		var sum uint64
		for _, c := range p.Hist {
			sum += c
		}
		if sum != p.HistCount {
			t.Fatalf("phase %s histogram counts inconsistent", phase)
		}
	}
	if m.Engine.Window.Cycles == 0 || m.Engine.Window.Match.P50 < 0 {
		t.Fatalf("window summary empty: %+v", m.Engine.Window)
	}
	if m.Runs.Completed != 1 || m.Runs.Started != 1 {
		t.Fatalf("run counters wrong: %+v", m.Runs)
	}
}

func TestGracefulDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	base := ts.URL
	info := createSession(t, base, createSessionRequest{Source: drainSrc})
	sessURL := base + "/api/v1/sessions/" + info.ID

	runDone := make(chan runResponse, 1)
	go func() {
		var run runResponse
		if st := call(t, "POST", sessURL+"/run", runRequest{TimeoutMS: 30000}, &run); st != 200 {
			t.Errorf("in-flight run: status %d", st)
		}
		runDone <- run
	}()

	// Wait for the run to be active, then drain.
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		active := s.active
		s.mu.Unlock()
		if active > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("run never became active")
		}
		time.Sleep(time.Millisecond)
	}

	closed := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		closed <- s.Close(ctx)
	}()

	// New runs during the drain are rejected once draining is observed.
	drainDeadline := time.Now().Add(5 * time.Second)
	for {
		st := call(t, "POST", sessURL+"/run", runRequest{TimeoutMS: 1000}, nil)
		if st == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(drainDeadline) {
			t.Fatalf("draining server accepted a run: status %d", st)
		}
		time.Sleep(time.Millisecond)
	}

	run := <-runDone
	if !run.Quiescent || run.Cycles != 50000 {
		t.Fatalf("in-flight run should complete during drain: %+v", run)
	}
	if err := <-closed; err != nil {
		t.Fatalf("drain: %v", err)
	}
}
