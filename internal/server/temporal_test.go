package server

// Temporal subsystem coverage at the HTTP surface: the batch "tick" op,
// the NDJSON stream endpoint, and — the durability contract — TTL expiry
// reproducing identically across WAL replay, checkpoint recovery, and a
// kill in the middle of a live stream. Expired facts must never
// resurrect.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"testing"

	"parulel/internal/wal"
	"parulel/internal/wm"
	"parulel/internal/workload"
)

// temporalSrc: ev facts live two ticks (the finish rule's modify restarts
// the clock on the rewritten fact), done facts are permanent, and a
// window keyed on state tracks the live ev population.
const temporalSrc = `
(literalize ev n state)
(literalize done n)
(ttl ev 2)
(window win ev ^key state ^ticks 2)
(rule finish
  <e> <- (ev ^n <n> ^state new)
-->
  (make done ^n <n>)
  (modify <e> ^state old))
`

// streamBody renders frames [from, to): three ev facts per frame, one
// tick, one run — the canonical stream script shared by the crashed
// session and its uninterrupted control.
func streamBody(t *testing.T, from, to int) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for f := from; f < to; f++ {
		facts := make([]any, 3)
		for i := range facts {
			facts[i] = map[string]any{
				"template": "ev",
				"fields":   map[string]any{"n": f*10 + i, "state": "new"},
			}
		}
		if err := enc.Encode(map[string]any{"facts": facts, "run": true, "timeout_ms": 10000}); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// streamCall posts one NDJSON stream request and returns the decoded
// response lines.
func streamCall(t *testing.T, url string, body []byte) []streamFrameResult {
	t.Helper()
	resp, err := http.Post(url+"/stream", "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("stream: status %d: %s", resp.StatusCode, b)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	var lines []streamFrameResult
	dec := json.NewDecoder(resp.Body)
	for {
		var line streamFrameResult
		if err := dec.Decode(&line); err != nil {
			if err == io.EOF {
				return lines
			}
			t.Fatal(err)
		}
		lines = append(lines, line)
	}
}

// TestBatchTickOp: the batch "tick" op advances the clock, reports the
// resulting value, and counts the facts it expired.
func TestBatchTickOp(t *testing.T) {
	_, ts := newTestServer(t, Config{DataDir: t.TempDir()})
	info := createSession(t, ts.URL, createSessionRequest{Source: temporalSrc})
	url := ts.URL + "/api/v1/sessions/" + info.ID

	var resp batchResponse
	req := batchRequest{Ops: []batchOp{
		{Op: "assert", Facts: []factPayload{
			{Template: "ev", Fields: map[string]jsonValue{"n": {V: wm.Int(1)}, "state": {V: wm.Sym("idle")}}},
			{Template: "ev", Fields: map[string]jsonValue{"n": {V: wm.Int(2)}, "state": {V: wm.Sym("idle")}}},
		}},
		{Op: "tick"},
	}}
	if st := call(t, "POST", url+"/batch", req, &resp); st != http.StatusOK {
		t.Fatalf("batch: status %d", st)
	}
	if resp.Results[1].Tick != 1 || resp.Results[1].Count != 0 {
		t.Fatalf("tick result %+v, want tick 1, count 0", resp.Results[1])
	}
	if got := getInfo(t, url); got.Tick != 1 {
		t.Fatalf("session tick %d, want 1", got.Tick)
	}

	// Two more ticks: the facts absorbed at tick 1 expire at tick 3.
	if st := call(t, "POST", url+"/batch", batchRequest{Ops: []batchOp{{Op: "tick", Ticks: 2}}}, &resp); st != http.StatusOK {
		t.Fatalf("batch: status %d", st)
	}
	if resp.Results[0].Tick != 3 || resp.Results[0].Count != 2 {
		t.Fatalf("tick result %+v, want tick 3, count 2", resp.Results[0])
	}
	if resp.WMSize != 0 {
		t.Fatalf("wm size %d after expiry, want 0", resp.WMSize)
	}

	// Negative tick counts are rejected up front.
	if st := call(t, "POST", url+"/batch", batchRequest{Ops: []batchOp{{Op: "tick", Ticks: -1}}}, nil); st != http.StatusBadRequest {
		t.Fatalf("negative ticks: status %d, want 400", st)
	}
}

// TestAssertTTLOverride: a per-fact ttl in the assert payload beats the
// template default.
func TestAssertTTLOverride(t *testing.T) {
	_, ts := newTestServer(t, Config{DataDir: t.TempDir()})
	info := createSession(t, ts.URL, createSessionRequest{Source: temporalSrc})
	url := ts.URL + "/api/v1/sessions/" + info.ID

	req := assertRequest{Facts: []factPayload{
		{Template: "done", Fields: map[string]jsonValue{"n": {V: wm.Int(9)}}, TTL: 1},
	}}
	if st := call(t, "POST", url+"/facts", req, nil); st != http.StatusOK {
		t.Fatalf("assert: status %d", st)
	}
	var resp batchResponse
	if st := call(t, "POST", url+"/batch", batchRequest{Ops: []batchOp{{Op: "tick", Ticks: 2}}}, &resp); st != http.StatusOK {
		t.Fatalf("batch: status %d", st)
	}
	if resp.Results[0].Count != 1 || resp.WMSize != 0 {
		t.Fatalf("override fact not expired: %+v (wm %d)", resp.Results[0], resp.WMSize)
	}

	// Negative TTLs are rejected.
	req.Facts[0].TTL = -1
	if st := call(t, "POST", url+"/facts", req, nil); st != http.StatusBadRequest {
		t.Fatalf("negative ttl: status %d, want 400", st)
	}
}

// TestStreamEndpoint: frames apply atomically in order, each response
// line reports the running clock and WM size, and a bad frame terminates
// the stream in-band with the applied prefix preserved.
func TestStreamEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{DataDir: t.TempDir()})
	info := createSession(t, ts.URL, createSessionRequest{Source: temporalSrc})
	url := ts.URL + "/api/v1/sessions/" + info.ID

	lines := streamCall(t, url, streamBody(t, 0, 3))
	if len(lines) != 3 {
		t.Fatalf("%d response lines, want 3", len(lines))
	}
	for i, line := range lines {
		if line.Error != "" {
			t.Fatalf("frame %d: error %q", i+1, line.Error)
		}
		if line.Frame != i+1 || line.Asserted != 3 || line.Tick != int64(i+1) {
			t.Fatalf("frame %d: %+v", i+1, line)
		}
		if line.Run == nil || line.Run.Firings == 0 {
			t.Fatalf("frame %d: run did not fire", i+1)
		}
	}
	if got := getInfo(t, url); got.Tick != 3 {
		t.Fatalf("session tick %d, want 3", got.Tick)
	}

	// A frame naming an unknown template ends the stream after the first
	// frame applied; the session keeps that frame's effects.
	var bad bytes.Buffer
	bad.Write(streamBody(t, 3, 4))
	fmt.Fprintln(&bad, `{"facts":[{"template":"ghost","fields":{}}]}`)
	bad.Write(streamBody(t, 4, 5))
	lines = streamCall(t, url, bad.Bytes())
	if len(lines) != 2 {
		t.Fatalf("%d response lines after bad frame, want 2", len(lines))
	}
	if lines[0].Error != "" || lines[1].Error == "" {
		t.Fatalf("want ok then error, got %+v", lines)
	}
	if got := getInfo(t, url); got.Tick != 4 {
		t.Fatalf("session tick %d after terminated stream, want 4", got.Tick)
	}
}

// TestStreamBoundedWM is EXPERIMENTS.md E14 as an assertion: however many
// facts stream through a durable session, TTL expiry holds working memory
// to what a few ticks' worth of arrivals occupy. A transaction lives its
// six-tick TTL plus the tick its settling restarts the TTL on; the window
// aggregates and flags (one each per card at most) fit in the bound's last
// frame's worth.
func TestStreamBoundedWM(t *testing.T) {
	const frames, perFrame, cards, ttl = 200, 50, 8, 6
	const bound = (ttl + 2) * perFrame
	_, ts := newTestServer(t, Config{DataDir: t.TempDir()})
	info := createSession(t, ts.URL, createSessionRequest{Source: workload.FraudStreamProgram})
	url := ts.URL + "/api/v1/sessions/" + info.ID

	streamed, expired, peak, final := 0, 0, 0, 0
	for base := 0; base < frames; base += 20 { // 20 frames a request, one tick + run per frame
		var body bytes.Buffer
		enc := json.NewEncoder(&body)
		for f := base; f < base+20; f++ {
			var facts []factPayload
			for _, fields := range workload.FraudTxns(f, perFrame, cards, 1) {
				wire := make(map[string]jsonValue, len(fields))
				for k, v := range fields {
					wire[k] = jsonValue{V: v}
				}
				facts = append(facts, factPayload{Template: "txn", Fields: wire})
			}
			if err := enc.Encode(map[string]any{"facts": facts, "run": true, "timeout_ms": 10000}); err != nil {
				t.Fatal(err)
			}
		}
		for _, line := range streamCall(t, url, body.Bytes()) {
			if line.Error != "" {
				t.Fatalf("frame %d: %s", base+line.Frame, line.Error)
			}
			streamed += line.Asserted
			expired += line.Expired
			peak, final = max(peak, line.WMSize), line.WMSize
		}
	}
	t.Logf("streamed %d, expired %d, peak wm %d, final wm %d (bound %d)", streamed, expired, peak, final, bound)
	if streamed != frames*perFrame || expired == 0 {
		t.Fatalf("streamed %d facts (want %d), %d expired", streamed, frames*perFrame, expired)
	}
	if peak > bound || final > bound {
		t.Errorf("working memory peaked at %d and ended at %d with %d facts streamed; TTL expiry should hold it to %d", peak, final, streamed, bound)
	}
	var live struct {
		Total int `json:"total"`
	}
	if st := call(t, "GET", url+"/wm?template=txn&limit=1", nil, &live); st != http.StatusOK {
		t.Fatalf("wm: status %d", st)
	}
	if live.Total != streamed-expired {
		t.Errorf("%d live transactions, want streamed %d − expired %d = %d", live.Total, streamed, expired, streamed-expired)
	}
}

// TestStreamUnknownFrameKey: a frame with a key the endpoint does not
// know is a typo, not an empty frame. It used to pass for one — the
// stream's decoder alone did not reject unknown keys — and an empty frame
// still advances the clock by the default tick, which can expire facts.
// Now it answers an in-band error like /facts and /batch answer 400:
// nothing applied, no tick, nothing logged, stream over.
func TestStreamUnknownFrameKey(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{DataDir: dir})
	info := createSession(t, ts.URL, createSessionRequest{Source: temporalSrc})
	url := ts.URL + "/api/v1/sessions/" + info.ID
	records := func() int {
		res, err := wal.ScanFile(filepath.Join(dir, "sessions", info.ID, walFile))
		if err != nil {
			t.Fatal(err)
		}
		return len(res.Records)
	}

	// One ev fact, absorbed at tick 1, due to expire two ticks later.
	lines := streamCall(t, url, []byte(`{"facts":[{"template":"ev","fields":{"n":1,"state":"idle"}}]}`+"\n"))
	if len(lines) != 1 || lines[0].Error != "" || lines[0].Tick != 1 {
		t.Fatalf("first frame: %+v", lines)
	}
	logged, live := records(), lines[0].WMSize // the fact and its window aggregate

	for _, typo := range []string{
		`{"fact":[{"template":"ev","fields":{"n":2,"state":"idle"}}]}`,
		`{"facts":[{"template":"ev","field":{"n":2}}]}`,
		`{"facts":[],"tick":0}`,
	} {
		// The typo'd frame comes first and a valid one follows: the stream
		// must end at the typo.
		body := typo + "\n" + `{"facts":[{"template":"ev","fields":{"n":3,"state":"idle"}}]}` + "\n"
		lines = streamCall(t, url, []byte(body))
		if len(lines) != 1 || !strings.Contains(lines[0].Error, "unknown field") || lines[0].Frame != 0 {
			t.Fatalf("%s: want one in-band unknown-field error line, got %+v", typo, lines)
		}
		if got := getInfo(t, url); got.Tick != 1 || got.WMSize != live {
			t.Fatalf("%s: tick %d, wm %d after the refused frame; want 1, %d (no tick, nothing expired or asserted)", typo, got.Tick, got.WMSize, live)
		}
		if got := records(); got != logged {
			t.Fatalf("%s: %d log records, was %d", typo, got, logged)
		}
	}
}

// TestTemporalRecoveryAfterRestart: TTL expiry driven through the stream
// endpoint survives a kill-and-restart byte-identically — the WAL's tick
// records replay the same expirations — and the recovered session keeps
// evolving exactly like an uninterrupted control. Facts that expired
// before the crash must not resurrect.
func TestTemporalRecoveryAfterRestart(t *testing.T) {
	cfg := Config{DataDir: t.TempDir(), Fsync: wal.PolicyAlways}
	tsA := startCrashable(t, cfg)
	info := createSession(t, tsA.URL, createSessionRequest{Source: temporalSrc})
	urlA := tsA.URL + "/api/v1/sessions/" + info.ID

	streamCall(t, urlA, streamBody(t, 0, 4))
	var resp batchResponse
	if st := call(t, "POST", urlA+"/batch", batchRequest{Ops: []batchOp{{Op: "tick", Ticks: 2}}}, &resp); st != http.StatusOK {
		t.Fatalf("batch: status %d", st)
	}
	if resp.Results[0].Count == 0 {
		t.Fatal("trailing ticks expired nothing; test premise broken")
	}
	wantSnap := exportSnapshot(t, urlA)
	wantInfo := getInfo(t, urlA)
	if strings.Contains(wantSnap, "(ev ^n 0 ") {
		t.Fatal("frame-0 fact still live before the crash; test premise broken")
	}
	tsA.Close() // crash: no drain, no checkpoint

	_, tsB := newTestServer(t, cfg)
	urlB := tsB.URL + "/api/v1/sessions/" + info.ID
	gotInfo := getInfo(t, urlB)
	if gotInfo.Tick != wantInfo.Tick || gotInfo.Cycles != wantInfo.Cycles ||
		gotInfo.Firings != wantInfo.Firings || gotInfo.WMSize != wantInfo.WMSize {
		t.Fatalf("recovered counters differ:\n got %+v\nwant %+v", gotInfo, wantInfo)
	}
	gotSnap := exportSnapshot(t, urlB)
	if gotSnap != wantSnap {
		t.Fatalf("recovered snapshot differs:\n-- got --\n%s\n-- want --\n%s", gotSnap, wantSnap)
	}
	if strings.Contains(gotSnap, "(ev ^n 0 ") {
		t.Fatal("expired fact resurrected by replay")
	}

	// The recovered session and a fresh control must evolve identically
	// from here: same frames, same ticks, same expirations.
	control := createSession(t, tsB.URL, createSessionRequest{Source: temporalSrc})
	controlURL := tsB.URL + "/api/v1/sessions/" + control.ID
	streamCall(t, controlURL, streamBody(t, 0, 4))
	if st := call(t, "POST", controlURL+"/batch", batchRequest{Ops: []batchOp{{Op: "tick", Ticks: 2}}}, nil); st != http.StatusOK {
		t.Fatalf("control batch: status %d", st)
	}
	for _, u := range []string{urlB, controlURL} {
		streamCall(t, u, streamBody(t, 4, 6))
	}
	if a, b := exportSnapshot(t, urlB), exportSnapshot(t, controlURL); a != b {
		t.Fatalf("post-recovery evolution diverged:\n-- recovered --\n%s\n-- control --\n%s", a, b)
	}
}

// TestTemporalCheckpointRecovery: with a checkpoint after every record,
// recovery restores the clock from the checkpoint header, not from tick
// replay — absorbed facts must still expire on schedule afterwards.
func TestTemporalCheckpointRecovery(t *testing.T) {
	cfg := Config{DataDir: t.TempDir(), Fsync: wal.PolicyAlways, CheckpointEvery: 1}
	tsA := startCrashable(t, cfg)
	info := createSession(t, tsA.URL, createSessionRequest{Source: temporalSrc})
	urlA := tsA.URL + "/api/v1/sessions/" + info.ID

	streamCall(t, urlA, streamBody(t, 0, 2))
	wantSnap := exportSnapshot(t, urlA)
	wantInfo := getInfo(t, urlA)
	tsA.Close()

	_, tsB := newTestServer(t, cfg)
	urlB := tsB.URL + "/api/v1/sessions/" + info.ID
	gotInfo := getInfo(t, urlB)
	if gotInfo.Tick != wantInfo.Tick || gotInfo.WMSize != wantInfo.WMSize {
		t.Fatalf("checkpoint recovery differs:\n got %+v\nwant %+v", gotInfo, wantInfo)
	}
	if gotSnap := exportSnapshot(t, urlB); gotSnap != wantSnap {
		t.Fatalf("checkpoint recovery snapshot differs:\n-- got --\n%s\n-- want --\n%s", gotSnap, wantSnap)
	}

	// The restored clock must still know when the pre-crash facts die:
	// frame 1's rewritten facts were absorbed at tick 2 (expire 4) and
	// frame 2's rewrites get absorbed at tick 3 (expire 5), so three more
	// ticks clear every ev fact.
	var resp batchResponse
	if st := call(t, "POST", urlB+"/batch", batchRequest{Ops: []batchOp{{Op: "tick", Ticks: 3}}}, &resp); st != http.StatusOK {
		t.Fatalf("batch: status %d", st)
	}
	if resp.Results[0].Count == 0 {
		t.Fatal("restored clock expired nothing: absorption state lost in the checkpoint")
	}
	if snap := exportSnapshot(t, urlB); strings.Contains(snap, "(ev ") {
		t.Fatalf("ev facts survive post-recovery expiry:\n%s", snap)
	}
}

// TestKillMidStreamRecovery: the server dies while a stream request is
// live. Every acknowledged frame was persisted before its response line
// was emitted, so recovery must reconstruct exactly the acknowledged
// prefix — matching a control session that streamed the same frames
// uninterrupted — and pre-crash expirations must hold.
func TestKillMidStreamRecovery(t *testing.T) {
	cfg := Config{DataDir: t.TempDir(), Fsync: wal.PolicyAlways}
	tsA := startCrashable(t, cfg)
	info := createSession(t, tsA.URL, createSessionRequest{Source: temporalSrc})
	urlA := tsA.URL + "/api/v1/sessions/" + info.ID

	// Three frames land in a completed request first.
	streamCall(t, urlA, streamBody(t, 0, 3))

	// Then a stream is cut down mid-request: two frames acknowledged, the
	// connection severed while the handler waits for the next frame.
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, urlA+"/stream", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	respCh := make(chan *http.Response, 1)
	errCh := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			errCh <- err
			return
		}
		respCh <- resp
	}()
	if _, err := pw.Write(streamBody(t, 3, 5)); err != nil {
		t.Fatal(err)
	}
	var resp *http.Response
	select {
	case resp = <-respCh:
	case err := <-errCh:
		t.Fatalf("stream request failed before first frame: %v", err)
	}
	dec := json.NewDecoder(resp.Body)
	for i := 0; i < 2; i++ {
		var line streamFrameResult
		if err := dec.Decode(&line); err != nil {
			t.Fatalf("frame %d response: %v", i+4, err)
		}
		if line.Error != "" {
			t.Fatalf("frame %d: error %q", i+4, line.Error)
		}
	}
	tsA.CloseClientConnections() // kill the live stream
	resp.Body.Close()
	pw.Close()
	tsA.Close()

	_, tsB := newTestServer(t, cfg)
	urlB := tsB.URL + "/api/v1/sessions/" + info.ID
	gotInfo := getInfo(t, urlB)
	if gotInfo.Tick != 5 {
		t.Fatalf("recovered tick %d, want 5 (5 acknowledged frames)", gotInfo.Tick)
	}
	gotSnap := exportSnapshot(t, urlB)
	if strings.Contains(gotSnap, "(ev ^n 0 ") {
		t.Fatal("fact expired before the crash resurrected after recovery")
	}

	// A control session streaming the same five frames uninterrupted must
	// reach the identical state.
	control := createSession(t, tsB.URL, createSessionRequest{Source: temporalSrc})
	controlURL := tsB.URL + "/api/v1/sessions/" + control.ID
	streamCall(t, controlURL, streamBody(t, 0, 5))
	if controlSnap := exportSnapshot(t, controlURL); controlSnap != gotSnap {
		t.Fatalf("recovered state differs from uninterrupted control:\n-- recovered --\n%s\n-- control --\n%s", gotSnap, controlSnap)
	}
}
