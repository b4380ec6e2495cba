// Package load is a mixed-traffic generator for paruleld: N client
// goroutines spread assert/batch/run/snapshot requests over a set of
// sessions for a fixed duration and report throughput plus latency
// quantiles per operation. It drives the public HTTP API only — the same
// surface real clients use — so its numbers are end-to-end (routing, JSON,
// admission control, WAL, engine), not engine microbenchmarks.
//
// It is used two ways: by cmd/parload (standalone CLI) and by the
// repository benchmark (benchmark/).
package load

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"parulel/internal/stats"
)

// DefaultSource is the workload program: each asserted item fires the
// touch rule exactly once, so run cost scales with the asserted volume and
// never spins unboundedly.
const DefaultSource = `
(literalize item k state)
(rule touch
  <i> <- (item ^k <k> ^state new)
-->
  (modify <i> ^state done))
`

// StreamSource is the workload program for stream traffic: TTL'd event
// facts (per-fact overrides also work against it) and a per-sensor
// sliding-window aggregate, so continuous ingest exercises expiry and
// window maintenance, not just insertion.
const StreamSource = `
(literalize item k state)
(literalize event k sensor val state)
(ttl event 8)
(window evwin event ^key sensor ^ticks 8 ^val val)
(rule touch
  <i> <- (item ^k <k> ^state new)
-->
  (modify <i> ^state done))
(rule touch-event
  <e> <- (event ^k <k> ^state new)
-->
  (modify <e> ^state done))
`

// Mix weights the operation kinds. A zero weight disables the kind; an
// all-zero Mix defaults to {Assert: 4, Batch: 2, Run: 1, Snapshot: 1}.
type Mix struct {
	Assert   int `json:"assert"`   // single-fact POST /facts
	Batch    int `json:"batch"`    // POST /batch with BatchSize asserts
	Run      int `json:"run"`      // POST /run
	Snapshot int `json:"snapshot"` // GET /snapshot
	Stream   int `json:"stream"`   // POST /stream with StreamFrames NDJSON frames
}

func (m Mix) total() int { return m.Assert + m.Batch + m.Run + m.Snapshot + m.Stream }

// Config parameterizes one load run.
type Config struct {
	BaseURL string `json:"base_url,omitempty"`
	// BaseURLs lists every endpoint traffic spreads over (cluster mode).
	// Sessions are created round-robin across endpoints and pin to the
	// endpoint that last answered them: a 307 ownership redirect re-pins,
	// and a transport error fails the request over to the next endpoint.
	// Empty falls back to BaseURL.
	BaseURLs    []string      `json:"base_urls,omitempty"`
	Sessions    int           `json:"sessions"`    // sessions created and targeted; default 4
	Concurrency int           `json:"concurrency"` // client goroutines; default 8
	Duration    time.Duration `json:"-"`
	Mix         Mix           `json:"mix"`
	BatchSize   int           `json:"batch_size"` // facts per batch op; default 16
	// StreamFrames is the number of NDJSON frames per stream request;
	// each frame carries BatchSize facts, ticks the temporal clock once,
	// and the last frame runs the engine. Default 8.
	StreamFrames int `json:"stream_frames,omitempty"`
	// StreamTTL is the per-fact TTL override sent with streamed facts;
	// 0 sends none (the template default applies). Default 0.
	StreamTTL  int64         `json:"stream_ttl,omitempty"`
	Source     string        `json:"-"` // program source; default DefaultSource (StreamSource when the mix streams)
	RunTimeout time.Duration `json:"-"`
	Seed       int64         `json:"seed"`
	Client     *http.Client  `json:"-"`
}

func (c Config) withDefaults() Config {
	if len(c.BaseURLs) == 0 {
		c.BaseURLs = []string{c.BaseURL}
	}
	for i, b := range c.BaseURLs {
		c.BaseURLs[i] = strings.TrimSuffix(b, "/")
	}
	if c.Sessions <= 0 {
		c.Sessions = 4
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 8
	}
	if c.Duration <= 0 {
		c.Duration = 10 * time.Second
	}
	if c.Mix.total() <= 0 {
		c.Mix = Mix{Assert: 4, Batch: 2, Run: 1, Snapshot: 1}
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 16
	}
	if c.StreamFrames <= 0 {
		c.StreamFrames = 8
	}
	if c.Source == "" {
		if c.Mix.Stream > 0 {
			c.Source = StreamSource
		} else {
			c.Source = DefaultSource
		}
	}
	if c.RunTimeout <= 0 {
		c.RunTimeout = 10 * time.Second
	}
	if c.Client == nil {
		// Redirects are handled by the workers themselves (they cache the
		// owner endpoint per session), so the client must surface the 307
		// instead of silently following it.
		c.Client = &http.Client{
			Timeout:       30 * time.Second,
			CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse },
		}
	}
	return c
}

// OpStats aggregates one operation kind's outcomes.
type OpStats struct {
	Count       int     `json:"count"`
	Errors      int     `json:"errors"`       // non-2xx other than 429 and transport failures
	Rejected429 int     `json:"rejected_429"` // backpressure fast-fails
	Transport   int     `json:"transport_errors,omitempty"`
	P50MS       float64 `json:"p50_ms"`
	P95MS       float64 `json:"p95_ms"`
	P99MS       float64 `json:"p99_ms"`
	MaxMS       float64 `json:"max_ms"`
}

// StageStats aggregates one server-side stage's time across requests, as
// reported by the Server-Timing response header. Quantiles are over the
// per-request stage durations (requests that skipped the stage do not
// contribute).
type StageStats struct {
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	P50MS   float64 `json:"p50_ms"`
	P95MS   float64 `json:"p95_ms"`
	P99MS   float64 `json:"p99_ms"`
	MaxMS   float64 `json:"max_ms"`
}

// Report is the JSON result document.
type Report struct {
	Config          Config             `json:"config"`
	DurationMS      int64              `json:"duration_ms"`
	Requests        int                `json:"requests"`
	RequestsPerSec  float64            `json:"requests_per_sec"`
	Mutations       int                `json:"mutations"` // facts asserted (single + batched)
	MutationsPerSec float64            `json:"mutations_per_sec"`
	Errors5xx       int                `json:"errors_5xx"`
	Rejected429     int                `json:"rejected_429"`
	TransportErrors int                `json:"transport_errors"` // connection-level failures, counted apart from 5xx
	Retries         int                `json:"retries"`          // failover re-sends after a transport error
	Redirects       int                `json:"redirects"`        // 307 ownership redirects followed
	Ops             map[string]OpStats `json:"ops"`
	// Stages breaks request latency into the server's traced stages
	// (queue, wal, fsync, repl, run, …) parsed from Server-Timing headers.
	Stages       map[string]StageStats `json:"stages,omitempty"`
	StatusCounts map[string]int        `json:"status_counts"`
}

// parseServerTiming parses a Server-Timing header value ("wal;dur=1.2,
// run;dur=3.4") into per-stage durations, nil when absent or unparsable.
func parseServerTiming(h string) map[string]time.Duration {
	if h == "" {
		return nil
	}
	var out map[string]time.Duration
	for _, part := range strings.Split(h, ",") {
		fields := strings.Split(strings.TrimSpace(part), ";")
		if len(fields) < 2 || fields[0] == "" {
			continue
		}
		for _, f := range fields[1:] {
			f = strings.TrimSpace(f)
			if !strings.HasPrefix(f, "dur=") {
				continue
			}
			var msVal float64
			if _, err := fmt.Sscanf(f[len("dur="):], "%g", &msVal); err != nil {
				continue
			}
			if out == nil {
				out = make(map[string]time.Duration, 4)
			}
			out[fields[0]] += time.Duration(msVal * float64(time.Millisecond))
		}
	}
	return out
}

// statusTransport is the synthetic status recorded when a request never
// reached a server (connection refused, reset, client timeout). Kept out
// of the 5xx bucket: during a deliberate node kill these are expected,
// while a 5xx from a live server never is.
const statusTransport = 599

// sample is one completed request, recorded lock-free per worker and
// merged at the end.
type sample struct {
	op        string
	status    int
	latency   time.Duration
	facts     int // mutations this request asserted (0 unless 2xx)
	retries   int // transport-failover re-sends within this request
	redirects int // 307s followed within this request
	// stages is the server-side stage breakdown from the response's
	// Server-Timing header; nil when the server sent none.
	stages map[string]time.Duration
}

// router maps each session to its current home endpoint. New sessions
// round-robin across the base URLs; a 307 or a failover re-pins.
type router struct {
	mu    sync.Mutex
	bases []string
	home  map[string]string
	next  int
}

func newRouter(bases []string) *router {
	return &router{bases: bases, home: make(map[string]string)}
}

func (r *router) pick(sessID string) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if b, ok := r.home[sessID]; ok {
		return b
	}
	b := r.bases[r.next%len(r.bases)]
	r.next++
	r.home[sessID] = b
	return b
}

func (r *router) pin(sessID, base string) {
	r.mu.Lock()
	r.home[sessID] = base
	r.mu.Unlock()
}

// failover returns the endpoint after base in ring order, so a dead node's
// traffic lands on one live endpoint instead of scattering.
func (r *router) failover(base string) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, b := range r.bases {
		if b == base {
			return r.bases[(i+1)%len(r.bases)]
		}
	}
	return r.bases[0]
}

// Run executes the load shape against a live server and aggregates the
// results. It creates Config.Sessions fresh sessions, drives traffic for
// Config.Duration, and leaves the sessions in place (the server's LRU/TTL
// owns their lifecycle).
func Run(ctx context.Context, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()

	rt := newRouter(cfg.BaseURLs)
	sessions := make([]string, cfg.Sessions)
	for i := range sessions {
		base := cfg.BaseURLs[i%len(cfg.BaseURLs)]
		id, err := createSession(ctx, cfg, base)
		if err != nil {
			return nil, fmt.Errorf("creating session %d on %s: %w", i, base, err)
		}
		sessions[i] = id
		rt.pin(id, base)
	}

	deadline, cancel := context.WithTimeout(ctx, cfg.Duration)
	defer cancel()

	perWorker := make([][]sample, cfg.Concurrency)
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(w)*7919))
			var local []sample
			for n := 0; ; n++ {
				if deadline.Err() != nil {
					break
				}
				sessID := sessions[rng.Intn(len(sessions))]
				op := pick(cfg.Mix, rng)
				// Unique fact keys per worker so lost mutations are
				// detectable by counting (soak tests rely on this).
				key := fmt.Sprintf("w%d-%d", w, n)
				s := doOp(deadline, cfg, rt, op, sessID, key)
				if s.status != 0 {
					local = append(local, s)
				}
			}
			perWorker[w] = local
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(t0)

	rep := &Report{
		Config:       cfg,
		DurationMS:   elapsed.Milliseconds(),
		Ops:          make(map[string]OpStats),
		StatusCounts: make(map[string]int),
	}
	latencies := make(map[string][]time.Duration)
	counts := make(map[string]*OpStats)
	stageLat := make(map[string][]time.Duration)
	for _, local := range perWorker {
		for _, s := range local {
			for stage, d := range s.stages {
				stageLat[stage] = append(stageLat[stage], d)
			}
			rep.Requests++
			rep.StatusCounts[fmt.Sprint(s.status)]++
			st := counts[s.op]
			if st == nil {
				st = &OpStats{}
				counts[s.op] = st
			}
			st.Count++
			rep.Retries += s.retries
			rep.Redirects += s.redirects
			switch {
			case s.status == statusTransport:
				st.Transport++
				rep.TransportErrors++
			case s.status == http.StatusTooManyRequests:
				st.Rejected429++
				rep.Rejected429++
			case s.status >= 500:
				st.Errors++
				rep.Errors5xx++
			case s.status >= 400:
				st.Errors++
			default:
				rep.Mutations += s.facts
			}
			latencies[s.op] = append(latencies[s.op], s.latency)
		}
	}
	for op, st := range counts {
		ds := latencies[op]
		st.P50MS = ms(stats.Quantile(ds, 0.50))
		st.P95MS = ms(stats.Quantile(ds, 0.95))
		st.P99MS = ms(stats.Quantile(ds, 0.99))
		st.MaxMS = ms(stats.Quantile(ds, 1))
		rep.Ops[op] = *st
	}
	for stage, ds := range stageLat {
		var total time.Duration
		for _, d := range ds {
			total += d
		}
		if rep.Stages == nil {
			rep.Stages = make(map[string]StageStats, len(stageLat))
		}
		rep.Stages[stage] = StageStats{
			Count:   len(ds),
			TotalMS: ms(total),
			P50MS:   ms(stats.Quantile(ds, 0.50)),
			P95MS:   ms(stats.Quantile(ds, 0.95)),
			P99MS:   ms(stats.Quantile(ds, 0.99)),
			MaxMS:   ms(stats.Quantile(ds, 1)),
		}
	}
	secs := elapsed.Seconds()
	if secs > 0 {
		rep.RequestsPerSec = float64(rep.Requests) / secs
		rep.MutationsPerSec = float64(rep.Mutations) / secs
	}
	return rep, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// pick draws an operation kind according to the mix weights.
func pick(m Mix, rng *rand.Rand) string {
	n := rng.Intn(m.total())
	switch {
	case n < m.Assert:
		return "assert"
	case n < m.Assert+m.Batch:
		return "batch"
	case n < m.Assert+m.Batch+m.Run:
		return "run"
	case n < m.Assert+m.Batch+m.Run+m.Snapshot:
		return "snapshot"
	default:
		return "stream"
	}
}

// doOp issues one request, following at most one ownership redirect and
// one transport failover. A zero-status sample means the request never
// completed (context over mid-flight) and is not counted.
func doOp(ctx context.Context, cfg Config, rt *router, op, sessID, key string) sample {
	if op == "stream" {
		return doStream(ctx, cfg, rt, sessID, key)
	}
	var (
		method = http.MethodPost
		path   = "/api/v1/sessions/" + sessID
		body   any
		facts  int
	)
	switch op {
	case "assert":
		path += "/facts"
		body = map[string]any{"facts": []any{fact(key)}}
		facts = 1
	case "batch":
		fs := make([]any, cfg.BatchSize)
		for i := range fs {
			fs[i] = fact(fmt.Sprintf("%s-%d", key, i))
		}
		path += "/batch"
		body = map[string]any{"ops": []any{map[string]any{"op": "assert", "facts": fs}}}
		facts = cfg.BatchSize
	case "run":
		path += "/run"
		body = map[string]any{"timeout_ms": cfg.RunTimeout.Milliseconds()}
	case "snapshot":
		method = http.MethodGet
		path += "/snapshot"
	}
	base := rt.pick(sessID)
	s := sample{op: op}
	t0 := time.Now()
	for attempt := 0; ; attempt++ {
		status, loc, timing, err := do(ctx, cfg.Client, method, base+path, body, nil)
		s.stages = parseServerTiming(timing)
		switch {
		case err != nil:
			// Never reached a server. Fail over once to the next endpoint:
			// in a cluster the session's replica owner answers there.
			if attempt == 0 && len(cfg.BaseURLs) > 1 {
				base = rt.failover(base)
				rt.pin(sessID, base)
				s.retries++
				continue
			}
			s.status = statusTransport
		case status == 0:
			return sample{} // run ended mid-flight; not an observation
		case status == http.StatusTemporaryRedirect && loc != "":
			// Ownership redirect: cache the owner and retry there.
			if nb := baseOf(loc); nb != "" && attempt == 0 {
				rt.pin(sessID, nb)
				base = nb
				s.redirects++
				continue
			}
			s.status = status
		default:
			s.status = status
			if status < 300 {
				s.facts = facts
			}
		}
		s.latency = time.Since(t0)
		return s
	}
}

// doStream issues one NDJSON stream request of StreamFrames frames, each
// carrying BatchSize event facts and one clock tick; the final frame runs
// the engine. Asserted facts are counted from the per-frame response
// lines, so a stream cut short by an in-band error still credits its
// applied prefix. An in-band error is counted like a 5xx: a healthy
// server streaming a well-formed workload must never produce one.
func doStream(ctx context.Context, cfg Config, rt *router, sessID, key string) sample {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := 0; i < cfg.StreamFrames; i++ {
		facts := make([]any, cfg.BatchSize)
		for j := range facts {
			f := map[string]any{
				"template": "event",
				"fields": map[string]any{
					"k":      fmt.Sprintf("%s-%d-%d", key, i, j),
					"sensor": fmt.Sprintf("sensor-%d", j%8),
					"val":    j,
					"state":  "new",
				},
			}
			if cfg.StreamTTL > 0 {
				f["ttl"] = cfg.StreamTTL
			}
			facts[j] = f
		}
		frame := map[string]any{"facts": facts}
		if i == cfg.StreamFrames-1 {
			frame["run"] = true
			frame["timeout_ms"] = cfg.RunTimeout.Milliseconds()
		}
		_ = enc.Encode(frame)
	}
	body := buf.Bytes()

	base := rt.pick(sessID)
	path := "/api/v1/sessions/" + sessID + "/stream"
	s := sample{op: "stream"}
	t0 := time.Now()
	for attempt := 0; ; attempt++ {
		status, loc, timing, asserted, streamErr, err := doStreamRequest(ctx, cfg.Client, base+path, body)
		s.stages = parseServerTiming(timing)
		switch {
		case err != nil:
			if attempt == 0 && len(cfg.BaseURLs) > 1 {
				base = rt.failover(base)
				rt.pin(sessID, base)
				s.retries++
				continue
			}
			s.status = statusTransport
		case status == 0:
			return sample{} // run ended mid-flight; not an observation
		case status == http.StatusTemporaryRedirect && loc != "":
			if nb := baseOf(loc); nb != "" && attempt == 0 {
				rt.pin(sessID, nb)
				base = nb
				s.redirects++
				continue
			}
			s.status = status
		case streamErr != "":
			s.status = http.StatusInternalServerError
			s.facts = asserted
		default:
			s.status = status
			if status < 300 {
				s.facts = asserted
			}
		}
		s.latency = time.Since(t0)
		return s
	}
}

// doStreamRequest posts one NDJSON body and folds the response lines:
// total facts asserted plus the first in-band error, if any.
func doStreamRequest(ctx context.Context, client *http.Client, url string, body []byte) (status int, loc, timing string, asserted int, streamErr string, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, "", "", 0, "", err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := client.Do(req)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			return 0, "", "", 0, "", nil
		}
		return 0, "", "", 0, "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 300 {
		dec := json.NewDecoder(resp.Body)
		for {
			var line struct {
				Asserted int    `json:"asserted"`
				Error    string `json:"error"`
			}
			if derr := dec.Decode(&line); derr != nil {
				break
			}
			asserted += line.Asserted
			if line.Error != "" {
				streamErr = line.Error
				break
			}
		}
	}
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, resp.Header.Get("Location"), resp.Header.Get("Server-Timing"), asserted, streamErr, nil
}

// baseOf extracts scheme://host from a redirect Location.
func baseOf(loc string) string {
	u, err := url.Parse(loc)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return ""
	}
	return u.Scheme + "://" + u.Host
}

// fact renders one workload item in wire form.
func fact(key string) map[string]any {
	return map[string]any{"template": "item", "fields": map[string]any{"k": key, "state": "new"}}
}

func createSession(ctx context.Context, cfg Config, base string) (string, error) {
	var out struct {
		ID string `json:"id"`
	}
	req := map[string]any{"source": cfg.Source}
	status, _, _, err := do(ctx, cfg.Client, http.MethodPost, base+"/api/v1/sessions", req, &out)
	if err != nil {
		return "", err
	}
	if status != http.StatusCreated {
		return "", fmt.Errorf("unexpected status %d", status)
	}
	return out.ID, nil
}

// do issues one JSON request, measuring nothing itself — callers time it.
// The response body is always drained so connections are reused. The
// second return is the Location header of a redirect response, the third
// the Server-Timing header.
func do(ctx context.Context, client *http.Client, method, url string, in, out any) (int, string, string, error) {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return 0, "", "", err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return 0, "", "", err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			return 0, "", "", nil
		}
		return 0, "", "", err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, "", "", err
		}
	}
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, resp.Header.Get("Location"), resp.Header.Get("Server-Timing"), nil
}
