package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"parulel/internal/match"
	"parulel/internal/stats"
)

// fetch returns a response's status, headers and body as a string.
func fetch(t *testing.T, url string) (int, http.Header, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, string(body)
}

// promLine matches one exposition sample: name, optional labels, value.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [-+]?([0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?|\+Inf)$`)

// checkExposition validates every line of a Prometheus text body.
func checkExposition(t *testing.T, body string) {
	t.Helper()
	lines := strings.Split(strings.TrimRight(body, "\n"), "\n")
	if len(lines) == 0 {
		t.Fatal("empty exposition body")
	}
	for _, ln := range lines {
		if strings.HasPrefix(ln, "# HELP ") || strings.HasPrefix(ln, "# TYPE ") {
			continue
		}
		if !promLine.MatchString(ln) {
			t.Errorf("bad exposition line: %q", ln)
		}
		if strings.Contains(ln, "NaN") || strings.Contains(ln, "Inf") && !strings.Contains(ln, `le="+Inf"`) {
			t.Errorf("non-finite sample: %q", ln)
		}
	}
}

func TestMetricsFreshServerNoNaN(t *testing.T) {
	// Zero cycles have run: every aggregate must still be finite JSON and
	// a valid exposition (no NaN from 0/0 percentiles or empty windows).
	_, ts := newTestServer(t, Config{})

	st, _, body := fetch(t, ts.URL+"/metrics")
	if st != http.StatusOK {
		t.Fatalf("/metrics status %d", st)
	}
	for _, bad := range []string{"NaN", "Infinity", "+Inf", "-Inf"} {
		if strings.Contains(body, bad) {
			t.Errorf("fresh /metrics contains %q:\n%s", bad, body)
		}
	}

	st, _, prom := fetch(t, ts.URL+"/metrics?format=prometheus")
	if st != http.StatusOK {
		t.Fatalf("prometheus status %d", st)
	}
	checkExposition(t, prom)
	for _, want := range []string{
		"parulel_engine_cycles_total 0",
		"parulel_sessions_live 0",
		`parulel_engine_phase_seconds_bucket{phase="match",le="+Inf"} 0`,
		`parulel_engine_phase_seconds_count{phase="match"} 0`,
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func TestMetricsAndHealthHeaders(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	st, h, _ := fetch(t, ts.URL+"/metrics")
	if st != http.StatusOK || h.Get("Content-Type") != "application/json" || h.Get("Cache-Control") != "no-cache" {
		t.Errorf("json /metrics headers: status=%d type=%q cache=%q", st, h.Get("Content-Type"), h.Get("Cache-Control"))
	}

	st, h, _ = fetch(t, ts.URL+"/metrics?format=prometheus")
	if st != http.StatusOK || h.Get("Content-Type") != "text/plain; version=0.0.4; charset=utf-8" || h.Get("Cache-Control") != "no-cache" {
		t.Errorf("prometheus /metrics headers: status=%d type=%q cache=%q", st, h.Get("Content-Type"), h.Get("Cache-Control"))
	}

	st, h, _ = fetch(t, ts.URL+"/healthz")
	if st != http.StatusOK || h.Get("Content-Type") != "application/json" || h.Get("Cache-Control") != "no-cache" {
		t.Errorf("/healthz headers: status=%d type=%q cache=%q", st, h.Get("Content-Type"), h.Get("Cache-Control"))
	}

	st, _, body := fetch(t, ts.URL+"/metrics?format=xml")
	if st != http.StatusNotAcceptable {
		t.Errorf("unknown format: status %d body %s", st, body)
	}
}

func TestTraceEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{TraceCycles: 64})
	base := ts.URL
	info := createSession(t, base, createSessionRequest{Source: boundedSrc})
	sessURL := base + "/api/v1/sessions/" + info.ID

	var tr traceResponse
	if st := call(t, "GET", sessURL+"/trace", nil, &tr); st != http.StatusOK {
		t.Fatalf("trace before run: status %d", st)
	}
	if tr.Total != 0 || len(tr.Events) != 0 || tr.Capacity != 64 {
		t.Fatalf("fresh trace: %+v", tr)
	}

	var run runResponse
	if st := call(t, "POST", sessURL+"/run", runRequest{}, &run); st != http.StatusOK {
		t.Fatalf("run: status %d", st)
	}
	if run.Cycles != 2000 {
		t.Fatalf("run cycles = %d, want 2000", run.Cycles)
	}

	if st := call(t, "GET", sessURL+"/trace", nil, &tr); st != http.StatusOK {
		t.Fatalf("trace: status %d", st)
	}
	if tr.Total != 2000 {
		t.Errorf("trace total = %d, want 2000", tr.Total)
	}
	if len(tr.Events) != 64 {
		t.Fatalf("retained %d events, want ring capacity 64", len(tr.Events))
	}
	last := tr.Events[len(tr.Events)-1]
	if last.Cycle != 2000 {
		t.Errorf("newest event cycle = %d, want 2000", last.Cycle)
	}
	for i, e := range tr.Events {
		if want := 2000 - 63 + i; e.Cycle != want {
			t.Fatalf("event %d cycle = %d, want %d (oldest-first)", i, e.Cycle, want)
		}
	}
	if tr.Events[0].RuleFirings["tick"] != 1 || tr.Events[0].Fired != 1 {
		t.Errorf("event missing rule firings: %+v", tr.Events[0])
	}

	if st := call(t, "GET", sessURL+"/trace?limit=5", nil, &tr); st != http.StatusOK || len(tr.Events) != 5 {
		t.Fatalf("limit=5 gave %d events (status %d)", len(tr.Events), st)
	}
	if st := call(t, "GET", sessURL+"/trace?limit=-1", nil, nil); st != http.StatusBadRequest {
		t.Errorf("bad limit: status %d", st)
	}
}

func TestMetricsRuleProfiles(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	base := ts.URL
	info := createSession(t, base, createSessionRequest{Source: boundedSrc})
	sessURL := base + "/api/v1/sessions/" + info.ID
	var run runResponse
	if st := call(t, "POST", sessURL+"/run", runRequest{}, &run); st != http.StatusOK {
		t.Fatalf("run: status %d", st)
	}

	var m metricsPayload
	if st := call(t, "GET", base+"/metrics", nil, &m); st != http.StatusOK {
		t.Fatalf("/metrics: status %d", st)
	}
	if len(m.Engine.Rules) != 1 || m.Engine.Rules[0].Rule != "tick" {
		t.Fatalf("engine.rules = %+v, want one entry for tick", m.Engine.Rules)
	}
	r := m.Engine.Rules[0]
	if r.Fires != 2000 || r.Insts < 2000 || r.MatchNS <= 0 || r.Tokens == 0 {
		t.Errorf("tick profile off: %+v", r)
	}

	st, _, prom := fetch(t, base+"/metrics?format=prometheus")
	if st != http.StatusOK {
		t.Fatalf("prometheus: status %d", st)
	}
	checkExposition(t, prom)
	if !strings.Contains(prom, `parulel_rule_fires_total{rule="tick"} 2000`) {
		t.Errorf("exposition missing per-rule fires:\n%s", prom)
	}
}

func TestCollectorConcurrentAccess(t *testing.T) {
	// Fold, per-rule fold, snapshot and session-lifecycle counters all
	// race against each other; run under -race this is the regression.
	c := newCollector()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	worker := func(fn func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					fn()
				}
			}
		}()
	}
	worker(func() {
		c.observe([]stats.Cycle{{Match: time.Microsecond, Fired: 1, ConflictSize: 2}})
	})
	worker(func() {
		c.observeRules([]match.RuleProfile{{Rule: "r1", MatchNS: 10, Fires: 1}, {Rule: "r2", Tokens: 3}})
	})
	worker(func() { c.stageObserved("wal.append", time.Microsecond) })
	worker(func() {
		// A scrape renders both views from its snapshot while folds go on.
		p := c.snapshot()
		writeJSON(httptest.NewRecorder(), http.StatusOK, p)
		writePrometheus(io.Discard, p)
	})
	worker(func() { c.inc(&c.Sessions.Evicted); c.add(&c.Batches.Ops, 3) })
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	p := c.snapshot()
	if p.Engine.Cycles == 0 || len(p.Engine.Rules) != 2 || p.Sessions.Evicted == 0 || p.Batches.Ops != 3*p.Sessions.Evicted {
		t.Fatalf("collector lost data: cycles=%d rules=%+v sessions=%+v batches=%+v", p.Engine.Cycles, p.Engine.Rules, p.Sessions, p.Batches)
	}
	if hc := p.Engine.Phases["match"].HistCount; hc != p.Engine.Cycles || p.Stages["wal.append"].HistCount == 0 {
		t.Fatalf("histograms lost data: match hist_count=%d of %d cycles, stages=%+v", hc, p.Engine.Cycles, p.Stages)
	}
}

func TestTraceReadableDuringRun(t *testing.T) {
	// The trace endpoint must not block on the session slot while a run
	// holds it.
	_, ts := newTestServer(t, Config{})
	base := ts.URL
	info := createSession(t, base, createSessionRequest{Source: drainSrc})
	sessURL := base + "/api/v1/sessions/" + info.ID

	done := make(chan struct{})
	go func() {
		defer close(done)
		call(t, "POST", sessURL+"/run", runRequest{TimeoutMS: 10_000}, nil)
	}()

	// Poll until the in-flight run has traced some cycles.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var tr traceResponse
		st := call(t, "GET", sessURL+"/trace", nil, &tr)
		if st != http.StatusOK {
			t.Fatalf("trace during run: status %d", st)
		}
		if tr.Total > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("never observed traced cycles during the run")
		}
		time.Sleep(5 * time.Millisecond)
	}
	<-done
}
