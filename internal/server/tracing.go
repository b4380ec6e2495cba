package server

// tracing.go wires the obs span layer into the serving path. Every HTTP
// request gets a trace context — carried in from the X-Parulel-Trace
// header when a peer (or a trace-aware client) set one, freshly minted
// otherwise — and each stage the request passes through (session-slot
// wait, queue wait, WAL append, fsync, replication ack, engine run, …)
// records one span into the node's bounded SpanStore. The per-node
// store is served at GET /debug/spans; GET /cluster/trace/{trace} fans
// out to every peer and assembles the cross-node span list for one
// trace. Completed stage durations also feed the request's Server-Timing
// response header and the per-stage latency histograms in /metrics.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"parulel/internal/obs"
)

// Span stage names recorded by the server. The engine phases are
// children of stageEngineRun; everything else hangs off the ingress
// span (or the proxy span on the forwarding node).
const (
	stageIngress     = "ingress"
	stageProxy       = "proxy"
	stageSessionWait = "session.wait"
	stageQueueWait   = "queue.wait"
	stageWALAppend   = "wal.append"
	stageWALFsync    = "wal.fsync"
	stageCheckpoint  = "checkpoint"
	stageReplAck     = "repl.ack"
	stageReplApply   = "repl.apply"
	stageEngineRun   = "engine.run"
	stageBatch       = "batch"
	stageStreamFrame = "stream.frame"
	stageTick        = "temporal.tick"
	stageJobRun      = "job.run"
	stageMigrate     = "migrate"
)

// enginePhaseStages maps core.Phase indices to span stage names.
var enginePhaseStages = [4]string{"engine.match", "engine.redact", "engine.fire", "engine.apply"}

// serverTimingTokens maps span stages to Server-Timing metric names, in
// emission order. Only these stages surface in the header; the full set
// lives in the span store.
var serverTimingTokens = []struct{ stage, token string }{
	{stageSessionWait, "session"},
	{stageQueueWait, "queue"},
	{stageWALAppend, "wal"},
	{stageWALFsync, "fsync"},
	{stageCheckpoint, "checkpoint"},
	{stageReplAck, "repl"},
	{stageEngineRun, "run"},
}

// traceInfo is the per-request trace state stashed in the context.
type traceInfo struct {
	trace  string // trace id
	parent string // span id new spans parent to (the ingress span)
	// timings accumulates completed stage durations for the
	// Server-Timing response header.
	timings *reqTimings
}

// traceFrom extracts the request's trace state, nil for internal work
// (janitor, replay) whose context never passed through ServeHTTP.
func traceFrom(ctx context.Context) *traceInfo {
	ti, _ := ctx.Value(ctxKeyTrace).(*traceInfo)
	return ti
}

// traceString renders the context's trace as a wire header value with
// parent as the remote side's parent span; empty for untraced contexts.
func (s *Server) traceString(ctx context.Context, parent string) string {
	ti := traceFrom(ctx)
	if ti == nil {
		return ""
	}
	return obs.TraceContext{TraceID: ti.trace, Parent: parent, ReqID: RequestID(ctx)}.String()
}

// reqTimings accumulates per-stage durations across one request.
// Stages can complete on several goroutines (async job spawn), so the
// map is mutex-protected. All methods are nil-safe.
type reqTimings struct {
	mu sync.Mutex
	d  map[string]time.Duration
}

func (t *reqTimings) add(stage string, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.d == nil {
		t.d = make(map[string]time.Duration, 8)
	}
	t.d[stage] += d
	t.mu.Unlock()
}

// header renders the accumulated stages as a Server-Timing value
// (durations in milliseconds), empty when no mapped stage completed.
func (t *reqTimings) header() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var b strings.Builder
	for _, tok := range serverTimingTokens {
		d, ok := t.d[tok.stage]
		if !ok {
			continue
		}
		if b.Len() > 0 {
			b.WriteString(", ")
		}
		b.WriteString(tok.token)
		b.WriteString(";dur=")
		b.WriteString(strconv.FormatFloat(float64(d)/float64(time.Millisecond), 'f', 3, 64))
	}
	return b.String()
}

// reqSpan is an in-flight span tied to its request's Server-Timing
// accumulator. All methods are nil-safe; s.startSpan returns nil on
// untraced contexts, so instrumented paths cost one nil check there.
type reqSpan struct {
	a     *obs.ActiveSpan
	ti    *traceInfo
	stage string
}

// startSpan opens a span for the request's current stage, parented to
// the ingress span. Returns nil when ctx carries no trace.
func (s *Server) startSpan(ctx context.Context, stage string) *reqSpan {
	ti := traceFrom(ctx)
	if ti == nil {
		return nil
	}
	return &reqSpan{a: s.spans.Start(ti.trace, ti.parent, stage), ti: ti, stage: stage}
}

// ID returns the span id for parenting children; empty on nil.
func (sp *reqSpan) ID() string {
	if sp == nil {
		return ""
	}
	return sp.a.ID()
}

func (sp *reqSpan) SetAttr(k, v string) {
	if sp == nil {
		return
	}
	sp.a.SetAttr(k, v)
}

// End records the span with its elapsed duration.
func (sp *reqSpan) End() time.Duration {
	if sp == nil {
		return 0
	}
	d := sp.a.End()
	sp.ti.timings.add(sp.stage, d)
	return d
}

// EndWith records the span with an externally measured duration.
func (sp *reqSpan) EndWith(d time.Duration) {
	if sp == nil {
		return
	}
	sp.a.EndWith(d)
	sp.ti.timings.add(sp.stage, d)
}

// recordSpan records one already-measured stage (ending now) under the
// given parent span id; an empty parent attaches to the ingress span.
// No-op on untraced contexts or non-positive durations.
func (s *Server) recordSpan(ctx context.Context, parent, stage string, d time.Duration) {
	ti := traceFrom(ctx)
	if ti == nil || d <= 0 {
		return
	}
	if parent == "" {
		parent = ti.parent
	}
	s.spans.Record(obs.Span{
		TraceID:  ti.trace,
		Parent:   parent,
		Stage:    stage,
		StartUNN: time.Now().Add(-d).UnixNano(),
		DurNS:    d.Nanoseconds(),
	})
	ti.timings.add(stage, d)
}

// ---- HTTP surface ----

// spansResponse is the GET /debug/spans body, and the unit the cluster
// trace assembler fetches from each peer.
type spansResponse struct {
	Node     string     `json:"node"`
	Total    uint64     `json:"total"`
	Capacity int        `json:"capacity"`
	Spans    []obs.Span `json:"spans"`
}

// handleDebugSpans serves this node's span store, filterable by
// ?trace=, ?stage=, ?min_ms= and ?limit=.
func (s *Server) handleDebugSpans(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var minDur time.Duration
	if ms := q.Get("min_ms"); ms != "" {
		f, err := strconv.ParseFloat(ms, 64)
		if err != nil || f < 0 {
			writeError(w, http.StatusBadRequest, "bad min_ms")
			return
		}
		minDur = time.Duration(f * float64(time.Millisecond))
	}
	limit := 0
	if ls := q.Get("limit"); ls != "" {
		n, err := strconv.Atoi(ls)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "bad limit")
			return
		}
		limit = n
	}
	spans := s.spans.Query(q.Get("trace"), q.Get("stage"), minDur, limit)
	w.Header().Set("Cache-Control", "no-cache")
	writeJSON(w, http.StatusOK, spansResponse{
		Node:     s.spans.Node(),
		Total:    s.spans.Total(),
		Capacity: s.spans.Capacity(),
		Spans:    spans,
	})
}

// handleFlightRecorder dumps the slow-request ring.
func (s *Server) handleFlightRecorder(w http.ResponseWriter, _ *http.Request) {
	recs := s.flight.Items(0)
	w.Header().Set("Cache-Control", "no-cache")
	writeJSON(w, http.StatusOK, map[string]any{
		"threshold_ms": s.cfg.SlowRequestThreshold.Milliseconds(),
		"total":        s.flight.Total(),
		"capacity":     s.flight.Capacity(),
		"records":      recs,
	})
}

// FlightRecords returns the captured slow-request records, oldest
// first — the programmatic face of GET /debug/flightrecorder, used by
// the SIGQUIT dump in cmd/paruleld.
func (s *Server) FlightRecords() []obs.FlightRecord {
	return s.flight.Items(0)
}

// clusterTraceResponse is the GET /cluster/trace/{trace} body: every
// span the cluster retains for one trace, across all reachable nodes,
// ordered by start time.
type clusterTraceResponse struct {
	TraceID string `json:"trace_id"`
	// Nodes that contributed spans; Unreachable lists peers whose span
	// stores could not be queried (their spans may be missing).
	Nodes       []string   `json:"nodes"`
	Unreachable []string   `json:"unreachable,omitempty"`
	Spans       []obs.Span `json:"spans"`
}

// handleClusterTrace assembles the cross-node span list for one trace:
// local spans plus a fan-out to every peer's /debug/spans. Single-node
// servers answer with their local spans alone.
func (s *Server) handleClusterTrace(w http.ResponseWriter, r *http.Request) {
	trace := r.PathValue("trace")
	if _, ok := obs.ParseTraceContext("00-" + trace + "-0000000000000000-01"); !ok {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad trace id %q (want 32 hex digits)", trace))
		return
	}
	resp := clusterTraceResponse{TraceID: trace, Spans: s.spans.Query(trace, "", 0, 0)}
	seen := map[string]bool{}
	if n := s.spans.Node(); n != "" && len(resp.Spans) > 0 {
		seen[n] = true
	}
	if cs := s.cluster; cs != nil {
		type peerResult struct {
			name  string
			spans []obs.Span
			err   error
		}
		results := make(chan peerResult, len(cs.members))
		peers := 0
		for name, m := range cs.members {
			if name == cs.cfg.Node {
				continue
			}
			peers++
			go func(name, url string) {
				spans, err := s.fetchPeerSpans(r.Context(), url, trace)
				results <- peerResult{name: name, spans: spans, err: err}
			}(name, m.PublicURL)
		}
		for i := 0; i < peers; i++ {
			res := <-results
			if res.err != nil {
				resp.Unreachable = append(resp.Unreachable, res.name)
				continue
			}
			if len(res.spans) > 0 {
				seen[res.name] = true
				resp.Spans = append(resp.Spans, res.spans...)
			}
		}
	}
	resp.Nodes = make([]string, 0, len(seen))
	for n := range seen {
		resp.Nodes = append(resp.Nodes, n)
	}
	sort.Strings(resp.Nodes)
	sort.Strings(resp.Unreachable)
	sort.Slice(resp.Spans, func(i, j int) bool {
		if resp.Spans[i].StartUNN != resp.Spans[j].StartUNN {
			return resp.Spans[i].StartUNN < resp.Spans[j].StartUNN
		}
		return resp.Spans[i].SpanID < resp.Spans[j].SpanID
	})
	w.Header().Set("Cache-Control", "no-cache")
	writeJSON(w, http.StatusOK, resp)
}

// fetchPeerSpans queries one peer's span store for a trace.
func (s *Server) fetchPeerSpans(ctx context.Context, publicURL, trace string) ([]obs.Span, error) {
	cs := s.cluster
	ctx, cancel := context.WithTimeout(ctx, cs.cfg.IOTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, publicURL+"/debug/spans?trace="+trace, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("peer answered %d", resp.StatusCode)
	}
	var body spansResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, err
	}
	return body.Spans, nil
}
