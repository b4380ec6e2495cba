package obs

// Distributed request tracing. A Span is one timed stage of a request
// (HTTP ingress, queue wait, WAL append, replication round-trip, engine
// run, …); spans carrying the same trace id — possibly recorded on
// different nodes — assemble into one cross-cluster tree via parent
// links. Each node keeps its recent spans in a bounded SpanStore served
// at GET /debug/spans; GET /cluster/trace/{id} fans out to peers and
// merges. The trace context travels between nodes in the
// X-Parulel-Trace header (proxy hops, redirects) and as an attribute on
// replication/migration streams.

import (
	"crypto/rand"
	"encoding/hex"
	"strconv"
	"strings"
	"time"
)

// Span is one completed, timed stage of a traced request. It is the
// JSON unit of /debug/spans and /cluster/trace, so renaming a field is
// a wire-format change.
type Span struct {
	TraceID string `json:"trace_id"`
	SpanID  string `json:"span_id"`
	// Parent is the span id of the enclosing stage; empty for a trace's
	// local root (the ingress span on the node the client hit).
	Parent string `json:"parent_id,omitempty"`
	// Node is the cluster member that recorded the span (empty when the
	// server runs single-node without a cluster name).
	Node  string `json:"node,omitempty"`
	Stage string `json:"stage"`
	// StartUNN is the wall-clock start in Unix nanoseconds; the duration
	// itself is measured on the monotonic clock.
	StartUNN int64             `json:"start_unix_ns"`
	DurNS    int64             `json:"duration_ns"`
	Attrs    map[string]string `json:"attrs,omitempty"`
}

// NewTraceID mints a 128-bit random trace id (32 hex digits).
func NewTraceID() string { return randHex(16) }

// NewSpanID mints a 64-bit random span id (16 hex digits).
func NewSpanID() string { return randHex(8) }

func randHex(n int) string {
	b := make([]byte, n)
	if _, err := rand.Read(b); err != nil {
		// crypto/rand never fails on the supported platforms; a zero id
		// degrades tracing, not correctness.
		return strings.Repeat("0", 2*n)
	}
	return hex.EncodeToString(b)
}

// TraceHeader carries the trace context across HTTP hops (client →
// node, proxy → owner, 307 redirects) and is echoed on responses so
// callers learn the trace id of the request they just made.
const TraceHeader = "X-Parulel-Trace"

// TraceContext is the parsed form of the TraceHeader value:
//
//	00-<32 hex trace id>-<16 hex parent span id>-01[-r<hex request id>]
//
// The first four segments follow the W3C traceparent layout; the
// optional trailing r-segment propagates the origin node's request id so
// access logs on every hop join on one id.
type TraceContext struct {
	TraceID string
	// Parent is the caller's span id — spans started under this context
	// without an explicit local parent attach here.
	Parent string
	// ReqID is the request id minted by the node the client first hit;
	// zero when absent.
	ReqID uint64
}

// String formats the context as a TraceHeader value. A zero context
// formats as the empty string.
func (tc TraceContext) String() string {
	if tc.TraceID == "" {
		return ""
	}
	parent := tc.Parent
	if parent == "" {
		parent = "0000000000000000"
	}
	s := "00-" + tc.TraceID + "-" + parent + "-01"
	if tc.ReqID != 0 {
		s += "-r" + strconv.FormatUint(tc.ReqID, 16)
	}
	return s
}

// ParseTraceContext parses a TraceHeader value, tolerating a missing
// request-id segment and an all-zero parent. ok is false when the value
// is empty or malformed.
func ParseTraceContext(s string) (tc TraceContext, ok bool) {
	parts := strings.Split(strings.TrimSpace(s), "-")
	if len(parts) < 4 || parts[0] != "00" {
		return TraceContext{}, false
	}
	trace, parent := parts[1], parts[2]
	if len(trace) != 32 || !isHex(trace) || len(parent) != 16 || !isHex(parent) {
		return TraceContext{}, false
	}
	if trace == strings.Repeat("0", 32) {
		return TraceContext{}, false
	}
	tc.TraceID = trace
	if parent != "0000000000000000" {
		tc.Parent = parent
	}
	for _, seg := range parts[4:] {
		if len(seg) > 1 && seg[0] == 'r' {
			if id, err := strconv.ParseUint(seg[1:], 16, 64); err == nil {
				tc.ReqID = id
			}
		}
	}
	return tc, true
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F') {
			return false
		}
	}
	return true
}

// DefaultSpanCapacity is NewSpanStore's capacity when given a non-positive one.
const DefaultSpanCapacity = 4096

// SpanStore is a node's Buffer of recent spans. Writers (request
// handlers, replication streams) and readers (/debug/spans, the cluster
// trace assembler) run concurrently; spans enter through Record.
type SpanStore struct {
	*Buffer[Span]
	node string
	// OnRecord, when set before the store is shared, observes every
	// completed span (the server feeds per-stage latency histograms from
	// it). Called outside the store lock.
	OnRecord func(Span)
}

// NewSpanStore returns a store tagging spans with node, holding the
// most recent capacity spans.
func NewSpanStore(node string, capacity int) *SpanStore {
	if capacity <= 0 {
		capacity = DefaultSpanCapacity
	}
	return &SpanStore{Buffer: NewBuffer[Span](capacity), node: node}
}

// Node returns the node name spans are tagged with.
func (st *SpanStore) Node() string { return st.node }

// Record inserts a completed span, filling SpanID and Node when empty,
// and returns the span id. Nil-safe.
func (st *SpanStore) Record(sp Span) string {
	if st == nil || sp.TraceID == "" {
		return ""
	}
	if sp.SpanID == "" {
		sp.SpanID = NewSpanID()
	}
	if sp.Node == "" {
		sp.Node = st.node
	}
	st.Push(sp)
	if st.OnRecord != nil {
		st.OnRecord(sp)
	}
	return sp.SpanID
}

// Query returns retained spans matching every given filter, oldest
// first: trace and stage match exactly when non-empty, minDur keeps
// spans at least that long, limit > 0 keeps the most recent matches.
// Only a nil store answers nil.
func (st *SpanStore) Query(trace, stage string, minDur time.Duration, limit int) []Span {
	if st == nil {
		return nil
	}
	out := []Span{}
	st.View(func(older, newer []Span) {
		for _, run := range [2][]Span{older, newer} {
			for _, sp := range run {
				if (trace == "" || sp.TraceID == trace) && (stage == "" || sp.Stage == stage) &&
					(minDur <= 0 || sp.DurNS >= minDur.Nanoseconds()) {
					out = append(out, sp)
				}
			}
		}
	})
	if limit > 0 && len(out) > limit {
		out = out[len(out)-limit:]
	}
	return out
}

// Start opens a live span under trace/parent. It returns nil — and
// every ActiveSpan method no-ops — when the store is nil or the request
// carries no trace, keeping untraced paths at one nil check per stage.
func (st *SpanStore) Start(trace, parent, stage string) *ActiveSpan {
	if st == nil || trace == "" {
		return nil
	}
	return &ActiveSpan{
		store: st,
		t0:    time.Now(),
		sp: Span{
			TraceID:  trace,
			SpanID:   NewSpanID(),
			Parent:   parent,
			Stage:    stage,
			StartUNN: time.Now().UnixNano(),
		},
	}
}

// ActiveSpan is a span being timed. Not safe for concurrent use; the
// serving path times each stage from a single goroutine.
type ActiveSpan struct {
	store *SpanStore
	t0    time.Time
	sp    Span
	done  bool
}

// ID returns the span id (empty on nil), for parenting child spans.
func (a *ActiveSpan) ID() string {
	if a == nil {
		return ""
	}
	return a.sp.SpanID
}

// SetAttr attaches one key=value attribute. Nil-safe.
func (a *ActiveSpan) SetAttr(k, v string) {
	if a == nil {
		return
	}
	if a.sp.Attrs == nil {
		a.sp.Attrs = make(map[string]string, 4)
	}
	a.sp.Attrs[k] = v
}

// End records the span with its elapsed monotonic duration and returns
// that duration. Safe to call on nil and idempotent.
func (a *ActiveSpan) End() time.Duration {
	if a == nil {
		return 0
	}
	d := time.Since(a.t0)
	a.EndWith(d)
	return d
}

// EndWith records the span with an externally measured duration (e.g. a
// sum of queue waits across run slices). Nil-safe and idempotent.
func (a *ActiveSpan) EndWith(d time.Duration) {
	if a == nil || a.done {
		return
	}
	a.done = true
	a.sp.DurNS = d.Nanoseconds()
	a.store.Record(a.sp)
}

// DefaultFlightRecorderCapacity is NewFlightRecorder's when given a non-positive one.
const DefaultFlightRecorderCapacity = 64

// FlightRecord is one slow request captured with its span tree.
type FlightRecord struct {
	TraceID     string `json:"trace_id"`
	Method      string `json:"method"`
	Path        string `json:"path"`
	Status      int    `json:"status"`
	DurNS       int64  `json:"duration_ns"`
	CapturedUNN int64  `json:"captured_unix_ns"`
	Spans       []Span `json:"spans"`
}

// FlightRecorder is the Buffer of slow-request captures — the "black
// box" dumped on demand (GET /debug/flightrecorder) or on SIGQUIT.
type FlightRecorder = Buffer[FlightRecord]

// NewFlightRecorder returns a recorder holding the most recent capacity
// captures.
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultFlightRecorderCapacity
	}
	return NewBuffer[FlightRecord](capacity)
}
