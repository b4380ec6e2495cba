package server

import (
	"bytes"
	"math"
	"strconv"

	"parulel/internal/jsonlex"
	"parulel/internal/obs"
	"parulel/internal/wm"
)

// This file defines the HTTP/JSON wire types and the mapping between JSON
// values and rule-language values (wm.Value).
//
// Encoding rules (documented in docs/SERVER.md):
//
//	nil    ↔ null
//	int    ↔ JSON number without fraction or exponent
//	float  ↔ JSON number with fraction or exponent (integral floats are
//	         rendered with a trailing ".0" so they survive a round trip)
//	symbol ↔ JSON string
//	string ↔ {"str": "..."} (strings are rarer than symbols in PARULEL)
//
// On input the explicit object forms {"int": n}, {"float": x},
// {"sym": "..."} and {"str": "..."} are also accepted, and JSON booleans
// map to the symbols true/false (wm.Bool). The input side is the scanner
// in scan.go; the output side is the two appenders below.

// appendWireValue appends v in the wire encoding above.
func appendWireValue(dst []byte, v wm.Value) []byte {
	switch v.Kind {
	case wm.KindInt:
		return strconv.AppendInt(dst, v.I, 10)
	case wm.KindFloat:
		if math.IsNaN(v.F) || math.IsInf(v.F, 0) {
			// Non-finite floats have no JSON literal; null is the least bad.
			return append(dst, "null"...)
		}
		at := len(dst)
		dst = strconv.AppendFloat(dst, v.F, 'g', -1, 64)
		if bytes.ContainsAny(dst[at:], ".eE") {
			return dst
		}
		return append(dst, ".0"...)
	case wm.KindSym:
		return jsonlex.AppendString(dst, v.S)
	case wm.KindStr:
		dst = append(dst, `{"str":`...)
		dst = jsonlex.AppendString(dst, v.S)
		return append(dst, '}')
	}
	return append(dst, "null"...)
}

// appendWireFact appends a live WME as /wm reports it — template, time
// tag, and the non-nil attributes (elided like the snapshot format does)
// as an object in attribute-name order.
func appendWireFact(dst []byte, w *wm.WME) []byte {
	dst = append(dst, `{"template":`...)
	dst = jsonlex.AppendString(dst, w.Tmpl.Name)
	dst = append(dst, `,"time":`...)
	dst = strconv.AppendInt(dst, w.Time, 10)
	dst = append(dst, `,"fields":{`...)
	first := true
	for _, i := range w.Tmpl.ByName() {
		if w.Fields[i].IsNil() {
			continue
		}
		if !first {
			dst = append(dst, ',')
		}
		first = false
		dst = jsonlex.AppendString(dst, w.Tmpl.Attrs[i])
		dst = append(dst, ':')
		dst = appendWireValue(dst, w.Fields[i])
	}
	return append(dst, "}}"...)
}

// servedMatcher is the one object-level matcher sessions run on, and what
// create records, checkpoint headers and session infos name. A create
// request may say so; it may not ask for another.
const servedMatcher = "rete"

// createSessionRequest creates a session from an embedded program name or
// uploaded PARULEL source (exactly one of Program/Source).
type createSessionRequest struct {
	Program string `json:"program,omitempty"`
	Source  string `json:"source,omitempty"`
	Workers int    `json:"workers,omitempty"` // accepted and ignored: engines fire on one goroutine
	Matcher string `json:"matcher,omitempty"` // absent or servedMatcher
	// MaxCycles caps the session's cumulative cycle count as a runaway
	// guard; 0 uses the server default.
	MaxCycles int `json:"max_cycles,omitempty"`
}

// sessionInfo describes a session in list/get/create responses.
type sessionInfo struct {
	ID         string `json:"id"`
	Program    string `json:"program"`
	Matcher    string `json:"matcher"`
	CreatedAt  string `json:"created_at"`
	LastUsedAt string `json:"last_used_at"`
	WMSize     int    `json:"wm_size"`
	Runs       int    `json:"runs"`
	Cycles     int    `json:"cycles"`
	Firings    int    `json:"firings"`
	Redactions int    `json:"redactions"`
	Tick       int64  `json:"tick,omitempty"`
	Busy       bool   `json:"busy"`
	Durable    bool   `json:"durable,omitempty"`
}

// runRequest runs a session to quiescence under a deadline.
type runRequest struct {
	// TimeoutMS bounds the run; 0 uses the server default. Exceeding it
	// returns HTTP 504 and leaves the session usable at the last committed
	// cycle.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// runResponse reports one run's outcome. Counters are per-run deltas, not
// session-cumulative ones (those live in sessionInfo).
type runResponse struct {
	Cycles         int    `json:"cycles"`
	Firings        int    `json:"firings"`
	Redactions     int    `json:"redactions"`
	WriteConflicts int    `json:"write_conflicts"`
	Halted         bool   `json:"halted"`
	Quiescent      bool   `json:"quiescent"`
	WallMS         int64  `json:"wall_ms"`
	WMSize         int    `json:"wm_size"`
	Output         string `json:"output,omitempty"`
	OutputTrunc    bool   `json:"output_truncated,omitempty"`
}

// batchOpResult reports one batch op's outcome. Error is set on the op
// that stopped the batch; ops after it were not attempted and have no
// result entry. For tick ops Count is the number of facts expired and
// Tick the clock value after the op.
type batchOpResult struct {
	Op    string       `json:"op"`
	Count int          `json:"count,omitempty"`
	Tick  int64        `json:"tick,omitempty"`
	Run   *runResponse `json:"run,omitempty"`
	Error string       `json:"error,omitempty"`
}

// batchResponse reports a batch's outcome: Applied counts the ops that
// completed without error.
type batchResponse struct {
	Applied int             `json:"applied"`
	Results []batchOpResult `json:"results"`
	WMSize  int             `json:"wm_size"`
}

// jobInfo describes an async run job. Result is present once the job
// reached a terminal state with its session intact; interrupted jobs
// recovered after a restart carry no result.
type jobInfo struct {
	ID         string       `json:"id"`
	Session    string       `json:"session"`
	Status     string       `json:"status"`
	CreatedAt  string       `json:"created_at"`
	StartedAt  string       `json:"started_at,omitempty"`
	FinishedAt string       `json:"finished_at,omitempty"`
	Error      string       `json:"error,omitempty"`
	Result     *runResponse `json:"result,omitempty"`
}

// traceResponse carries a session's recent cycle events. Total counts
// every cycle ever traced, so total > len(events) means the ring dropped
// old cycles; capacity is the ring size.
type traceResponse struct {
	Session  string      `json:"session"`
	Total    uint64      `json:"total"`
	Capacity int         `json:"capacity"`
	Events   []obs.Event `json:"events"`
}

// countResponse is the generic mutation reply.
type countResponse struct {
	Count  int `json:"count"`
	WMSize int `json:"wm_size"`
}

// errorResponse is the uniform error body.
type errorResponse struct {
	Error string `json:"error"`
}
