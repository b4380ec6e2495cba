package server

// The test oracle for the request scanner (scan.go) and the /wm appender
// (api.go): the wire structs and the reflective jsonValue codec exactly
// as production code had them through PR 17, when encoding/json decoded
// every request into them. The tests still build their requests with
// these types; FuzzFactDecode and TestWMResponseJSONEqual hold the
// hand-written halves to them.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"

	"parulel/internal/wm"
)

// jsonValue wraps a wm.Value with the wire encoding above.
type jsonValue struct{ V wm.Value }

// MarshalJSON implements the encoding side.
func (j jsonValue) MarshalJSON() ([]byte, error) {
	v := j.V
	switch v.Kind {
	case wm.KindNil:
		return []byte("null"), nil
	case wm.KindInt:
		return strconv.AppendInt(nil, v.I, 10), nil
	case wm.KindFloat:
		if math.IsNaN(v.F) || math.IsInf(v.F, 0) {
			// Non-finite floats have no JSON literal; null is the least bad.
			return []byte("null"), nil
		}
		s := strconv.FormatFloat(v.F, 'g', -1, 64)
		if !strings.ContainsAny(s, ".eE") {
			s += ".0"
		}
		return []byte(s), nil
	case wm.KindSym:
		return json.Marshal(v.S)
	case wm.KindStr:
		return json.Marshal(map[string]string{"str": v.S})
	}
	return nil, fmt.Errorf("unencodable value kind %v", v.Kind)
}

// UnmarshalJSON implements the decoding side.
func (j *jsonValue) UnmarshalJSON(b []byte) error {
	b = bytes.TrimSpace(b)
	if len(b) == 0 {
		return fmt.Errorf("empty value")
	}
	switch b[0] {
	case 'n':
		j.V = wm.Nil()
		return nil
	case 't', 'f':
		var v bool
		if err := json.Unmarshal(b, &v); err != nil {
			return err
		}
		j.V = wm.Bool(v)
		return nil
	case '"':
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		j.V = wm.Sym(s)
		return nil
	case '{':
		var m map[string]json.RawMessage
		if err := json.Unmarshal(b, &m); err != nil {
			return err
		}
		if len(m) != 1 {
			return fmt.Errorf("typed value must have exactly one of int/float/sym/str")
		}
		for k, raw := range m {
			switch k {
			case "int":
				var n int64
				if err := json.Unmarshal(raw, &n); err != nil {
					return err
				}
				j.V = wm.Int(n)
			case "float":
				var f float64
				if err := json.Unmarshal(raw, &f); err != nil {
					return err
				}
				j.V = wm.Float(f)
			case "sym":
				var s string
				if err := json.Unmarshal(raw, &s); err != nil {
					return err
				}
				j.V = wm.Sym(s)
			case "str":
				var s string
				if err := json.Unmarshal(raw, &s); err != nil {
					return err
				}
				j.V = wm.Str(s)
			default:
				return fmt.Errorf("unknown typed value key %q", k)
			}
		}
		return nil
	default: // number
		s := string(b)
		if strings.ContainsAny(s, ".eE") {
			f, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return fmt.Errorf("bad number %q: %w", s, err)
			}
			j.V = wm.Float(f)
			return nil
		}
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return fmt.Errorf("bad integer %q: %w", s, err)
		}
		j.V = wm.Int(n)
		return nil
	}
}

// toFields converts wire fields to the engine's map form.
func toFields(in map[string]jsonValue) map[string]wm.Value {
	out := make(map[string]wm.Value, len(in))
	for k, v := range in {
		out[k] = v.V
	}
	return out
}

// factPayload is one working-memory element on the wire. TTL (asserts
// only) overrides the template's default lifetime: the fact expires that
// many ticks after the session's temporal clock absorbs it.
type factPayload struct {
	Template string               `json:"template"`
	Time     int64                `json:"time,omitempty"`
	Fields   map[string]jsonValue `json:"fields"`
	TTL      int64                `json:"ttl,omitempty"`
}

// encodeFact renders a live WME, eliding nil attributes like the
// snapshot format does.
func encodeFact(w *wm.WME) factPayload {
	f := factPayload{Template: w.Tmpl.Name, Time: w.Time, Fields: map[string]jsonValue{}}
	for i, attr := range w.Tmpl.Attrs {
		if !w.Fields[i].IsNil() {
			f.Fields[attr] = jsonValue{w.Fields[i]}
		}
	}
	return f
}

// assertRequest inserts facts into a session's working memory.
type assertRequest struct {
	Facts []factPayload `json:"facts"`
}

// retractRequest removes every live WME of Template whose fields equal
// all the given field values (strict equality per attribute).
type retractRequest struct {
	Template string               `json:"template"`
	Fields   map[string]jsonValue `json:"fields,omitempty"`
}

// batchOp is one operation in a batch request. Op selects which of the
// remaining fields apply: assert uses Facts, retract uses Template/Fields,
// run uses TimeoutMS (same semantics as runRequest.TimeoutMS), tick uses
// Ticks (how many clock advances; 0 means 1).
type batchOp struct {
	Op        string               `json:"op"`
	Facts     []factPayload        `json:"facts,omitempty"`
	Template  string               `json:"template,omitempty"`
	Fields    map[string]jsonValue `json:"fields,omitempty"`
	TimeoutMS int64                `json:"timeout_ms,omitempty"`
	Ticks     int64                `json:"ticks,omitempty"`
}

// batchRequest applies an ordered list of operations in one WAL-framed
// round-trip.
type batchRequest struct {
	Ops []batchOp `json:"ops"`
}

// streamFrame is one NDJSON request line. Ticks is the number of clock
// advances after the frame's facts land: absent means 1 (the common
// case — a frame is a unit of stream time), 0 suppresses the tick.
type streamFrame struct {
	Facts     []factPayload `json:"facts,omitempty"`
	Ticks     *int64        `json:"ticks,omitempty"`
	Run       bool          `json:"run,omitempty"`
	TimeoutMS int64         `json:"timeout_ms,omitempty"`
}
