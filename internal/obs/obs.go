// Package obs provides the observability primitives threaded through the
// engine, the server, and the CLIs: a structured per-cycle Event built
// from core.Tracer callbacks — the one record shape a cycle is reported
// in — a bounded in-memory Ring served at GET /sessions/{id}/trace, a
// JSONL writer/reader used by `parulel -trace=file.jsonl`, and the text
// line of `parulel -trace`.
//
// The package depends only on core (for the Tracer contract); the server
// and CLIs depend on it, never the other way around.
package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"parulel/internal/core"
)

// Event is one committed engine cycle in structured form. It is the JSON
// unit of both the trace endpoint and JSONL trace files, so renaming a
// field is a wire-format change.
type Event struct {
	// Cycle is the 1-based cumulative cycle number.
	Cycle int `json:"cycle"`
	// Per-phase wall-clock durations in nanoseconds.
	MatchNS  int64 `json:"match_ns"`
	RedactNS int64 `json:"redact_ns"`
	FireNS   int64 `json:"fire_ns"`
	ApplyNS  int64 `json:"apply_ns"`
	// ConflictSet and Eligible are the conflict-set size and its
	// unrefracted subset after the match phase.
	ConflictSet int `json:"conflict_set"`
	Eligible    int `json:"eligible"`
	// Redacted, RedactionRounds, and Survivors describe the meta-rule
	// fixpoint outcome.
	Redacted        int `json:"redacted"`
	RedactionRounds int `json:"redaction_rounds"`
	Survivors       int `json:"survivors"`
	// Fired is the total instantiations fired; RuleFirings breaks it down
	// by rule name (omitted when nothing fired, e.g. all-redacted cycles).
	Fired       int            `json:"fired"`
	RuleFirings map[string]int `json:"rule_firings,omitempty"`
	// DeltaSize and WriteConflicts describe the reconciled commit.
	DeltaSize      int  `json:"delta_size"`
	WriteConflicts int  `json:"write_conflicts"`
	Halted         bool `json:"halted"`
}

// builder assembles Events from the core.Tracer callback sequence and
// hands each completed cycle to emit. Per the Tracer contract, callbacks
// arrive from a single goroutine; emit is the only point that needs
// synchronization with readers. A CycleStart not followed by Commit (a
// quiescence probe) is discarded, as the contract requires.
type builder struct {
	pending Event
	open    bool
	emit    func(Event)
}

func (b *builder) CycleStart(n int) {
	b.pending = Event{Cycle: n}
	b.open = true
}

func (b *builder) PhaseEnd(p core.Phase, d time.Duration) {
	switch p {
	case core.PhaseMatch:
		b.pending.MatchNS = d.Nanoseconds()
	case core.PhaseRedact:
		b.pending.RedactNS = d.Nanoseconds()
	case core.PhaseFire:
		b.pending.FireNS = d.Nanoseconds()
	case core.PhaseApply:
		b.pending.ApplyNS = d.Nanoseconds()
	}
}

func (b *builder) InstantiationsFound(conflictSet, eligible int) {
	b.pending.ConflictSet = conflictSet
	b.pending.Eligible = eligible
}

func (b *builder) Redacted(redacted, rounds, survivors int) {
	b.pending.Redacted = redacted
	b.pending.RedactionRounds = rounds
	b.pending.Survivors = survivors
}

func (b *builder) RuleFired(rule string, count int) {
	if b.pending.RuleFirings == nil {
		b.pending.RuleFirings = make(map[string]int)
	}
	b.pending.RuleFirings[rule] = count
	b.pending.Fired += count
}

func (b *builder) Commit(deltaSize, writeConflicts int, halted bool) {
	if !b.open {
		return
	}
	b.open = false
	b.pending.DeltaSize = deltaSize
	b.pending.WriteConflicts = writeConflicts
	b.pending.Halted = halted
	b.emit(b.pending)
}

// Ring is a bounded cycle-event tracer: a Buffer of the newest events,
// fed by the engine goroutine and safe to read meanwhile — the trace
// HTTP endpoint snapshots a session's ring while a run is in flight.
type Ring struct {
	builder
	*Buffer[Event]
	// OnRecord, when set, observes every recorded event (the server folds
	// the run in progress from it). Called outside the ring lock on the
	// goroutine that feeds the ring, the only one that may set it.
	OnRecord func(Event)
}

var _ core.Tracer = (*Ring)(nil)

// DefaultRingCapacity is NewRing's capacity when given a non-positive one.
const DefaultRingCapacity = 512

// NewRing returns a ring tracer holding the last capacity events.
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = DefaultRingCapacity
	}
	r := &Ring{Buffer: NewBuffer[Event](capacity)}
	r.builder.emit = func(e Event) {
		r.Push(e)
		if r.OnRecord != nil {
			r.OnRecord(e)
		}
	}
	return r
}

// Events returns the newest limit events (all if limit <= 0), oldest first.
func (r *Ring) Events(limit int) []Event { return r.Items(limit) }

// NewTextWriter returns a tracer that prints the one-line summary of
// `parulel run -trace` for each committed cycle that fired something (a
// fully redacted cycle has never had a line). Write errors are dropped:
// the line is a diagnostic.
func NewTextWriter(w io.Writer) core.Tracer {
	return &builder{emit: func(e Event) {
		if e.Fired > 0 {
			fmt.Fprintf(w, "cycle %d: eligible=%d redacted=%d fired=%d delta=%d conflicts=%d\n",
				e.Cycle, e.Eligible, e.Redacted, e.Fired, e.DeltaSize, e.WriteConflicts)
		}
	}}
}

// JSONLWriter is a tracer that encodes each committed cycle as one JSON
// line. It is not safe for concurrent use; errors are sticky and
// reported by Err so the engine loop never sees them.
type JSONLWriter struct {
	builder
	enc *json.Encoder
	err error
}

var _ core.Tracer = (*JSONLWriter)(nil)

// NewJSONLWriter returns a tracer writing JSONL events to w.
func NewJSONLWriter(w io.Writer) *JSONLWriter {
	j := &JSONLWriter{enc: json.NewEncoder(w)}
	j.builder.emit = func(e Event) {
		if j.err == nil {
			j.err = j.enc.Encode(e)
		}
	}
	return j
}

// Err returns the first write or encoding error, if any.
func (j *JSONLWriter) Err() error { return j.err }

// ReadJSONL decodes a stream of JSONL events, tolerating blank lines.
func ReadJSONL(r io.Reader) ([]Event, error) {
	dec := json.NewDecoder(r)
	var out []Event
	for {
		var e Event
		if err := dec.Decode(&e); err != nil {
			if errors.Is(err, io.EOF) {
				return out, nil
			}
			return out, err
		}
		out = append(out, e)
	}
}
