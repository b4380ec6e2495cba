// Package wal implements the per-session write-ahead log behind
// paruleld's durability layer. A log is a flat file of framed,
// CRC32-checksummed records describing a session's externally visible
// history: its creation, every fact assertion and retraction, every
// snapshot import, and the committed extent of every run. Because the
// PARULEL engine is deterministic for a fixed program and mutation
// history (time tags, conflict resolution and gensym values all derive
// from deterministic instantiation order — see DESIGN.md), replaying a
// log against a fresh engine reconstructs bit-identical session state;
// the log therefore records *logical* operations, never working-memory
// bytes.
//
// Recovery tolerates torn writes: scanning stops at the first frame that
// is truncated, fails its checksum, or does not decode, and the file is
// truncated back to the last valid record. Everything before that point
// is trusted; everything after is the write that was in flight when the
// process died.
package wal

import (
	"slices"
	"strings"

	"parulel/internal/wm"
)

// Record operations. A log begins with exactly one OpCreate record;
// every later record is a mutation or run boundary.
const (
	// OpCreate opens a session: program identity, compiled source,
	// worker count, matcher and cycle cap.
	OpCreate = "create"
	// OpAssert inserts Facts (in order) into working memory.
	OpAssert = "assert"
	// OpRetract removes every live WME of Template whose fields equal
	// Fields; Count is the number removed, verified on replay.
	OpRetract = "retract"
	// OpRun marks a run boundary: Cycles engine cycles committed (the
	// per-run delta, not the cumulative count) and whether the program
	// halted. Replay re-executes exactly that many cycles.
	OpRun = "run"
	// OpImport inserts the facts of a `(wm …)` snapshot given verbatim
	// in Text.
	OpImport = "import"
	// OpBatch applies the nested Ops records in order. The whole batch is
	// one frame, so recovery sees it atomically: either every nested op
	// replays or (torn write) none of them exist. Nested records carry no
	// sequence numbers of their own.
	OpBatch = "batch"
	// OpJob marks an async-job lifecycle transition: Job is the job id,
	// JobStatus the state entered ("queued", "done", "canceled", "error").
	// It has no effect on engine state; recovery uses it to reconstruct
	// the job registry — a job whose last logged status is "queued" was in
	// flight at the crash and surfaces as "interrupted".
	OpJob = "job"
	// OpTick advances the session's temporal clock by one: TTL'd facts are
	// absorbed, due facts expire (engine-driven retracts through the
	// normal redaction path) and window aggregates refresh. Tick is the
	// resulting clock value and Count the number of facts expired; both
	// are verified on replay — expiry is deterministic, so a replayed tick
	// that expires a different set of facts is divergence, not drift.
	OpTick = "tick"
)

// Record is one logged operation. Exactly the fields relevant to Op are
// populated; the rest stay at their zero values and are elided from the
// JSON payload. The struct tags describe the payload and keep
// encoding/json usable on a Record (it yields the same bytes), but the
// log itself writes with AppendJSON and reads with the matching decoder
// in codec.go.
type Record struct {
	Seq uint64 `json:"seq"`
	Op  string `json:"op"`

	// OpCreate.
	Program   string `json:"program,omitempty"`
	Source    string `json:"source,omitempty"`
	Workers   int    `json:"workers,omitempty"` // ignored; older logs carry it
	Matcher   string `json:"matcher,omitempty"`
	MaxCycles int    `json:"max_cycles,omitempty"`
	CreatedNS int64  `json:"created_ns,omitempty"`

	// OpAssert.
	Facts []Fact `json:"facts,omitempty"`

	// OpRetract.
	Template string `json:"template,omitempty"`
	Fields   Fields `json:"fields,omitempty"`
	Count    int    `json:"count,omitempty"`

	// OpRun.
	Cycles int  `json:"cycles,omitempty"`
	Halted bool `json:"halted,omitempty"`

	// OpImport.
	Text string `json:"text,omitempty"`

	// OpBatch: the nested operations, applied in order on replay.
	Ops []Record `json:"ops,omitempty"`

	// OpTick: the temporal clock value after the tick (Count above holds
	// the number of facts the tick expired).
	Tick int64 `json:"tick,omitempty"`

	// OpJob.
	Job       string `json:"job,omitempty"`
	JobStatus string `json:"job_status,omitempty"`
}

// Fact is one asserted working-memory element. TTL, when positive,
// overrides the template's default lifetime for this fact: it expires
// TTL ticks after the temporal clock absorbs it. Replay re-applies the
// same override, so expiry reproduces identically after recovery.
type Fact struct {
	Template string `json:"template"`
	Fields   Fields `json:"fields,omitempty"`
	TTL      int64  `json:"ttl,omitempty"`
}

// Field is one named attribute value of a fact.
type Field struct {
	Name  string
	Value wm.Value
}

// Fields is the one form a fact's attribute values take between the
// socket and the log: (name, value) pairs in ascending name order, no
// name twice — the order the payload's object keys are written in. An
// attribute given as an explicit nil is kept (presence is part of the
// record); an attribute not named is absent. The facts of one request or
// one record are sub-slices of a single flat array.
type Fields []Field

// Canonical puts run into Fields order in place — sorted by name, the
// last of several values for one name winning, as in a JSON object
// decoded into a map — and returns the possibly shorter result. A run
// already in order, which is what a well-behaved client and the log's
// own encoder send, costs one pass.
func Canonical(run []Field) Fields {
	ordered := true
	for i := 1; i < len(run); i++ {
		if run[i-1].Name >= run[i].Name {
			ordered = false
			break
		}
	}
	if ordered {
		return run
	}
	slices.SortStableFunc(run, func(a, b Field) int { return strings.Compare(a.Name, b.Name) })
	out := run[:0]
	for i, f := range run {
		if i+1 < len(run) && run[i+1].Name == f.Name {
			continue
		}
		out = append(out, f)
	}
	return out
}
