package server

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"parulel/internal/cluster"
	"parulel/internal/compile"
	"parulel/internal/core"
	"parulel/internal/match"
	"parulel/internal/match/rete"
	"parulel/internal/obs"
	"parulel/internal/store"
	"parulel/internal/temporal"
	"parulel/internal/wal"
	"parulel/internal/wm"
)

// session is one hosted engine instance. All engine access is serialized
// through the slot channel (a context-aware mutex): a session processes one
// request at a time, like one PARADISER client transaction stream, and the
// server's parallelism is across sessions.
type session struct {
	id      string
	program string
	eng     *core.Engine
	out     *capWriter
	created time.Time
	// clock is the session's temporal manager: TTL expiry and window
	// aggregates advance when a tick op or stream frame ticks it. Guarded
	// by the session slot like the engine itself.
	clock *temporal.Manager
	// trace is the engine's one tracer. It records the most recent engine
	// cycles, internally locked, so the trace endpoint reads it without
	// taking the session slot; and driveRun hooks its OnRecord for the
	// length of a run, so the cycles a recovery replays land here and
	// nowhere else.
	trace *obs.Ring

	// dur is the session's durability handle; nil when the server runs
	// without a data directory.
	dur *store.Session

	// repl is the live replication stream to this session's follower; nil
	// when not in cluster mode, replication is off, or no stream is
	// attached (it attaches lazily on the next mutation). Only the slot
	// holder stores to it. Eviction and drop paths, which hold the server
	// mutex and not the slot, load it and Close the stream (closeFiles) —
	// net.Conn.Close is safe against a concurrent send, which then fails,
	// and the holder detaches.
	repl atomic.Pointer[cluster.ReplStream]

	// slot serializes engine use; closed marks an evicted/expired/deleted
	// session (checked after acquiring slot, since a waiter may win the
	// slot only after eviction).
	slot   chan struct{}
	closed atomic.Bool
	// waiters counts requests holding or queued for the slot via
	// withSession — the admission gate for Config.MutationQueueDepth.
	waiters atomic.Int32

	// recoveredJobs maps job id → last logged status, populated while
	// replaying wal.OpJob records and folded into the server's job
	// registry once the session enters the pool.
	recoveredJobs map[string]string

	// Guarded by Server.mu.
	lastUsed time.Time
	elem     *list.Element

	// Guarded by slot (only the slot holder touches these).
	runs       int
	lastResult core.Result
	// lastProfs snapshots the engine's cumulative per-rule profiles as of
	// the last fold into the server metrics, so each run contributes
	// exactly its own delta.
	lastProfs map[string]match.RuleProfile
}

// acquire takes the session's slot, waiting until the context ends.
func (s *session) acquire(ctx context.Context) error {
	select {
	case s.slot <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *session) release() { <-s.slot }

// busy reports whether some request currently holds the slot.
func (s *session) busy() bool { return len(s.slot) > 0 }

// dropRepl closes and detaches the stream; the next mutation attaches a
// fresh one. Caller holds the slot.
func (s *session) dropRepl(stream *cluster.ReplStream) {
	stream.Close()
	s.repl.Store(nil)
}

// info renders the session for list/get responses. lastUsed is passed in
// because it is guarded by the server mutex, not the slot.
func (s *session) info(lastUsed time.Time) sessionInfo {
	res := s.lastResult
	return sessionInfo{
		ID:         s.id,
		Program:    s.program,
		Matcher:    servedMatcher,
		CreatedAt:  s.created.UTC().Format(time.RFC3339Nano),
		LastUsedAt: lastUsed.UTC().Format(time.RFC3339Nano),
		WMSize:     s.eng.Memory().Len(),
		Runs:       s.runs,
		Cycles:     res.Cycles,
		Firings:    res.Firings,
		Redactions: res.Redactions,
		Tick:       s.clock.Now(),
		Busy:       s.busy(),
		Durable:    s.dur != nil,
	}
}

// newSession compiles nothing — it wraps an already compiled program in a
// fresh engine with a capped output buffer, under the settings of the
// session's OpCreate record. Sessions run RETE whatever matcher the record
// names: the daemon serves one. restore skips the program's initial
// facts: a checkpointed working memory already contains them under their
// original time tags.
func (s *Server) newSession(id string, meta *wal.Record, prog *compile.Program, restore bool) *session {
	out := &capWriter{}
	trace := obs.NewRing(s.cfg.TraceCycles)
	eng := core.New(prog, core.Options{
		// Server sessions always run with per-rule profiling on: the timing
		// cost is a few clock reads per delta, and /metrics per-rule
		// attribution is the product surface.
		Matcher:        rete.Factory(rete.Options{Profile: true}),
		Output:         out,
		MaxCycles:      meta.MaxCycles,
		NoInitialFacts: restore,
		Tracer:         trace,
	})
	created := time.Now()
	if meta.CreatedNS != 0 { // absent from logs that predate the field
		created = time.Unix(0, meta.CreatedNS)
	}
	return &session{
		id:       id,
		program:  meta.Program,
		eng:      eng,
		out:      out,
		trace:    trace,
		clock:    temporal.New(prog, eng),
		created:  created,
		lastUsed: created,
		slot:     make(chan struct{}, 1),
	}
}

// profileDeltas returns the per-rule activity accumulated since the last
// call and advances the snapshot. Rules with no new activity are elided.
// Caller holds the slot.
func (s *session) profileDeltas() []match.RuleProfile {
	cur := s.eng.RuleProfiles()
	if len(cur) == 0 {
		return nil
	}
	if s.lastProfs == nil {
		s.lastProfs = make(map[string]match.RuleProfile, len(cur))
	}
	deltas := make([]match.RuleProfile, 0, len(cur))
	for _, p := range cur {
		prev := s.lastProfs[p.Rule]
		d := match.RuleProfile{
			Rule:    p.Rule,
			MatchNS: p.MatchNS - prev.MatchNS,
			Tokens:  p.Tokens - prev.Tokens,
			Probes:  p.Probes - prev.Probes,
			Insts:   p.Insts - prev.Insts,
			Fires:   p.Fires - prev.Fires,
		}
		s.lastProfs[p.Rule] = p
		if d.MatchNS != 0 || d.Tokens != 0 || d.Probes != 0 || d.Insts != 0 || d.Fires != 0 {
			deltas = append(deltas, d)
		}
	}
	return deltas
}

// stagedFact is one fact resolved against the schema: its template, its
// positional field vector, ready for Engine.InsertFields, and its TTL
// override.
type stagedFact struct {
	tmpl *wm.Template
	vals []wm.Value
	ttl  int64
}

// stage and insert are the one way facts enter a session, whichever
// endpoint or log record they arrive by. stage resolves every fact —
// template, attribute names to positions, TTL sign — appending to dst
// and touching nothing else, so a caller validates a whole request
// before insert applies any of it: an error means nothing happened. On
// error it also reports which fact was at fault. Caller holds the slot.
func (s *session) stage(dst []stagedFact, facts []wal.Fact) ([]stagedFact, int, error) {
	schema := s.eng.Memory().Schema()
	var tmpl *wm.Template
	for i := range facts {
		f := &facts[i]
		if tmpl == nil || tmpl.Name != f.Template { // runs of one template are the rule
			var ok bool
			if tmpl, ok = schema.Lookup(f.Template); !ok {
				return dst, i, fmt.Errorf("unknown template %q", f.Template)
			}
		}
		vals := make([]wm.Value, tmpl.Arity())
		for _, fl := range f.Fields {
			pos, ok := tmpl.AttrIndex(fl.Name)
			if !ok {
				return dst, i, fmt.Errorf("template %s has no attribute %q", f.Template, fl.Name)
			}
			vals[pos] = fl.Value
		}
		if f.TTL < 0 {
			return dst, i, errors.New("ttl must be non-negative")
		}
		dst = append(dst, stagedFact{tmpl, vals, f.TTL})
	}
	return dst, 0, nil
}

// insert puts staged facts into working memory, per-fact lifetime
// overrides included.
func (s *session) insert(staged []stagedFact) {
	for _, st := range staged {
		el := s.eng.InsertFields(st.tmpl, st.vals)
		if st.ttl > 0 {
			s.clock.SetTTL(el, st.ttl)
		}
	}
}

// retractPositions resolves a retract's template and the positions of
// the attributes it constrains, in fields order.
func (s *session) retractPositions(template string, fields wal.Fields) ([]int, error) {
	tmpl, ok := s.eng.Memory().Schema().Lookup(template)
	if !ok {
		return nil, fmt.Errorf("unknown template %q", template)
	}
	pos := make([]int, len(fields))
	for i, f := range fields {
		if pos[i], ok = tmpl.AttrIndex(f.Name); !ok {
			return nil, fmt.Errorf("template %s has no attribute %q", template, f.Name)
		}
	}
	return pos, nil
}

// retractMatching removes every live WME of the template whose fields
// strictly equal all given values; attributes not listed are wildcards.
// Caller holds the slot.
func (s *session) retractMatching(template string, fields wal.Fields) (int, error) {
	pos, err := s.retractPositions(template, fields)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, w := range s.eng.Memory().OfTemplate(template) {
		matchAll := true
		for i, p := range pos {
			if !w.Fields[p].Equal(fields[i].Value) {
				matchAll = false
				break
			}
		}
		if matchAll && s.eng.Retract(w.Time) {
			n++
		}
	}
	return n, nil
}

// maxOutputBytes bounds the `(write …)` output a run captures.
const maxOutputBytes = 64 << 10

// capWriter buffers `(write …)` output up to maxOutputBytes, recording
// whether anything was dropped. The engine writes only while the slot
// holder runs it, so no locking is needed.
type capWriter struct {
	buf       []byte
	truncated bool
}

func (w *capWriter) Write(p []byte) (int, error) {
	if room := maxOutputBytes - len(w.buf); room > 0 {
		if len(p) <= room {
			w.buf = append(w.buf, p...)
		} else {
			w.buf = append(w.buf, p[:room]...)
			w.truncated = true
		}
	} else if len(p) > 0 {
		w.truncated = true
	}
	return len(p), nil
}

// take returns and resets the buffered output.
func (w *capWriter) take() (string, bool) {
	out, trunc := string(w.buf), w.truncated
	w.buf, w.truncated = w.buf[:0], false
	return out, trunc
}
