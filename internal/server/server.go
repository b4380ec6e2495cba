// Package server implements paruleld, the PARULEL rule-serving daemon:
// an HTTP/JSON front end that hosts compiled programs as long-lived
// *sessions*. Clients create a session from an embedded example program or
// uploaded source, assert and retract facts, run the engine to quiescence
// under a per-request deadline, query working memory, and export/import
// `(wm …)` snapshots that round-trip through cmd/parulel.
//
// Operationally the server provides what the PARULEL/PARADISER papers
// assume of their environment: a bounded pool of concurrently served rule
// sessions (LRU eviction + idle expiry), per-session serialization with a
// server-wide cap on simultaneously running engines, cancellation threaded
// into the engine's cycle loop, a /metrics aggregate over the engines'
// per-cycle phase records, and graceful drain on shutdown.
//
// See docs/SERVER.md for the API reference.
package server

import (
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"parulel/internal/cluster"
	"parulel/internal/compile"
	"parulel/internal/obs"
	"parulel/internal/programs"
	"parulel/internal/snapshot"
	"parulel/internal/store"
	"parulel/internal/wal"
	"parulel/internal/wm"
)

// Config tunes the server. Zero values select the documented defaults.
type Config struct {
	// MaxSessions bounds the session pool; creating one more evicts the
	// least-recently-used session. Default 64.
	MaxSessions int
	// IdleTTL expires sessions unused for this long, checked every
	// IdleTTL/4 clamped to [100ms, 1m]. Default 30m.
	IdleTTL time.Duration
	// MaxConcurrentRuns caps engines running simultaneously server-wide;
	// excess run requests wait for a slot (bounded by their deadline).
	// Default 8.
	MaxConcurrentRuns int
	// MaxInflightRuns caps admitted runs — executing plus queued for an
	// engine slot. Beyond it, run requests fast-fail with 429 and a
	// Retry-After header instead of queueing. Default 8×MaxConcurrentRuns;
	// negative disables the cap.
	MaxInflightRuns int
	// MutationQueueDepth bounds each session's mutation queue (the holder
	// of the session slot plus requests waiting for it). Beyond it,
	// mutations fast-fail with 429 + Retry-After. Default 32; negative
	// disables the cap.
	MutationQueueDepth int
	// RunSlice bounds the engine cycles a run may commit per engine-slot
	// grant; a run needing more releases the slot and re-queues, so a long
	// run cannot monopolize an engine slot while others wait. 0 (the
	// default) runs to quiescence in one grant.
	RunSlice int
	// DefaultRunTimeout applies when a run request names none. Default 30s.
	DefaultRunTimeout time.Duration
	// MaxRunTimeout clamps client-requested timeouts. Default 5m.
	MaxRunTimeout time.Duration
	// MaxCycles is the default cumulative cycle cap per session (runaway
	// guard). Default 10,000,000.
	MaxCycles int
	// DataDir enables the durability subsystem: every session gets a
	// write-ahead log and periodic checkpoints under DataDir/sessions/<id>,
	// and sessions are recovered from disk lazily — after a restart or an
	// LRU eviction, the next request naming the session rebuilds it.
	// Empty (the default) keeps sessions memory-only.
	DataDir string
	// Fsync selects when WAL appends reach stable storage: wal.PolicyAlways
	// (every append), wal.PolicyInterval (the store's one flusher, the
	// default) or wal.PolicyNever (the OS decides).
	Fsync wal.Policy
	// FsyncInterval is the flusher's period: a machine crash loses the
	// records, creates and deletes of one interval plus one flush. Default 100ms.
	FsyncInterval time.Duration
	// DisableMerkle turns off the per-session Merkle ledger (merkle.log,
	// chained checkpoint commits, the /proof endpoint). The zero value
	// keeps it on: tamper evidence is part of the durability contract.
	DisableMerkle bool
	// CheckpointEvery rewrites a session's checkpoint and empties its log
	// after this many WAL records. Default 256.
	CheckpointEvery int
	// TraceCycles bounds each session's in-memory cycle-trace ring served
	// at GET /api/v1/sessions/{id}/trace. Default obs.DefaultRingCapacity.
	TraceCycles int
	// SpanCapacity bounds the node's distributed-tracing span store
	// served at GET /debug/spans. Default obs.DefaultSpanCapacity.
	SpanCapacity int
	// SlowRequestThreshold is the latency beyond which a request's full
	// span tree is captured into the flight recorder (GET
	// /debug/flightrecorder, dumped on SIGQUIT by cmd/paruleld). Default
	// 1s; negative disables capture.
	SlowRequestThreshold time.Duration
	// FlightRecorderSize bounds the flight-recorder ring. Default obs.DefaultFlightRecorderCapacity.
	FlightRecorderSize int
	// Cluster, when non-nil, joins this node to a static cluster: the
	// consistent-hash ring shards the session-id keyspace across members,
	// non-owned requests are proxied or redirected, each session's WAL
	// streams to a follower, and sessions migrate on POST /cluster/move.
	// Requires DataDir. See internal/cluster and docs/SERVER.md.
	Cluster *cluster.Config
	// Logger receives structured log records (one per notable event plus a
	// per-request access line); nil means discard.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 64
	}
	if c.IdleTTL <= 0 {
		c.IdleTTL = 30 * time.Minute
	}
	if c.MaxConcurrentRuns <= 0 {
		c.MaxConcurrentRuns = 8
	}
	if c.MaxInflightRuns == 0 {
		c.MaxInflightRuns = 8 * c.MaxConcurrentRuns
	}
	if c.MutationQueueDepth == 0 {
		c.MutationQueueDepth = 32
	}
	if c.DefaultRunTimeout <= 0 {
		c.DefaultRunTimeout = 30 * time.Second
	}
	if c.MaxRunTimeout <= 0 {
		c.MaxRunTimeout = 5 * time.Minute
	}
	if c.MaxCycles <= 0 {
		c.MaxCycles = 10_000_000
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 256
	}
	if c.SlowRequestThreshold == 0 {
		c.SlowRequestThreshold = time.Second
	}
	if c.Logger == nil {
		c.Logger = slog.New(discardHandler{})
	}
	return c
}

// discardHandler is the nil Config.Logger: it reports every level disabled,
// so a record nobody reads is never formatted. (slog.DiscardHandler needs
// go 1.24.)
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }

// Server is the paruleld HTTP handler plus its session pool.
type Server struct {
	cfg      Config
	mux      *http.ServeMux
	runQueue *runQueue
	jobs     *jobRegistry
	metrics  *collector
	start    time.Time
	store    *store.Store  // nil when durability is disabled
	cluster  *clusterState // nil when not in cluster mode
	spans    *obs.SpanStore
	flight   *obs.FlightRecorder

	reqID atomic.Uint64 // monotonically increasing request ids

	mu          sync.Mutex
	sessions    map[string]*session
	rehydrating map[string]chan struct{} // in-flight recoveries, by session id
	lru         *list.List               // front = most recently used; values are *session
	nextID      uint64
	draining    bool
	active      int           // runs currently executing (or waiting on runSem)
	idle        chan struct{} // closed when draining && active == 0

	janitorStop chan struct{}
	janitorDone chan struct{}
}

// New builds a server and starts its expiry janitor. Call Close to stop
// it. The only error source is the durability store: when Config.DataDir
// is set, its session directory must be creatable and scannable.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:         cfg,
		mux:         http.NewServeMux(),
		runQueue:    newRunQueue(cfg.MaxConcurrentRuns, cfg.MaxInflightRuns),
		jobs:        newJobRegistry(),
		metrics:     newCollector(),
		start:       time.Now(),
		sessions:    make(map[string]*session),
		rehydrating: make(map[string]chan struct{}),
		lru:         list.New(),
		idle:        make(chan struct{}),
		janitorStop: make(chan struct{}),
		janitorDone: make(chan struct{}),
		flight:      obs.NewFlightRecorder(cfg.FlightRecorderSize),
	}
	node := ""
	if cfg.Cluster != nil {
		node = cfg.Cluster.Node
	}
	s.spans = obs.NewSpanStore(node, cfg.SpanCapacity)
	s.spans.OnRecord = func(sp obs.Span) {
		s.metrics.stageObserved(sp.Stage, time.Duration(sp.DurNS))
	}
	if cfg.DataDir != "" {
		m := s.metrics
		walOpts := wal.Options{
			Policy:   cfg.Fsync,
			Interval: cfg.FsyncInterval,
			OnAppend: func(n int) { m.inc(&m.Durability.WALRecords); m.add(&m.Durability.WALBytes, uint64(n)) },
			OnFsync:  m.fsyncObserved,
		}
		st, maxID, err := store.Open(cfg.DataDir, walOpts, !cfg.DisableMerkle)
		if err != nil {
			return nil, err
		}
		s.store = st
		s.nextID = maxID // never reuse a recoverable session's id
		m.Durability = &durabilityPayload{FoundOnBoot: st.Count(), fsyncPayload: fsyncPayload(*newHist())}
		if n := st.Count(); n > 0 {
			cfg.Logger.Info("durability: recoverable sessions found", "count", n, "data_dir", cfg.DataDir)
		}
		for _, id := range st.SetAside() {
			cfg.Logger.Warn("durability: not serving a session directory with no byte on disk", "session_id", id, "data_dir", cfg.DataDir)
		}
	}
	if cfg.Cluster != nil {
		if err := s.startCluster(*cfg.Cluster); err != nil {
			return nil, errors.Join(err, s.store.Close()) // cluster mode requires DataDir
		}
	}
	s.routes()
	go s.janitor()
	return s, nil
}

// ctxKey keys the values the request middleware stashes in the context.
type ctxKey int

const (
	ctxKeyRequestID ctxKey = iota
	ctxKeyTrace
)

// RequestID extracts the server-assigned request id, or 0 when ctx did
// not pass through ServeHTTP (internal work like the janitor).
func RequestID(ctx context.Context) uint64 {
	id, _ := ctx.Value(ctxKeyRequestID).(uint64)
	return id
}

// log returns the configured logger annotated with the request id, when
// the context carries one. Every handler-side log line goes through this
// so log records correlate with access lines.
func (s *Server) log(ctx context.Context) *slog.Logger {
	if id := RequestID(ctx); id != 0 {
		return s.cfg.Logger.With("request_id", id)
	}
	return s.cfg.Logger
}

// statusWriter records the status code for the access log and injects
// the Server-Timing header — the stage durations accumulated so far —
// just before the response commits.
type statusWriter struct {
	http.ResponseWriter
	status  int
	timings *reqTimings
	wrote   bool
}

func (sw *statusWriter) WriteHeader(code int) {
	if !sw.wrote {
		sw.wrote = true
		if h := sw.timings.header(); h != "" {
			sw.ResponseWriter.Header().Set("Server-Timing", h)
		}
	}
	sw.status = code
	sw.ResponseWriter.WriteHeader(code)
}

// Unwrap lets http.NewResponseController reach the underlying writer, so
// the NDJSON /stream endpoint and the cluster proxy can flush and go full
// duplex through the wrapper.
func (sw *statusWriter) Unwrap() http.ResponseWriter { return sw.ResponseWriter }

// maxBodyBytes bounds request bodies.
const maxBodyBytes = 4 << 20

// ServeHTTP implements http.Handler. Every request is assigned an id
// and a trace context — both adopted from the X-Parulel-Trace header
// when a peer or trace-aware client sent one, so a proxied request logs
// the same request id on every hop and its spans share one trace id —
// propagated via context into handler log lines, and finished with one
// structured access record, an ingress span, and (when the request was
// slow) a flight-recorder capture.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tc, carried := obs.ParseTraceContext(r.Header.Get(obs.TraceHeader))
	id := tc.ReqID
	if id == 0 {
		id = s.reqID.Add(1)
	}
	if !carried {
		tc = obs.TraceContext{TraceID: obs.NewTraceID(), ReqID: id}
	}
	ingress := s.spans.Start(tc.TraceID, tc.Parent, stageIngress)
	ingress.SetAttr("method", r.Method)
	ingress.SetAttr("path", r.URL.Path)
	ti := &traceInfo{trace: tc.TraceID, parent: ingress.ID(), timings: &reqTimings{}}
	ctx := context.WithValue(r.Context(), ctxKeyRequestID, id)
	r = r.WithContext(context.WithValue(ctx, ctxKeyTrace, ti))
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK, timings: ti.timings}
	// Echo the trace on the response so clients (and the smoke tests)
	// learn the trace id, and so a client following a 307 redirect can
	// re-send the header and keep the trace stitched.
	w.Header().Set(obs.TraceHeader, obs.TraceContext{TraceID: tc.TraceID, Parent: ingress.ID(), ReqID: id}.String())
	t0 := time.Now()
	s.mux.ServeHTTP(sw, r)
	dur := time.Since(t0)
	ingress.SetAttr("status", strconv.Itoa(sw.status))
	ingress.EndWith(dur)
	if thr := s.cfg.SlowRequestThreshold; thr > 0 && dur >= thr {
		s.flight.Push(obs.FlightRecord{
			TraceID:     tc.TraceID,
			Method:      r.Method,
			Path:        r.URL.Path,
			Status:      sw.status,
			DurNS:       dur.Nanoseconds(),
			CapturedUNN: time.Now().UnixNano(),
			Spans:       s.spans.Query(tc.TraceID, "", 0, 0),
		})
	}
	s.cfg.Logger.Info("request",
		"request_id", id,
		"trace_id", tc.TraceID,
		"method", r.Method,
		"path", r.URL.Path,
		"status", sw.status,
		"duration_ms", dur.Milliseconds())
}

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /debug/spans", s.handleDebugSpans)
	s.mux.HandleFunc("GET /debug/flightrecorder", s.handleFlightRecorder)
	s.mux.HandleFunc("GET /cluster", s.handleClusterStatus)
	s.mux.HandleFunc("GET /cluster/trace/{trace}", s.handleClusterTrace)
	s.mux.HandleFunc("POST /cluster/move", s.handleClusterMove)
	s.mux.HandleFunc("GET /api/v1/programs", s.handlePrograms)
	s.mux.HandleFunc("POST /api/v1/sessions", s.handleCreateSession)
	s.mux.HandleFunc("GET /api/v1/sessions", s.handleListSessions)
	// Session-scoped routes pass the cluster ownership check first: a
	// non-owner proxies or redirects to the owner (no-op single-node).
	s.mux.HandleFunc("GET /api/v1/sessions/{id}", s.routed(s.handleGetSession))
	s.mux.HandleFunc("DELETE /api/v1/sessions/{id}", s.routed(s.handleDeleteSession))
	s.mux.HandleFunc("POST /api/v1/sessions/{id}/facts", s.routed(s.handleOp("assert", "facts asserted in memory but not durably logged")))
	s.mux.HandleFunc("POST /api/v1/sessions/{id}/retract", s.routed(s.handleOp("retract", "facts retracted in memory but not durably logged")))
	s.mux.HandleFunc("POST /api/v1/sessions/{id}/run", s.routed(s.handleRun))
	s.mux.HandleFunc("POST /api/v1/sessions/{id}/batch", s.routed(s.handleBatch))
	s.mux.HandleFunc("POST /api/v1/sessions/{id}/stream", s.routed(s.handleStream))
	s.mux.HandleFunc("GET /api/v1/sessions/{id}/jobs", s.routed(s.handleJobList))
	s.mux.HandleFunc("GET /api/v1/sessions/{id}/jobs/{job}", s.routed(s.handleJobGet))
	s.mux.HandleFunc("DELETE /api/v1/sessions/{id}/jobs/{job}", s.routed(s.handleJobCancel))
	s.mux.HandleFunc("GET /api/v1/sessions/{id}/trace", s.routed(s.handleTrace))
	s.mux.HandleFunc("GET /api/v1/sessions/{id}/wm", s.routed(s.handleWM))
	s.mux.HandleFunc("GET /api/v1/sessions/{id}/proof", s.routed(s.handleProof))
	s.mux.HandleFunc("GET /api/v1/sessions/{id}/snapshot", s.routed(s.handleSnapshotExport))
	s.mux.HandleFunc("POST /api/v1/sessions/{id}/snapshot", s.routed(s.handleOp("import", "facts imported in memory but not durably logged")))
}

// Close drains the server: new runs are rejected, live async jobs are
// canceled (surfacing as "interrupted"), in-flight runs finish (or ctx
// expires), and the janitor stops. Safe to call once.
func (s *Server) Close(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.janitorStop)
		if s.active == 0 {
			close(s.idle)
		}
	}
	s.mu.Unlock()
	for _, j := range s.jobs.all() {
		j.cancelAs("drain")
	}
	<-s.janitorDone
	var err error
	select {
	case <-s.idle:
	case <-ctx.Done():
		err = fmt.Errorf("server: drain interrupted with runs in flight: %w", ctx.Err())
	}
	// Close every live log, then the store: nothing stays in the page cache.
	s.mu.Lock()
	for _, sess := range s.sessions {
		s.closeFiles(sess)
	}
	s.mu.Unlock()
	s.stopCluster()
	return errors.Join(err, s.store.Close())
}

// closeFiles closes a session's replication stream and its log, keeping
// the files. It does not need the slot: the holder's next send or append
// fails, and it detaches or reports the mutation as not durable.
func (s *Server) closeFiles(sess *session) {
	if stream := sess.repl.Load(); stream != nil {
		stream.Close()
	}
	if sess.dur != nil {
		if err := sess.dur.Close(); err != nil {
			s.cfg.Logger.Error("closing wal", "session_id", sess.id, "err", err)
		}
	}
}

// janitor periodically expires idle sessions.
func (s *Server) janitor() {
	defer close(s.janitorDone)
	t := time.NewTicker(min(max(s.cfg.IdleTTL/4, 100*time.Millisecond), time.Minute))
	defer t.Stop()
	for {
		select {
		case <-s.janitorStop:
			return
		case <-t.C:
			s.sweep(time.Now())
		}
	}
}

// sweep evicts sessions idle past the TTL. Busy sessions are skipped —
// their lastUsed is refreshed when the request finishes looking them up,
// and a run in flight must not lose its session.
func (s *Server) sweep(now time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for e := s.lru.Back(); e != nil; {
		prev := e.Prev()
		sess := e.Value.(*session)
		if now.Sub(sess.lastUsed) < s.cfg.IdleTTL {
			break // LRU order: everything further forward is younger
		}
		if !sess.busy() {
			s.evictLocked(sess)
			s.metrics.inc(&s.metrics.Sessions.Expired)
			s.cfg.Logger.Info("session expired",
				"session_id", sess.id,
				"idle", now.Sub(sess.lastUsed).Round(time.Millisecond).String(),
				"fate", recoverableNote(sess))
		}
		e = prev
	}
}

// evictLocked removes a session from the pool, closing (but keeping) its
// on-disk state so it can be rehydrated later. Caller holds s.mu.
func (s *Server) evictLocked(sess *session) {
	sess.closed.Store(true)
	delete(s.sessions, sess.id)
	s.lru.Remove(sess.elem)
	sess.elem = nil
	s.closeFiles(sess)
}

// dropLocalSession discards this node's copy of a session — pool entry,
// on-disk state, jobs — because a client deleted it or its ownership moved
// elsewhere (the new owner's copy is then the session; these bytes are
// stale). It reports whether there was anything to discard, and why its
// files are still there when removing them failed (it logs that too).
func (s *Server) dropLocalSession(ctx context.Context, id string) (found bool, err error) {
	s.mu.Lock()
	sess, live := s.sessions[id]
	if live {
		if sess.dur != nil {
			// No fsync for a log about to be removed; the close in
			// evictLocked is then a no-op.
			if err := sess.dur.Discard(); err != nil {
				s.log(ctx).Error("closing wal", "session_id", id, "err", err)
			}
		}
		s.evictLocked(sess)
	}
	s.mu.Unlock()
	onDisk := s.store != nil && s.store.Has(id)
	if onDisk {
		if err = s.store.Remove(id); err != nil {
			s.log(ctx).Error("removing data dir", "session_id", id, "err", err)
		}
	}
	s.jobs.dropSession(id)
	return live || onDisk, err
}

// recoverableNote annotates eviction log lines with the session's fate:
// durable sessions rehydrate on next touch, memory-only ones are gone.
func recoverableNote(sess *session) string {
	if sess.dur != nil {
		return "recoverable on disk"
	}
	return "state discarded"
}

// insertLocked adds sess to the pool, evicting LRU sessions to make room
// while preferring idle ones; a pool full of busy sessions rejects the
// insert rather than killing a running one. Caller holds s.mu.
func (s *Server) insertLocked(sess *session) error {
	if _, ok := s.sessions[sess.id]; ok {
		// Overwriting would orphan the incumbent in the LRU list with an
		// open WAL handle; no legitimate path inserts a live id twice.
		return fmt.Errorf("session %s is already in the pool", sess.id)
	}
	for len(s.sessions) >= s.cfg.MaxSessions {
		victim := (*session)(nil)
		for e := s.lru.Back(); e != nil; e = e.Prev() {
			if cand := e.Value.(*session); !cand.busy() {
				victim = cand
				break
			}
		}
		if victim == nil {
			return errors.New("session pool full and all sessions busy")
		}
		s.evictLocked(victim)
		s.metrics.inc(&s.metrics.Sessions.Evicted)
		s.cfg.Logger.Info("session evicted", "session_id", victim.id, "reason", "pool full", "fate", recoverableNote(victim))
	}
	sess.elem = s.lru.PushFront(sess)
	s.sessions[sess.id] = sess
	return nil
}

// holdSession's refusals. sessionByID's errors wrap errNoSession.
var (
	errNoSession = errors.New("no session")
	errEvicted   = errors.New("session was evicted")
	errQueueFull = errors.New("mutation queue is full")
)

// sessionByID finds a session and marks it used, transparently rehydrating
// it from disk when it was evicted or belongs to a previous process.
func (s *Server) sessionByID(ctx context.Context, id string) (*session, error) {
	for attempt := 0; ; attempt++ {
		s.mu.Lock()
		sess, ok := s.sessions[id]
		if ok {
			sess.lastUsed = time.Now()
			s.lru.MoveToFront(sess.elem)
		}
		draining := s.draining
		s.mu.Unlock()
		if ok {
			return sess, nil
		}
		if s.store == nil || draining || attempt > 0 || !s.store.Has(id) {
			return nil, fmt.Errorf("%w %q", errNoSession, id)
		}
		if err := s.rehydrate(ctx, id); err != nil {
			s.log(ctx).Error("session recovery failed", "session_id", id, "err", err)
			return nil, fmt.Errorf("%w %q (recovery failed: %v)", errNoSession, id, err)
		}
	}
}

// lookup is sessionByID for handlers: a nil return means the 404 has been
// written.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *session {
	sess, err := s.sessionByID(r.Context(), r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return nil
	}
	return sess
}

// holdSession returns session id with its slot held; the caller releases
// it. Every path to the engine takes the slot here: session slot first,
// engine slots per slice inside driveRun. A session evicted while the
// caller waited for the slot is looked up once more — with durability on,
// the re-lookup rehydrates it. depth > 0 applies the mutation-queue gate:
// when that many requests already hold or await the slot the call fails
// with errQueueFull instead of queueing, and on success the caller also
// owns one count of sess.waiters. The other errors are sessionByID's
// (errNoSession), errEvicted, and ctx's own when it ends during the wait.
func (s *Server) holdSession(ctx context.Context, id string, depth int) (*session, error) {
	for attempt := 0; ; attempt++ {
		sess, err := s.sessionByID(ctx, id)
		if err != nil {
			return nil, err
		}
		if depth > 0 && int(sess.waiters.Add(1)) > depth {
			sess.waiters.Add(-1)
			return nil, errQueueFull
		}
		waitSp := s.startSpan(ctx, stageSessionWait)
		err = sess.acquire(ctx)
		waitSp.End()
		if err == nil {
			if !sess.closed.Load() {
				return sess, nil
			}
			sess.release()
			err = errEvicted
		}
		if depth > 0 {
			sess.waiters.Add(-1)
		}
		if !errors.Is(err, errEvicted) || s.store == nil || attempt > 0 {
			return nil, err
		}
	}
}

// withSession runs fn holding the session slot under the request context,
// behind the per-session mutation-queue gate (Config.MutationQueueDepth).
// It reports whether the gate refused the request, which the stream
// handler counts separately.
func (s *Server) withSession(w http.ResponseWriter, r *http.Request, fn func(sess *session)) (refused bool) {
	id, depth := r.PathValue("id"), s.cfg.MutationQueueDepth
	sess, err := s.holdSession(r.Context(), id, depth)
	switch {
	case err == nil:
		if depth > 0 {
			defer sess.waiters.Add(-1)
		}
		defer sess.release()
		fn(sess)
	case errors.Is(err, errQueueFull):
		refused = true
		s.metrics.inc(&s.metrics.Admission.MutationsRejected)
		writeRetryAfter(w, fmt.Sprintf("session %s %v (depth %d)", id, err, depth))
	case errors.Is(err, errNoSession):
		writeError(w, http.StatusNotFound, err.Error())
	case errors.Is(err, errEvicted):
		writeError(w, http.StatusGone, err.Error())
	default:
		writeError(w, http.StatusServiceUnavailable, "session busy: "+err.Error())
	}
	return refused
}

// beginWork registers a request that may run the engine for graceful
// drain: Close waits for it, and a draining server refuses it — false
// means the 503 has been written. The caller owes one endWork.
func (s *Server) beginWork(w http.ResponseWriter) bool {
	s.mu.Lock()
	draining := s.draining
	if !draining {
		s.active++
	}
	s.mu.Unlock()
	if draining {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
	}
	return !draining
}

func (s *Server) endWork() {
	s.mu.Lock()
	s.active--
	if s.draining && s.active == 0 {
		close(s.idle)
	}
	s.mu.Unlock()
}

// writeRetryAfter answers 429 with the backpressure contract's header.
func writeRetryAfter(w http.ResponseWriter, msg string) {
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusTooManyRequests, msg)
}

// ---- handlers ----

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Cache-Control", "no-cache")
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

func (s *Server) handlePrograms(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]string{"programs": programs.All()})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	format := r.URL.Query().Get("format")
	switch format {
	case "", "json", "prometheus":
	default:
		writeError(w, http.StatusNotAcceptable, fmt.Sprintf("unknown format %q (want json or prometheus)", format))
		return
	}
	// The collector holds the counters and histograms; the gauges are
	// sampled here, each under the lock that guards it.
	p := s.metrics.snapshot()
	p.UptimeMS = time.Since(s.start).Milliseconds()
	s.mu.Lock()
	p.Sessions.Live, p.Runs.Active = len(s.sessions), s.active
	s.mu.Unlock()
	p.Admission.RunQueueLen, p.Admission.RunsInflight = s.runQueue.stats()
	p.Jobs.Active = s.jobs.activeCount()
	if p.Durability != nil {
		p.Durability.SessionsOnDisk = s.store.Count()
	}
	if cs := s.cluster; cs != nil {
		cs.mu.Lock()
		p.Cluster.RouteOverrides = len(cs.overrides)
		cs.mu.Unlock()
		p.Cluster.MembersTotal, p.Cluster.MembersUp = len(cs.members), cs.mship.UpCount()
		p.Cluster.ReplicaSessions = s.store.ReplicaCount()
	}
	w.Header().Set("Cache-Control", "no-cache")
	if format == "prometheus" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		writePrometheus(w, p)
		return
	}
	writeJSON(w, http.StatusOK, p)
}

// handleTrace serves the session's recent cycle events. It deliberately
// does NOT take the session slot: the trace ring is internally locked, so
// a trace can be read while a long run is still executing.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	sess := s.lookup(w, r)
	if sess == nil {
		return
	}
	limit, ok := queryLimit(w, r)
	if !ok {
		return
	}
	events := sess.trace.Events(limit)
	writeJSON(w, http.StatusOK, traceResponse{
		Session:  sess.id,
		Total:    sess.trace.Total(),
		Capacity: sess.trace.Capacity(),
		Events:   events,
	})
}

func (s *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	var req createSessionRequest
	if !readJSON(w, r, &req) {
		return
	}
	// source is the resolved text, logged for recovery.
	name, source, err := "uploaded", req.Source, error(nil)
	switch {
	case req.Program != "" && req.Source != "":
		writeError(w, http.StatusBadRequest, "give either program or source, not both")
		return
	case req.Program != "":
		name = req.Program
		source, err = programs.Source(req.Program)
	case req.Source == "":
		writeError(w, http.StatusBadRequest, "one of program or source is required")
		return
	}
	var prog *compile.Program
	if err == nil {
		prog, err = compile.CompileSource(source)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if req.Matcher != "" && req.Matcher != servedMatcher {
		writeError(w, http.StatusBadRequest, fmt.Sprintf(
			"matcher %q is not served: sessions run %s (treat is an experiment arm of `parulel run -matcher`)", req.Matcher, servedMatcher))
		return
	}
	maxCycles := req.MaxCycles
	if maxCycles <= 0 || maxCycles > s.cfg.MaxCycles {
		maxCycles = s.cfg.MaxCycles
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	var id string
	if cs := s.cluster; cs != nil {
		// Mint ids this node owns by hash, so freshly created sessions are
		// served where they were created; the node name makes ids unique
		// across the cluster. Roughly 1/len(members) of candidates land on
		// self, so the loop is short.
		for {
			s.nextID++
			id = fmt.Sprintf("s-%s-%d", cs.cfg.Node, s.nextID)
			if cs.ring.Owner(id) == cs.cfg.Node {
				break
			}
		}
	} else {
		s.nextID++
		id = "s" + strconv.FormatUint(s.nextID, 10)
	}
	s.mu.Unlock()

	meta := wal.Record{
		Op: wal.OpCreate, Program: name, Source: source,
		Matcher: servedMatcher, MaxCycles: maxCycles, CreatedNS: time.Now().UnixNano(),
	}
	sess := s.newSession(id, &meta, prog, false)
	if s.store != nil {
		dur, err := s.store.Create(id, meta)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "durability: "+err.Error())
			return
		}
		sess.dur = dur
	}

	s.mu.Lock()
	err = s.insertLocked(sess)
	if err == nil {
		if sess.dur != nil {
			// Only now may lookups see the id: marking before insertion
			// would let a concurrent request rehydrate from the OpCreate
			// record and race this insert.
			s.store.MarkKnown(id)
		}
		info := sess.info(sess.lastUsed)
		s.mu.Unlock()
		s.metrics.inc(&s.metrics.Sessions.Created)
		s.log(r.Context()).Info("session created",
			"session_id", id, "program", name,
			"matcher", servedMatcher, "durable", sess.dur != nil)
		writeJSON(w, http.StatusCreated, info)
		return
	}
	s.mu.Unlock()
	if sess.dur != nil {
		sess.dur.Close()
		if rerr := s.store.Remove(id); rerr != nil {
			s.log(r.Context()).Error("removing data dir", "session_id", id, "err", rerr)
		}
	}
	writeError(w, http.StatusServiceUnavailable, err.Error())
}

func (s *Server) handleListSessions(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	infos := make([]sessionInfo, 0, len(s.sessions))
	for e := s.lru.Front(); e != nil; e = e.Next() {
		sess := e.Value.(*session)
		infos = append(infos, sess.info(sess.lastUsed))
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"sessions": infos})
}

func (s *Server) handleGetSession(w http.ResponseWriter, r *http.Request) {
	sess := s.lookup(w, r)
	if sess == nil {
		return
	}
	s.mu.Lock()
	last := sess.lastUsed
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, sess.info(last))
}

func (s *Server) handleDeleteSession(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// An evicted-but-recoverable session is deletable too: its files go.
	switch found, err := s.dropLocalSession(r.Context(), id); {
	case err != nil: // the files stay, and so does the session: a retry may remove them
		writeError(w, http.StatusInternalServerError, "removing session files: "+err.Error())
		return
	case !found:
		writeError(w, http.StatusNotFound, fmt.Sprintf("no session %q", id))
		return
	}
	if cs := s.cluster; cs != nil { // peers discard their replica of the session
		cs.broadcast(func(m cluster.Member) error { return cs.client.SendDrop(m, id) })
	}
	s.metrics.inc(&s.metrics.Sessions.Deleted)
	s.log(r.Context()).Info("session deleted", "session_id", id)
	writeJSON(w, http.StatusOK, map[string]bool{"deleted": true})
}

func (s *Server) handleWM(w http.ResponseWriter, r *http.Request) {
	s.withSession(w, r, func(sess *session) {
		template := r.URL.Query().Get("template")
		limit, ok := queryLimit(w, r)
		if !ok {
			return
		}
		mem := sess.eng.Memory()
		var wmes []*wm.WME
		if template == "" {
			wmes = mem.Snapshot()
		} else {
			if _, ok := mem.Schema().Lookup(template); !ok {
				writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown template %q", template))
				return
			}
			wmes = mem.OfTemplate(template)
		}
		total := len(wmes)
		if limit > 0 && len(wmes) > limit {
			wmes = wmes[:limit]
		}
		sc := scanners.Get().(*factScanner)
		defer sc.release()
		out := append(sc.out[:0], `{"total":`...)
		out = strconv.AppendInt(out, int64(total), 10)
		out = append(out, `,"facts":[`...)
		for i, el := range wmes {
			if i > 0 {
				out = append(out, ',')
			}
			out = appendWireFact(out, el)
		}
		sc.out = append(out, "]}\n"...)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(sc.out) // a failed write is the client's disconnect
	})
}

func (s *Server) handleSnapshotExport(w http.ResponseWriter, r *http.Request) {
	s.withSession(w, r, func(sess *session) {
		// A symbol with no literal form is refused before the first byte,
		// so it still gets a status of its own; any later failure is the
		// client's disconnect, and the headers are gone.
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if err := snapshot.Write(w, sess.eng.Memory()); err != nil {
			var se *snapshot.SymbolError
			if errors.As(err, &se) {
				writeError(w, http.StatusConflict, err.Error())
				return
			}
			s.log(r.Context()).Error("snapshot export failed", "session_id", sess.id, "err", err)
		}
	})
}

// ---- plumbing ----

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorResponse{Error: msg})
}

// queryLimit reads the ?limit= of a listing, 0 (no limit) when absent. A
// false return means the 400 has been written.
func queryLimit(w http.ResponseWriter, r *http.Request) (int, bool) {
	n, err := 0, error(nil)
	if ls := r.URL.Query().Get("limit"); ls != "" {
		n, err = strconv.Atoi(ls)
	}
	if err != nil || n < 0 {
		writeError(w, http.StatusBadRequest, "bad limit")
		return 0, false
	}
	return n, true
}

// readJSON decodes a request body, tolerating an empty body (all request
// types have usable zero values). Returns false after writing an error.
func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		if errors.Is(err, io.EOF) {
			return true
		}
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return false
	}
	return true
}
