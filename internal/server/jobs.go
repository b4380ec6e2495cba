package server

// Async runs. POST /sessions/{id}/run?async=1 registers a *job* and
// returns its id immediately; a goroutine then takes the session slot and
// drives the run exactly like the synchronous path, while the client polls
// GET /sessions/{id}/jobs/{job}. Jobs are cancelable (DELETE) until they
// finish, and their lifecycle is marked in the WAL (wal.OpJob): a job
// whose last logged status is "queued" when the process dies surfaces as
// "interrupted" after recovery.
//
// Job ids are random (crypto/rand), not sequential: uniqueness must hold
// across restarts and the id counter is deliberately not persisted.
//
// The registry is guarded by one mutex with short critical sections only —
// never held across a queue wait or an engine run — so /metrics and job
// polling stay responsive while the run queue is saturated.

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"parulel/internal/core"
	"parulel/internal/wal"
)

// Job lifecycle states. queued → running → one of the terminal four.
const (
	jobQueued      = "queued"
	jobRunning     = "running"
	jobDone        = "done" // includes deadline-expired runs: work committed, session usable
	jobCanceled    = "canceled"
	jobInterrupted = "interrupted" // server died or drained mid-job
	jobError       = "error"
)

// job is one async run. The mutex guards every mutable field; the runner
// goroutine is the only writer of terminal states, so cancellation only
// flips cancelBy and fires the context.
type job struct {
	id      string
	session string

	mu       sync.Mutex
	status   string
	created  time.Time
	started  time.Time
	finished time.Time
	cancel   context.CancelFunc // nil once terminal (or for recovered jobs)
	cancelBy string             // "client" or "drain", set before cancel fires
	result   *runResponse
	errMsg   string
}

func (j *job) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status != jobQueued && j.status != jobRunning
}

func (j *job) view() jobInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := jobInfo{
		ID:        j.id,
		Session:   j.session,
		Status:    j.status,
		CreatedAt: j.created.UTC().Format(time.RFC3339Nano),
		Error:     j.errMsg,
		Result:    j.result,
	}
	if !j.started.IsZero() {
		v.StartedAt = j.started.UTC().Format(time.RFC3339Nano)
	}
	if !j.finished.IsZero() {
		v.FinishedAt = j.finished.UTC().Format(time.RFC3339Nano)
	}
	return v
}

// newJobID mints a 64-bit random id. Collisions are vanishingly unlikely
// and rejected by the registry anyway.
func newJobID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("crypto/rand unavailable: " + err.Error())
	}
	return "j" + hex.EncodeToString(b[:])
}

// keepFinishedJobs bounds terminal jobs retained per session; the oldest
// finished ones are dropped first. Live jobs are never evicted.
const keepFinishedJobs = 64

type jobRegistry struct {
	mu        sync.Mutex
	jobs      map[string]*job
	bySession map[string][]*job
}

func newJobRegistry() *jobRegistry {
	return &jobRegistry{jobs: make(map[string]*job), bySession: make(map[string][]*job)}
}

// add registers a job, dropping the session's oldest finished jobs beyond
// the retention cap. An already-known id is kept as is (recovery folds
// must not clobber a live job).
func (r *jobRegistry) add(j *job) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.jobs[j.id]; ok {
		return false
	}
	r.jobs[j.id] = j
	list := append(r.bySession[j.session], j)
	if excess := len(list) - keepFinishedJobs; excess > 0 {
		kept := list[:0]
		for _, old := range list {
			if excess > 0 && old != j && old.terminal() {
				delete(r.jobs, old.id)
				excess--
				continue
			}
			kept = append(kept, old)
		}
		list = kept
	}
	r.bySession[j.session] = list
	return true
}

func (r *jobRegistry) get(id string) *job {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.jobs[id]
}

func (r *jobRegistry) forSession(sessID string) []*job {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*job(nil), r.bySession[sessID]...)
}

// activeFor lists the session's non-terminal job ids, used to re-log their
// queued markers after a checkpoint truncates the WAL.
func (r *jobRegistry) activeFor(sessID string) []string {
	r.mu.Lock()
	list := append([]*job(nil), r.bySession[sessID]...)
	r.mu.Unlock()
	ids := make([]string, 0, len(list))
	for _, j := range list {
		if !j.terminal() {
			ids = append(ids, j.id)
		}
	}
	return ids
}

func (r *jobRegistry) activeCount() int {
	r.mu.Lock()
	list := make([]*job, 0, len(r.jobs))
	for _, j := range r.jobs {
		list = append(list, j)
	}
	r.mu.Unlock()
	n := 0
	for _, j := range list {
		if !j.terminal() {
			n++
		}
	}
	return n
}

func (r *jobRegistry) all() []*job {
	r.mu.Lock()
	defer r.mu.Unlock()
	list := make([]*job, 0, len(r.jobs))
	for _, j := range r.jobs {
		list = append(list, j)
	}
	return list
}

// dropSession forgets a deleted session's jobs.
func (r *jobRegistry) dropSession(sessID string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, j := range r.bySession[sessID] {
		delete(r.jobs, j.id)
	}
	delete(r.bySession, sessID)
}

// ---- server plumbing ----

// cancelAllJobs fires every live job's context; by records who asked so
// the runner can distinguish client cancels from server drain.
func (s *Server) cancelAllJobs(by string) {
	for _, j := range s.jobs.all() {
		j.mu.Lock()
		cancel := j.cancel
		if cancel != nil && j.cancelBy == "" {
			j.cancelBy = by
		}
		j.mu.Unlock()
		if cancel != nil {
			cancel()
		}
	}
}

// appendJobMarker best-effort logs a job lifecycle record. Marker loss is
// tolerable — the job still runs; recovery just cannot surface it.
func (s *Server) appendJobMarker(ctx context.Context, sess *session, jobID, status string) {
	if sess.dur == nil {
		return
	}
	if _, err := sess.dur.Append(&wal.Record{Op: wal.OpJob, Job: jobID, JobStatus: status}, false); err != nil {
		s.log(ctx).Warn("job marker not logged", "session_id", sess.id, "job_id", jobID, "status", status, "err", err)
	}
}

// foldRecoveredJobs registers the job markers replayed from a session's
// WAL: a job whose last logged status is non-terminal was in flight when
// the process died and surfaces as interrupted.
func (s *Server) foldRecoveredJobs(sessID string, statuses map[string]string) {
	for id, status := range statuses {
		if status == jobQueued || status == jobRunning {
			status = jobInterrupted
		}
		j := &job{id: id, session: sessID, status: status, created: time.Now(), finished: time.Now()}
		if s.jobs.add(j) && status == jobInterrupted {
			s.metrics.inc(&s.metrics.Jobs.Interrupted)
		}
	}
}

// startAsyncRun answers POST /run?async=1: register the job, log its
// queued marker, kick off the runner and reply 202. The runner goroutine
// takes over the caller's ticket and drain registration (endWork).
func (s *Server) startAsyncRun(w http.ResponseWriter, r *http.Request, sess *session, ticket *runTicket, timeout time.Duration) {
	// The runner outlives the request, so it gets a fresh context — but
	// one carrying the request's trace and id, so the job's spans and log
	// lines join the originating trace. The timings accumulator is fresh:
	// the 202 response's Server-Timing already shipped.
	base := context.Background()
	if ti := traceFrom(r.Context()); ti != nil {
		base = context.WithValue(base, ctxKeyTrace, &traceInfo{trace: ti.trace, parent: ti.parent, timings: &reqTimings{}})
	}
	if id := RequestID(r.Context()); id != 0 {
		base = context.WithValue(base, ctxKeyRequestID, id)
	}
	ctx, cancel := context.WithTimeout(base, timeout)
	j := &job{
		id:      newJobID(),
		session: sess.id,
		status:  jobQueued,
		created: time.Now(),
		cancel:  cancel,
	}
	for !s.jobs.add(j) {
		j.id = newJobID()
	}
	s.metrics.inc(&s.metrics.Jobs.Created)
	s.appendJobMarker(r.Context(), sess, j.id, jobQueued)
	s.log(r.Context()).Info("job queued", "job_id", j.id, "session_id", sess.id, "timeout", timeout.String())
	go s.runJob(ctx, cancel, j, ticket)
	writeJSON(w, http.StatusAccepted, j.view())
}

// runJob is the async runner: session slot → driveRun → terminal state.
func (s *Server) runJob(ctx context.Context, cancel context.CancelFunc, j *job, ticket *runTicket) {
	defer s.endWork()
	defer ticket.done()
	defer cancel()
	s.metrics.inc(&s.metrics.Runs.Started)

	sess, err := s.holdSession(ctx, j.session, 0)
	if err != nil {
		if !errors.Is(err, errNoSession) && !errors.Is(err, errEvicted) {
			err = fmt.Errorf("waiting for the session: %w", err)
		}
		s.finishJob(ctx, nil, j, runOutcome{err: fmt.Errorf("%w: %w", core.ErrCanceled, err), persisted: true})
		return
	}
	defer sess.release()

	j.mu.Lock()
	if j.status == jobQueued {
		j.status = jobRunning
		j.started = time.Now()
	}
	j.mu.Unlock()

	out := s.driveRun(ctx, sess, ticket, s.immediateSink(ctx, sess))
	s.finishJob(ctx, sess, j, out)
}

// finishJob maps a run outcome onto the job's terminal state, logs the
// terminal WAL marker and bumps the run and job counters. sess may be nil
// when the job never reached its session.
func (s *Server) finishJob(ctx context.Context, sess *session, j *job, out runOutcome) {
	var status, msg string
	counter := &s.metrics.Jobs.Errors
	s.countRunOutcome(out)
	switch {
	case out.err == nil && !out.persisted:
		status, msg = jobError, "run committed in memory but not durably logged"
	case out.err == nil:
		status, counter = jobDone, &s.metrics.Jobs.Done
	case errors.Is(out.err, context.DeadlineExceeded):
		status, counter = jobDone, &s.metrics.Jobs.Done
		msg = fmt.Sprintf("run exceeded its deadline; %d cycles committed, session still usable", out.resp.Cycles)
	case errors.Is(out.err, context.Canceled):
		j.mu.Lock()
		by := j.cancelBy
		j.mu.Unlock()
		if by == "drain" {
			status, msg, counter = jobInterrupted, "server drained mid-job", &s.metrics.Jobs.Interrupted
		} else {
			status, msg, counter = jobCanceled, "canceled", &s.metrics.Jobs.Canceled
		}
	default:
		status, msg = jobError, out.err.Error()
	}

	resp := out.resp
	j.mu.Lock()
	j.status = status
	j.finished = time.Now()
	created := j.created
	j.cancel = nil
	j.errMsg = msg
	if sess != nil {
		j.result = &resp
	}
	j.mu.Unlock()
	// One span for the job's whole life, queued wait included.
	s.recordSpan(ctx, "", stageJobRun, time.Since(created))
	s.metrics.inc(counter)
	if sess != nil {
		s.appendJobMarker(ctx, sess, j.id, status)
	}
	s.log(ctx).Info("job finished", "job_id", j.id, "session_id", j.session, "status", status, "cycles", resp.Cycles)
}

// ---- handlers ----

// jobForRequest resolves {job} within {id}, answering 404 itself on a miss.
// The session lookup runs first so a restarted server rehydrates (and
// thereby folds recovered job markers) before the registry is consulted.
func (s *Server) jobForRequest(w http.ResponseWriter, r *http.Request) *job {
	sess := s.lookup(w, r)
	if sess == nil {
		return nil
	}
	id := r.PathValue("job")
	j := s.jobs.get(id)
	if j == nil || j.session != sess.id {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no job %q in session %q", id, sess.id))
		return nil
	}
	return j
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	if j := s.jobForRequest(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.view())
	}
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	sess := s.lookup(w, r)
	if sess == nil {
		return
	}
	jobs := s.jobs.forSession(sess.id)
	views := make([]jobInfo, 0, len(jobs))
	for _, j := range jobs {
		views = append(views, j.view())
	}
	sort.Slice(views, func(i, k int) bool { return views[i].CreatedAt < views[k].CreatedAt })
	writeJSON(w, http.StatusOK, map[string]any{"jobs": views})
}

// handleJobCancel requests cancellation. The reply reflects the state at
// reply time: the runner observes the canceled context asynchronously, so
// the status may still read queued/running immediately after.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j := s.jobForRequest(w, r)
	if j == nil {
		return
	}
	j.mu.Lock()
	if j.status != jobQueued && j.status != jobRunning {
		j.mu.Unlock()
		writeError(w, http.StatusConflict, fmt.Sprintf("job %s already finished (%s)", j.id, j.status))
		return
	}
	if j.cancelBy == "" {
		j.cancelBy = "client"
	}
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	s.log(r.Context()).Info("job cancel requested", "job_id", j.id, "session_id", j.session)
	writeJSON(w, http.StatusOK, j.view())
}
