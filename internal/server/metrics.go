package server

import (
	"sort"
	"sync"
	"time"

	"parulel/internal/match"
	"parulel/internal/stats"
)

// collector aggregates engine cycle records and server counters across
// every session, live or evicted. Percentiles are computed over a bounded
// sliding window of the newest cycle records (metricsWindow); totals and
// histograms cover the server's whole lifetime.
type collector struct {
	mu sync.Mutex

	// Lifetime totals.
	cycles      uint64
	fired       uint64
	redacted    uint64
	maxConflict int
	phaseTotals [4]time.Duration // match, redact, fire, apply
	hists       [4]*stats.Hist

	// Sliding window for percentiles.
	window    stats.Run
	windowCap int

	// Per-rule match/fire activity, folded as deltas after each run. The
	// map is capped at maxRuleSeries names to bound /metrics cardinality;
	// activity on rules beyond the cap is counted in rulesDropped.
	rules        map[string]*match.RuleProfile
	rulesDropped uint64

	// Per-stage request latency (queue wait, WAL append, fsync,
	// replication ack, engine run, …), fed by the span store's OnRecord
	// hook. Stage names form a small fixed set, so the map stays bounded.
	stages map[string]*stageAgg

	// Run/session counters.
	runsStarted, runsCompleted, runTimeouts, runsCanceled, runErrors   uint64
	sessionsCreated, sessionsEvicted, sessionsExpired, sessionsDeleted uint64

	// Admission-control counters.
	runsRejected      uint64 // runs refused with 429 (run queue full)
	mutationsRejected uint64 // mutations refused with 429 (session queue full)

	// Async-job counters.
	jobsCreated, jobsDone, jobsCanceled, jobsInterrupted, jobsErrors uint64

	// Batch counters.
	batches  uint64 // batch requests served
	batchOps uint64 // ops applied across all batches

	// Stream/temporal counters.
	streamFrames   uint64 // NDJSON frames applied across all stream requests
	streamFacts    uint64 // facts asserted via stream frames
	streamRejected uint64 // stream requests refused with 429
	ticks          uint64 // temporal clock advances (batch tick ops + frames)
	expiredFacts   uint64 // facts retracted by TTL expiry

	// Durability counters; durEnabled gates the payload section.
	durEnabled         bool
	foundOnBoot        int
	walRecords         uint64
	walBytes           uint64
	fsyncs             uint64
	fsyncTotal         time.Duration
	fsyncHist          *stats.Hist
	checkpoints        uint64
	checkpointErrors   uint64
	checkpointTotal    time.Duration
	sessionsRehydrated uint64
	recoveryFailures   uint64
	walTruncations     uint64
	walTruncatedBytes  uint64
	groupCommits       uint64 // batched flushes issued under fsync=group
	groupedAppends     uint64 // appends those flushes made durable

	// Cluster counters; clusterNode gates the payload section.
	clusterNode     string
	proxied         uint64 // requests proxied to their owning node
	redirected      uint64 // requests answered with a 307 to the owner
	replStreams     uint64 // replication streams attached (incl. re-attaches)
	replRecords     uint64 // WAL records acknowledged by a replica
	replFailures    uint64 // replication sends/attaches that failed
	replUnprotected uint64 // mutations acked with no live replica target
	migrationsIn    uint64
	migrationsOut   uint64
	promotions      uint64 // replicas promoted to primary (failovers)
}

// metricsWindow is the default number of cycle records retained for
// percentile computation (~a few MB at most).
const metricsWindow = 65536

// maxRuleSeries caps the number of distinct rule names tracked in the
// per-rule profile aggregate (and hence the /metrics label cardinality).
const maxRuleSeries = 256

var phaseNames = [4]string{"match", "redact", "fire", "apply"}

// stageAgg is one serving-path stage's latency aggregate.
type stageAgg struct {
	total time.Duration
	hist  *stats.Hist
}

func newCollector() *collector {
	c := &collector{
		windowCap: metricsWindow,
		fsyncHist: stats.NewHist(),
		rules:     make(map[string]*match.RuleProfile),
		stages:    make(map[string]*stageAgg),
	}
	for i := range c.hists {
		c.hists[i] = stats.NewHist()
	}
	return c
}

// observe folds freshly produced cycle records into the aggregate.
func (c *collector) observe(cycles []stats.Cycle) {
	if len(cycles) == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, cyc := range cycles {
		c.cycles++
		c.fired += uint64(cyc.Fired)
		c.redacted += uint64(cyc.Redacted)
		if cyc.ConflictSize > c.maxConflict {
			c.maxConflict = cyc.ConflictSize
		}
		for i, d := range [4]time.Duration{cyc.Match, cyc.Redact, cyc.Fire, cyc.Apply} {
			c.phaseTotals[i] += d
			c.hists[i].Observe(d)
		}
	}
	c.window.Cycles = append(c.window.Cycles, cycles...)
	c.window.Truncate(c.windowCap)
}

// stageObserved folds one completed span's duration into its stage's
// latency aggregate. Wired to the span store's OnRecord hook.
func (c *collector) stageObserved(stage string, d time.Duration) {
	c.mu.Lock()
	agg := c.stages[stage]
	if agg == nil {
		agg = &stageAgg{hist: stats.NewHist()}
		c.stages[stage] = agg
	}
	agg.total += d
	agg.hist.Observe(d)
	c.mu.Unlock()
}

// observeRules folds per-rule activity deltas into the aggregate. The
// return value is true exactly once — when the series cap first drops a
// new rule name — so the caller can log one warning instead of silently
// truncating attribution.
func (c *collector) observeRules(deltas []match.RuleProfile) (firstDrop bool) {
	if len(deltas) == 0 {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	wasZero := c.rulesDropped == 0
	for _, d := range deltas {
		agg := c.rules[d.Rule]
		if agg == nil {
			if len(c.rules) >= maxRuleSeries {
				c.rulesDropped++
				continue
			}
			agg = &match.RuleProfile{Rule: d.Rule}
			c.rules[d.Rule] = agg
		}
		agg.MatchNS += d.MatchNS
		agg.Tokens += d.Tokens
		agg.Probes += d.Probes
		agg.Insts += d.Insts
		agg.Fires += d.Fires
	}
	return wasZero && c.rulesDropped > 0
}

// counter bumps (each takes the lock; contention is negligible next to a
// rule-engine run).
func (c *collector) runStarted()     { c.bump(&c.runsStarted) }
func (c *collector) runCompleted()   { c.bump(&c.runsCompleted) }
func (c *collector) runTimeout()     { c.bump(&c.runTimeouts) }
func (c *collector) runCanceled()    { c.bump(&c.runsCanceled) }
func (c *collector) runError()       { c.bump(&c.runErrors) }
func (c *collector) sessionCreated() { c.bump(&c.sessionsCreated) }
func (c *collector) sessionEvicted() { c.bump(&c.sessionsEvicted) }
func (c *collector) sessionExpired() { c.bump(&c.sessionsExpired) }
func (c *collector) sessionDeleted() { c.bump(&c.sessionsDeleted) }

func (c *collector) runRejected()      { c.bump(&c.runsRejected) }
func (c *collector) mutationRejected() { c.bump(&c.mutationsRejected) }
func (c *collector) jobCreated()       { c.bump(&c.jobsCreated) }

// jobFinished attributes a terminal job state to its counter.
func (c *collector) jobFinished(status string) {
	switch status {
	case jobDone:
		c.bump(&c.jobsDone)
	case jobCanceled:
		c.bump(&c.jobsCanceled)
	case jobInterrupted:
		c.bump(&c.jobsInterrupted)
	default:
		c.bump(&c.jobsErrors)
	}
}

// batchObserved records one served batch and how many ops it applied.
func (c *collector) batchObserved(ops int) {
	c.mu.Lock()
	c.batches++
	c.batchOps += uint64(ops)
	c.mu.Unlock()
}

// streamFrameObserved records one applied stream frame and its fact count.
func (c *collector) streamFrameObserved(facts int) {
	c.mu.Lock()
	c.streamFrames++
	c.streamFacts += uint64(facts)
	c.mu.Unlock()
}

func (c *collector) streamRejectedObserved() { c.bump(&c.streamRejected) }

// ticksObserved records temporal clock advances and the facts they expired.
func (c *collector) ticksObserved(n int64, expired int) {
	c.mu.Lock()
	c.ticks += uint64(n)
	c.expiredFacts += uint64(expired)
	c.mu.Unlock()
}

func (c *collector) bump(f *uint64) {
	c.mu.Lock()
	*f++
	c.mu.Unlock()
}

// Durability observations. walAppend and fsyncObserved are handed to
// wal.Options as callbacks; the rest are called by the store glue.
func (c *collector) enableDurability(foundOnBoot int) {
	c.mu.Lock()
	c.durEnabled = true
	c.foundOnBoot = foundOnBoot
	c.mu.Unlock()
}

func (c *collector) walAppend(n int) {
	c.mu.Lock()
	c.walRecords++
	c.walBytes += uint64(n)
	c.mu.Unlock()
}

func (c *collector) fsyncObserved(d time.Duration) {
	c.mu.Lock()
	c.fsyncs++
	c.fsyncTotal += d
	c.fsyncHist.Observe(d)
	c.mu.Unlock()
}

func (c *collector) groupCommitObserved(cohort int) {
	c.mu.Lock()
	c.groupCommits++
	c.groupedAppends += uint64(cohort)
	c.mu.Unlock()
}

func (c *collector) checkpointDone(d time.Duration, err error) {
	c.mu.Lock()
	if err != nil {
		c.checkpointErrors++
	} else {
		c.checkpoints++
		c.checkpointTotal += d
	}
	c.mu.Unlock()
}

func (c *collector) sessionRehydrated() { c.bump(&c.sessionsRehydrated) }
func (c *collector) recoveryFailed()    { c.bump(&c.recoveryFailures) }

// Cluster observations.
func (c *collector) enableCluster(node string) {
	c.mu.Lock()
	c.clusterNode = node
	c.mu.Unlock()
}

func (c *collector) clusterProxied()     { c.bump(&c.proxied) }
func (c *collector) clusterRedirected()  { c.bump(&c.redirected) }
func (c *collector) clusterReplStream()  { c.bump(&c.replStreams) }
func (c *collector) clusterReplRecord()  { c.bump(&c.replRecords) }
func (c *collector) clusterReplFailure() { c.bump(&c.replFailures) }
func (c *collector) clusterUnprotected() { c.bump(&c.replUnprotected) }
func (c *collector) clusterMigratedIn()  { c.bump(&c.migrationsIn) }
func (c *collector) clusterMigratedOut() { c.bump(&c.migrationsOut) }
func (c *collector) clusterPromotion()   { c.bump(&c.promotions) }

func (c *collector) walTruncated(n int64) {
	c.mu.Lock()
	c.walTruncations++
	c.walTruncatedBytes += uint64(n)
	c.mu.Unlock()
}

// phasePayload is one phase's slice of the /metrics document.
type phasePayload struct {
	TotalNS   int64    `json:"total_ns"`
	HistCount uint64   `json:"hist_count"`
	Hist      []uint64 `json:"hist"`
}

// durabilityPayload is the /metrics durability section, present only
// when the server runs with a data directory.
type durabilityPayload struct {
	WALRecords     uint64 `json:"wal_records"`
	WALBytes       uint64 `json:"wal_bytes"`
	Fsyncs         uint64 `json:"fsyncs"`
	FsyncTotalNS   int64  `json:"fsync_total_ns"`
	FsyncHistCount uint64 `json:"fsync_hist_count"`
	// FsyncHist buckets follow engine.hist_bounds_ns.
	FsyncHist         []uint64 `json:"fsync_hist"`
	Checkpoints       uint64   `json:"checkpoints"`
	CheckpointErrors  uint64   `json:"checkpoint_errors"`
	CheckpointTotalNS int64    `json:"checkpoint_total_ns"`
	SessionsOnDisk    int      `json:"sessions_on_disk"`
	FoundOnBoot       int      `json:"sessions_found_on_boot"`
	Rehydrated        uint64   `json:"sessions_rehydrated"`
	RecoveryFailures  uint64   `json:"recovery_failures"`
	WALTruncations    uint64   `json:"wal_tail_truncations"`
	WALTruncatedBytes uint64   `json:"wal_tail_truncated_bytes"`
	GroupCommits      uint64   `json:"group_commits"`
	GroupedAppends    uint64   `json:"grouped_appends"`
}

// clusterPayload is the /metrics cluster section, present only when the
// node runs in cluster mode.
type clusterPayload struct {
	Node            string `json:"node"`
	MembersTotal    int    `json:"members_total"`
	MembersUp       int    `json:"members_up"`
	Proxied         uint64 `json:"proxied_requests"`
	Redirected      uint64 `json:"redirected_requests"`
	ReplStreams     uint64 `json:"repl_streams_opened"`
	ReplRecords     uint64 `json:"repl_records_sent"`
	ReplFailures    uint64 `json:"repl_send_failures"`
	ReplUnprotected uint64 `json:"repl_unprotected_mutations"`
	ReplicaSessions int    `json:"replica_sessions"`
	MigrationsIn    uint64 `json:"migrations_in"`
	MigrationsOut   uint64 `json:"migrations_out"`
	Promotions      uint64 `json:"promotions"`
	RouteOverrides  int    `json:"route_overrides"`
}

// clusterSample carries the point-in-time cluster gauges the caller reads
// under the cluster state's own locks.
type clusterSample struct {
	membersTotal, membersUp, replicaSessions, routeOverrides int
}

// metricsPayload is the /metrics response body.
type metricsPayload struct {
	UptimeMS int64 `json:"uptime_ms"`
	Sessions struct {
		Live      int    `json:"live"`
		Created   uint64 `json:"created"`
		Evicted   uint64 `json:"evicted"`
		Expired   uint64 `json:"expired"`
		Deleted   uint64 `json:"deleted"`
		Recovered uint64 `json:"recovered"`
	} `json:"sessions"`
	Runs struct {
		Started   uint64 `json:"started"`
		Completed uint64 `json:"completed"`
		Timeouts  uint64 `json:"timeouts"`
		Canceled  uint64 `json:"canceled"`
		Errors    uint64 `json:"errors"`
		Active    int    `json:"active"`
	} `json:"runs"`
	// Admission reports the backpressure layer: current run-queue
	// occupancy and the fast-fail counters.
	Admission struct {
		RunQueueLen       int    `json:"run_queue_len"`
		RunsInflight      int    `json:"runs_inflight"`
		RunsRejected      uint64 `json:"runs_rejected"`
		MutationsRejected uint64 `json:"mutations_rejected"`
	} `json:"admission"`
	Jobs struct {
		Created     uint64 `json:"created"`
		Done        uint64 `json:"done"`
		Canceled    uint64 `json:"canceled"`
		Interrupted uint64 `json:"interrupted"`
		Errors      uint64 `json:"errors"`
		Active      int    `json:"active"`
	} `json:"jobs"`
	Batches struct {
		Batches uint64 `json:"batches"`
		Ops     uint64 `json:"ops"`
	} `json:"batches"`
	// Stream reports the continuous-ingest pipeline and the temporal
	// clock: frames and facts absorbed, 429-rejected stream requests,
	// clock advances and TTL-expired facts.
	Stream struct {
		Frames   uint64 `json:"frames"`
		Facts    uint64 `json:"facts"`
		Rejected uint64 `json:"rejected"`
		Ticks    uint64 `json:"ticks"`
		Expired  uint64 `json:"expired"`
	} `json:"stream"`
	Engine struct {
		Cycles          uint64                  `json:"cycles"`
		Fired           uint64                  `json:"fired"`
		Redacted        uint64                  `json:"redacted"`
		MaxConflictSize int                     `json:"max_conflict_size"`
		HistBoundsNS    []int64                 `json:"hist_bounds_ns"`
		Phases          map[string]phasePayload `json:"phases"`
		// Window holds percentiles over the newest cycle records.
		Window stats.Summary `json:"window"`
		// Rules attributes match and fire activity per rule, ordered by
		// match time (then fires, then name). RulesDropped counts folds
		// lost to the series cap (the engine.rules.dropped_series counter).
		Rules        []match.RuleProfile `json:"rules"`
		RulesDropped uint64              `json:"rules_dropped_series,omitempty"`
	} `json:"engine"`
	// Stages holds per-stage request latency histograms (ingress, queue
	// wait, WAL append, fsync, replication ack, engine run, …) fed by the
	// distributed-tracing span store. Buckets follow engine.hist_bounds_ns.
	Stages     map[string]phasePayload `json:"stages,omitempty"`
	Durability *durabilityPayload      `json:"durability,omitempty"`
	Cluster    *clusterPayload         `json:"cluster,omitempty"`
}

// snapshot renders the aggregate. live, active, onDisk, queued, inflight,
// jobsActive and cl are sampled by the caller under the relevant mutexes;
// cl is nil outside cluster mode.
func (c *collector) snapshot(uptime time.Duration, live, active, onDisk, queued, inflight, jobsActive int, cl *clusterSample) metricsPayload {
	c.mu.Lock()
	defer c.mu.Unlock()
	var p metricsPayload
	p.UptimeMS = uptime.Milliseconds()
	p.Sessions.Live = live
	p.Sessions.Created = c.sessionsCreated
	p.Sessions.Evicted = c.sessionsEvicted
	p.Sessions.Expired = c.sessionsExpired
	p.Sessions.Deleted = c.sessionsDeleted
	p.Sessions.Recovered = c.sessionsRehydrated
	p.Runs.Started = c.runsStarted
	p.Runs.Completed = c.runsCompleted
	p.Runs.Timeouts = c.runTimeouts
	p.Runs.Canceled = c.runsCanceled
	p.Runs.Errors = c.runErrors
	p.Runs.Active = active
	p.Admission.RunQueueLen = queued
	p.Admission.RunsInflight = inflight
	p.Admission.RunsRejected = c.runsRejected
	p.Admission.MutationsRejected = c.mutationsRejected
	p.Jobs.Created = c.jobsCreated
	p.Jobs.Done = c.jobsDone
	p.Jobs.Canceled = c.jobsCanceled
	p.Jobs.Interrupted = c.jobsInterrupted
	p.Jobs.Errors = c.jobsErrors
	p.Jobs.Active = jobsActive
	p.Batches.Batches = c.batches
	p.Batches.Ops = c.batchOps
	p.Stream.Frames = c.streamFrames
	p.Stream.Facts = c.streamFacts
	p.Stream.Rejected = c.streamRejected
	p.Stream.Ticks = c.ticks
	p.Stream.Expired = c.expiredFacts
	p.Engine.Cycles = c.cycles
	p.Engine.Fired = c.fired
	p.Engine.Redacted = c.redacted
	p.Engine.MaxConflictSize = c.maxConflict
	p.Engine.HistBoundsNS = make([]int64, len(stats.HistBounds))
	for i, b := range stats.HistBounds {
		p.Engine.HistBoundsNS[i] = b.Nanoseconds()
	}
	p.Engine.Phases = make(map[string]phasePayload, 4)
	for i, name := range phaseNames {
		p.Engine.Phases[name] = phasePayload{
			TotalNS:   c.phaseTotals[i].Nanoseconds(),
			HistCount: c.hists[i].Total(),
			Hist:      append([]uint64(nil), c.hists[i].Counts...),
		}
	}
	p.Engine.Window = c.window.Summarize()
	p.Engine.Rules = make([]match.RuleProfile, 0, len(c.rules))
	for _, agg := range c.rules {
		p.Engine.Rules = append(p.Engine.Rules, *agg)
	}
	sort.Slice(p.Engine.Rules, func(i, j int) bool {
		a, b := p.Engine.Rules[i], p.Engine.Rules[j]
		if a.MatchNS != b.MatchNS {
			return a.MatchNS > b.MatchNS
		}
		if a.Fires != b.Fires {
			return a.Fires > b.Fires
		}
		return a.Rule < b.Rule
	})
	p.Engine.RulesDropped = c.rulesDropped
	if len(c.stages) > 0 {
		p.Stages = make(map[string]phasePayload, len(c.stages))
		for name, agg := range c.stages {
			p.Stages[name] = phasePayload{
				TotalNS:   agg.total.Nanoseconds(),
				HistCount: agg.hist.Total(),
				Hist:      append([]uint64(nil), agg.hist.Counts...),
			}
		}
	}
	if c.durEnabled {
		p.Durability = &durabilityPayload{
			WALRecords:        c.walRecords,
			WALBytes:          c.walBytes,
			Fsyncs:            c.fsyncs,
			FsyncTotalNS:      c.fsyncTotal.Nanoseconds(),
			FsyncHistCount:    c.fsyncHist.Total(),
			FsyncHist:         append([]uint64(nil), c.fsyncHist.Counts...),
			Checkpoints:       c.checkpoints,
			CheckpointErrors:  c.checkpointErrors,
			CheckpointTotalNS: c.checkpointTotal.Nanoseconds(),
			SessionsOnDisk:    onDisk,
			FoundOnBoot:       c.foundOnBoot,
			Rehydrated:        c.sessionsRehydrated,
			RecoveryFailures:  c.recoveryFailures,
			WALTruncations:    c.walTruncations,
			WALTruncatedBytes: c.walTruncatedBytes,
			GroupCommits:      c.groupCommits,
			GroupedAppends:    c.groupedAppends,
		}
	}
	if c.clusterNode != "" && cl != nil {
		p.Cluster = &clusterPayload{
			Node:            c.clusterNode,
			MembersTotal:    cl.membersTotal,
			MembersUp:       cl.membersUp,
			Proxied:         c.proxied,
			Redirected:      c.redirected,
			ReplStreams:     c.replStreams,
			ReplRecords:     c.replRecords,
			ReplFailures:    c.replFailures,
			ReplUnprotected: c.replUnprotected,
			ReplicaSessions: cl.replicaSessions,
			MigrationsIn:    c.migrationsIn,
			MigrationsOut:   c.migrationsOut,
			Promotions:      c.promotions,
			RouteOverrides:  cl.routeOverrides,
		}
	}
	return p
}
