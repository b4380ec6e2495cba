package server

// Every /metrics series is declared once, as a field of metricsPayload:
// the `json` tag is its key in the JSON document, and `prom`, `kind` and
// `help` are its Prometheus family, how the field reads, and the HELP
// text. The collector holds one metricsPayload and bumps it in place; the
// JSON view is that struct encoded, and the Prometheus view (text
// exposition 0.0.4, at the end of this file) is a walk over the same
// struct reading the tags — so the views cannot disagree, neither holds
// per-series code, and adding a series is one tagged field and its bump
// site. metrics_test.go holds every field to this grammar:
//
// Kinds: counter and gauge are the integer as it stands; counter_ns and
// gauge_ms are a time in the unit the JSON key names, exposed in seconds;
// histogram is a phasePayload, or a map of them with one `label` value
// each (`label:"name=a,b"` fixes their order). `prom:"-"` marks a
// JSON-only field. An untagged struct is a section, and a nil section
// pointer (durability, cluster) drops out of both views. A slice of
// structs is a table: each tagged field of the row type is a family with
// one sample per row, labelled by the row's first field. Families render
// in declaration order, except that one marked `,first` leads its
// section. Counters end in _total, and histograms follow the
// cumulative-bucket contract: an explicit +Inf bucket, _sum and _count.

import (
	"cmp"
	"fmt"
	"io"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"parulel/internal/match"
	"parulel/internal/obs"
	"parulel/internal/stats"
)

// metricsPayload is the /metrics response body and the series registry.
type metricsPayload struct {
	UptimeMS int64 `json:"uptime_ms" prom:"parulel_uptime_seconds" kind:"gauge_ms" help:"Time since the server started."`
	Sessions struct {
		Live      int    `json:"live" prom:"parulel_sessions_live" kind:"gauge" help:"Sessions currently resident in the pool."`
		Created   uint64 `json:"created" prom:"parulel_sessions_created_total" kind:"counter" help:"Sessions ever created."`
		Evicted   uint64 `json:"evicted" prom:"parulel_sessions_evicted_total" kind:"counter" help:"Sessions evicted by LRU pressure."`
		Expired   uint64 `json:"expired" prom:"parulel_sessions_expired_total" kind:"counter" help:"Sessions expired by the idle TTL."`
		Deleted   uint64 `json:"deleted" prom:"parulel_sessions_deleted_total" kind:"counter" help:"Sessions deleted by clients."`
		Recovered uint64 `json:"recovered" prom:"parulel_sessions_recovered_total" kind:"counter" help:"Sessions rehydrated from disk."`
	} `json:"sessions"`
	Runs struct {
		Started   uint64 `json:"started" prom:"parulel_runs_started_total" kind:"counter" help:"Engine runs started."`
		Completed uint64 `json:"completed" prom:"parulel_runs_completed_total" kind:"counter" help:"Engine runs completed to quiescence or halt."`
		Timeouts  uint64 `json:"timeouts" prom:"parulel_runs_timeout_total" kind:"counter" help:"Engine runs that hit their deadline."`
		Canceled  uint64 `json:"canceled" prom:"parulel_runs_canceled_total" kind:"counter" help:"Engine runs canceled by the client."`
		Errors    uint64 `json:"errors" prom:"parulel_runs_error_total" kind:"counter" help:"Engine runs that failed."`
		Active    int    `json:"active" prom:"parulel_runs_active,first" kind:"gauge" help:"Engine runs currently executing or queued."`
	} `json:"runs"`
	Admission struct {
		RunQueueLen       int    `json:"run_queue_len" prom:"parulel_run_queue_len" kind:"gauge" help:"Runs currently waiting for an engine slot."`
		RunsInflight      int    `json:"runs_inflight" prom:"parulel_runs_inflight" kind:"gauge" help:"Admitted runs (executing or queued)."`
		RunsRejected      uint64 `json:"runs_rejected" prom:"parulel_runs_rejected_total" kind:"counter" help:"Runs fast-failed with 429 by the admission cap."`
		MutationsRejected uint64 `json:"mutations_rejected" prom:"parulel_mutations_rejected_total" kind:"counter" help:"Mutations fast-failed with 429 by a full session queue."`
	} `json:"admission"`
	Jobs struct {
		Created     uint64 `json:"created" prom:"parulel_jobs_created_total" kind:"counter" help:"Async jobs ever created."`
		Done        uint64 `json:"done" prom:"parulel_jobs_done_total" kind:"counter" help:"Async jobs finished successfully (including deadline expiries)."`
		Canceled    uint64 `json:"canceled" prom:"parulel_jobs_canceled_total" kind:"counter" help:"Async jobs canceled by clients."`
		Interrupted uint64 `json:"interrupted" prom:"parulel_jobs_interrupted_total" kind:"counter" help:"Async jobs interrupted by shutdown or crash."`
		Errors      uint64 `json:"errors" prom:"parulel_jobs_error_total" kind:"counter" help:"Async jobs that failed."`
		Active      int    `json:"active" prom:"parulel_jobs_active,first" kind:"gauge" help:"Async jobs currently queued or running."`
	} `json:"jobs"`
	Batches struct {
		Batches uint64 `json:"batches" prom:"parulel_batches_total" kind:"counter" help:"Batch requests served."`
		Ops     uint64 `json:"ops" prom:"parulel_batch_ops_total" kind:"counter" help:"Batch operations applied."`
	} `json:"batches"`
	Stream struct { // and the temporal clock, which batch tick ops advance too
		Frames   uint64 `json:"frames" prom:"parulel_stream_frames_total" kind:"counter" help:"NDJSON stream frames applied."`
		Facts    uint64 `json:"facts" prom:"parulel_stream_facts_total" kind:"counter" help:"Facts asserted via stream frames."`
		Rejected uint64 `json:"rejected" prom:"parulel_stream_rejected_total" kind:"counter" help:"Stream requests fast-failed with 429."`
		Ticks    uint64 `json:"ticks" prom:"parulel_temporal_ticks_total" kind:"counter" help:"Temporal clock advances."`
		Expired  uint64 `json:"expired" prom:"parulel_temporal_expired_total" kind:"counter" help:"Facts retracted by TTL expiry."`
	} `json:"stream"`
	Engine struct {
		Cycles          uint64                   `json:"cycles" prom:"parulel_engine_cycles_total" kind:"counter" help:"Committed engine cycles across all sessions."`
		Fired           uint64                   `json:"fired" prom:"parulel_engine_fired_total" kind:"counter" help:"Instantiations fired across all sessions."`
		Redacted        uint64                   `json:"redacted" prom:"parulel_engine_redacted_total" kind:"counter" help:"Instantiations redacted by meta-rules."`
		MaxConflictSize int                      `json:"max_conflict_size" prom:"parulel_engine_max_conflict_size" kind:"gauge" help:"Largest pre-redaction conflict set observed."`
		HistBoundsNS    []int64                  `json:"hist_bounds_ns" prom:"-"`
		Phases          map[string]*phasePayload `json:"phases" prom:"parulel_engine_phase_seconds" kind:"histogram" label:"phase=match,redact,fire,apply" help:"Per-cycle phase latency by engine phase."`
		Window          stats.Summary            `json:"window" prom:"-"` // percentiles over the newest metricsWindow cycle samples
		// Rules is ordered by match time (then fires, then name) and capped
		// at maxRuleSeries rows.
		Rules        []ruleSeries `json:"rules" label:"rule"`
		RulesDropped uint64       `json:"rules_dropped_series,omitempty" prom:"parulel_rule_series_dropped_total" kind:"counter" help:"Per-rule profile folds dropped by the series cap."`
	} `json:"engine"`
	// Stages is request latency by span stage (a small fixed set of names).
	Stages     map[string]*phasePayload `json:"stages,omitempty" prom:"parulel_stage_seconds" kind:"histogram" label:"stage" help:"Request-stage latency by traced serving stage."`
	Durability *durabilityPayload       `json:"durability,omitempty"`
	Cluster    *clusterPayload          `json:"cluster,omitempty"`
}

// phasePayload is one latency histogram over stats.HistBounds (the last
// bucket is the overflow), with the total observed time beside it.
type phasePayload struct {
	TotalNS   int64    `json:"total_ns"`
	HistCount uint64   `json:"hist_count"`
	Hist      []uint64 `json:"hist"`
}

func newHist() *phasePayload { return &phasePayload{Hist: make([]uint64, len(stats.HistBounds)+1)} }

func (p *phasePayload) observe(d time.Duration) {
	p.TotalNS += d.Nanoseconds()
	p.HistCount++
	p.Hist[stats.Bucket(d)]++
}

func cloneHists(m map[string]*phasePayload) map[string]*phasePayload {
	out := make(map[string]*phasePayload, len(m))
	for name, h := range m {
		c := *h
		c.Hist = slices.Clone(h.Hist)
		out[name] = &c
	}
	return out
}

// fsyncPayload is a phasePayload under the durability section's flat
// keys; the two types convert, so one histogram serves both shapes.
type fsyncPayload struct {
	TotalNS   int64    `json:"fsync_total_ns"`
	HistCount uint64   `json:"fsync_hist_count"`
	Hist      []uint64 `json:"fsync_hist"`
}

// ruleSeries is one engine.rules row: match.RuleProfile's fields and JSON
// keys, with the per-rule families declared on them.
type ruleSeries struct {
	Rule    string `json:"rule" prom:"-"`
	MatchNS int64  `json:"match_ns" prom:"parulel_rule_match_seconds_total" kind:"counter_ns" help:"Match time attributed to each rule's join work."`
	Tokens  uint64 `json:"tokens" prom:"parulel_rule_tokens_total" kind:"counter" help:"Partial matches materialized per rule."`
	Probes  uint64 `json:"probes" prom:"parulel_rule_probes_total" kind:"counter" help:"Join candidates tested per rule."`
	Insts   uint64 `json:"insts" prom:"parulel_rule_instantiations_total" kind:"counter" help:"Instantiations added to the conflict set per rule."`
	Fires   uint64 `json:"fires" prom:"parulel_rule_fires_total" kind:"counter" help:"Instantiations fired per rule."`
}

// durabilityPayload is the /metrics durability section, present only
// when the server runs with a data directory.
type durabilityPayload struct {
	WALRecords        uint64 `json:"wal_records" prom:"parulel_wal_records_total" kind:"counter" help:"WAL records appended."`
	WALBytes          uint64 `json:"wal_bytes" prom:"parulel_wal_bytes_total" kind:"counter" help:"WAL bytes appended."`
	Fsyncs            uint64 `json:"fsyncs" prom:"-"` // fsync_hist_count under its older key
	fsyncPayload      `prom:"parulel_wal_fsync_seconds" kind:"histogram" help:"WAL fsync latency."`
	Checkpoints       uint64 `json:"checkpoints" prom:"parulel_checkpoints_total" kind:"counter" help:"Checkpoints written."`
	CheckpointErrors  uint64 `json:"checkpoint_errors" prom:"parulel_checkpoint_errors_total" kind:"counter" help:"Checkpoint attempts that failed."`
	CheckpointTotalNS uint64 `json:"checkpoint_total_ns" prom:"parulel_checkpoint_seconds_total" kind:"counter_ns" help:"Time spent writing checkpoints."`
	SessionsOnDisk    int    `json:"sessions_on_disk" prom:"parulel_sessions_on_disk" kind:"gauge" help:"Session directories currently on disk."`
	FoundOnBoot       int    `json:"sessions_found_on_boot" prom:"parulel_sessions_found_on_boot" kind:"gauge" help:"Recoverable session directories found when the server started."`
	Rehydrated        uint64 `json:"sessions_rehydrated" prom:"-"` // sessions.recovered, where the durability reader looks
	RecoveryFailures  uint64 `json:"recovery_failures" prom:"parulel_recovery_failures_total" kind:"counter" help:"Session recoveries that failed."`
	WALTruncations    uint64 `json:"wal_tail_truncations" prom:"parulel_wal_tail_truncations_total" kind:"counter" help:"Torn WAL tails dropped during recovery."`
	WALTruncatedBytes uint64 `json:"wal_tail_truncated_bytes" prom:"parulel_wal_tail_truncated_bytes_total" kind:"counter" help:"Bytes of torn WAL tail dropped during recovery."`
}

// clusterPayload is the /metrics cluster section, present only when the
// node runs in cluster mode.
type clusterPayload struct {
	Node            string `json:"node" prom:"-"`
	MembersTotal    int    `json:"members_total" prom:"parulel_cluster_members" kind:"gauge" help:"Configured cluster members."`
	MembersUp       int    `json:"members_up" prom:"parulel_cluster_members_up" kind:"gauge" help:"Cluster members currently considered up."`
	Proxied         uint64 `json:"proxied_requests" prom:"parulel_cluster_proxied_requests_total" kind:"counter" help:"Session requests proxied to their owner node."`
	Redirected      uint64 `json:"redirected_requests" prom:"parulel_cluster_redirected_requests_total" kind:"counter" help:"Session requests answered with a 307 to their owner node."`
	ReplStreams     uint64 `json:"repl_streams_opened" prom:"parulel_cluster_repl_streams_opened_total" kind:"counter" help:"Replication streams opened to follower nodes."`
	ReplRecords     uint64 `json:"repl_records_sent" prom:"parulel_cluster_repl_records_sent_total" kind:"counter" help:"WAL records streamed to followers."`
	ReplFailures    uint64 `json:"repl_send_failures" prom:"parulel_cluster_repl_send_failures_total" kind:"counter" help:"Replication sends that failed and forced a stream reset."`
	ReplUnprotected uint64 `json:"repl_unprotected_mutations" prom:"parulel_cluster_repl_unprotected_mutations_total" kind:"counter" help:"Mutations acked without a live replica (no follower reachable)."`
	ReplicaSessions int    `json:"replica_sessions" prom:"parulel_cluster_replica_sessions" kind:"gauge" help:"Follower session replicas currently held on this node."`
	MigrationsIn    uint64 `json:"migrations_in" prom:"parulel_cluster_migrations_in_total" kind:"counter" help:"Sessions migrated onto this node."`
	MigrationsOut   uint64 `json:"migrations_out" prom:"parulel_cluster_migrations_out_total" kind:"counter" help:"Sessions migrated off this node."`
	Promotions      uint64 `json:"promotions" prom:"parulel_cluster_promotions_total" kind:"counter" help:"Replica sessions promoted to primary after owner failure."`
	RouteOverrides  int    `json:"route_overrides" prom:"parulel_cluster_route_overrides" kind:"gauge" help:"Session route overrides currently active."`
}

// metricsWindow is the number of cycle samples retained for the
// engine.window percentiles (64 bytes each, 4 MiB at most); maxRuleSeries
// caps the distinct rule names in engine.rules, and so the label
// cardinality.
const (
	metricsWindow = 65536
	maxRuleSeries = 256
)

var phaseNames = [4]string{"match", "redact", "fire", "apply"}

// collector aggregates engine cycle samples and server counters across
// every session, live or evicted, in the payload it embeds: callers bump
// a counter with inc or add and name the field, c.inc(&c.Runs.Started).
// The durability and cluster sections are allocated by New when those
// subsystems start. Gauges sampled at scrape time (sessions.live,
// runs.active, …) stay zero here; handleMetrics fills the snapshot's.
type collector struct {
	mu sync.Mutex
	metricsPayload
	window *obs.Buffer[stats.Cycle] // the newest cycle samples, for engine.window
	rules  map[string]*ruleSeries   // engine.rules by rule name
}

func newCollector() *collector {
	c := &collector{window: obs.NewBuffer[stats.Cycle](metricsWindow), rules: make(map[string]*ruleSeries)}
	for _, b := range stats.HistBounds {
		c.Engine.HistBoundsNS = append(c.Engine.HistBoundsNS, b.Nanoseconds())
	}
	c.Engine.Phases = make(map[string]*phasePayload, len(phaseNames))
	for _, name := range phaseNames {
		c.Engine.Phases[name] = newHist()
	}
	c.Stages = make(map[string]*phasePayload)
	return c
}

// inc and add bump one counter of the embedded payload (each takes the
// lock; contention is negligible next to a rule-engine run).
func (c *collector) inc(f *uint64) { c.add(f, 1) }

func (c *collector) add(f *uint64, n uint64) {
	c.mu.Lock()
	*f += n
	c.mu.Unlock()
}

// observe folds freshly produced cycle samples into the aggregate.
func (c *collector) observe(cycles []stats.Cycle) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := &c.Engine
	for _, cyc := range cycles {
		e.Cycles++
		e.Fired += uint64(cyc.Fired)
		e.Redacted += uint64(cyc.Redacted)
		e.MaxConflictSize = max(e.MaxConflictSize, cyc.ConflictSize)
		for i, d := range [4]time.Duration{cyc.Match, cyc.Redact, cyc.Fire, cyc.Apply} {
			e.Phases[phaseNames[i]].observe(d)
		}
	}
	c.window.Push(cycles...)
}

// stageObserved folds one completed span into its stage's histogram (the
// span store's OnRecord hook), fsyncObserved one WAL fsync (wal.Options'
// OnFsync).
func (c *collector) stageObserved(stage string, d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	h := c.Stages[stage]
	if h == nil {
		h = newHist()
		c.Stages[stage] = h
	}
	h.observe(d)
}

func (c *collector) fsyncObserved(d time.Duration) {
	c.mu.Lock()
	(*phasePayload)(&c.Durability.fsyncPayload).observe(d)
	c.mu.Unlock()
}

// observeRules folds per-rule activity deltas into the aggregate. The
// return value is true exactly once — when the series cap first drops a
// new rule name — so the caller can log one warning instead of silently
// truncating attribution.
func (c *collector) observeRules(deltas []match.RuleProfile) (firstDrop bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	dropped := c.Engine.RulesDropped
	for _, d := range deltas {
		agg := c.rules[d.Rule]
		if agg == nil {
			if len(c.rules) >= maxRuleSeries {
				c.Engine.RulesDropped++
				continue
			}
			agg = &ruleSeries{Rule: d.Rule}
			c.rules[d.Rule] = agg
		}
		agg.MatchNS += d.MatchNS
		agg.Tokens += d.Tokens
		agg.Probes += d.Probes
		agg.Insts += d.Insts
		agg.Fires += d.Fires
	}
	return dropped == 0 && c.Engine.RulesDropped > 0
}

// snapshot returns the aggregate as a document of its own: the window
// summarized, the rule table sorted, the second keys filled, and nothing
// shared with the collector.
func (c *collector) snapshot() metricsPayload {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := c.metricsPayload
	p.Engine.Phases, p.Stages = cloneHists(p.Engine.Phases), cloneHists(p.Stages)
	c.window.View(func(older, newer []stats.Cycle) { p.Engine.Window = stats.Summarize(older, newer) })
	p.Engine.Rules = make([]ruleSeries, 0, len(c.rules))
	for _, agg := range c.rules {
		p.Engine.Rules = append(p.Engine.Rules, *agg)
	}
	slices.SortFunc(p.Engine.Rules, func(a, b ruleSeries) int {
		return cmp.Or(cmp.Compare(b.MatchNS, a.MatchNS), cmp.Compare(b.Fires, a.Fires), cmp.Compare(a.Rule, b.Rule))
	})
	if p.Durability != nil {
		d := *p.Durability
		d.Hist = slices.Clone(d.Hist)
		d.Fsyncs, d.Rehydrated = d.HistCount, p.Sessions.Recovered
		p.Durability = &d
	}
	if p.Cluster != nil {
		cl := *p.Cluster
		p.Cluster = &cl
	}
	return p
}

// ---- the Prometheus view ----

// series is one declared family, as its field's tags state it.
type series struct{ name, help, kind string }

// kinds maps a kind to its TYPE line and, for the scalar ones, the
// divisor that brings the field to the exposition's unit.
var kinds = map[string]struct {
	typ string
	div float64
}{"counter": {"counter", 1}, "gauge": {"gauge", 1}, "counter_ns": {"counter", 1e9}, "gauge_ms": {"gauge", 1e3}, "histogram": {typ: "histogram"}}

// declared reads field i's declaration off t. first reports the `,first`
// mark; a JSON-only field comes back as "-".
func declared(t reflect.Type, i int) (s series, first bool) {
	tag := t.Field(i).Tag
	name, opt, _ := strings.Cut(tag.Get("prom"), ",")
	return series{name, tag.Get("help"), tag.Get("kind")}, opt == "first"
}

// promWriter writes exposition lines; a failed write is the scraper's
// disconnect.
type promWriter struct{ w io.Writer }

func (p promWriter) header(s series) {
	fmt.Fprintf(p.w, "# HELP %s %s\n# TYPE %s %s\n", s.name, s.help, s.name, kinds[s.kind].typ)
}

// value writes one sample; labels is "" or complete pairs. 'g' keeps
// integers integral and never emits NaN/Inf for the finite inputs the
// collector produces.
func (p promWriter) value(name, labels string, v float64) {
	if labels != "" {
		labels = "{" + labels + "}"
	}
	fmt.Fprintf(p.w, "%s%s %s\n", name, labels, strconv.FormatFloat(v, 'g', -1, 64))
}

// scalar samples one integer field in the exposition's unit.
func (p promWriter) scalar(s series, labels string, f reflect.Value) {
	p.value(s.name, labels, f.Convert(reflect.TypeOf(float64(0))).Float()/kinds[s.kind].div)
}

// promLabel renders one label pair, escaping the value per the format.
func promLabel(name, value string) string { return name + `="` + promEscaper.Replace(value) + `"` }

var promEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// histogram renders one cumulative-bucket histogram from a phasePayload
// (or a struct that converts to one): total time, count, buckets. labels
// is "" or pairs each followed by a comma.
func (p promWriter) histogram(name, labels string, h reflect.Value) {
	sumNS, total, counts := h.Field(0).Int(), h.Field(1).Uint(), h.Field(2)
	cum := uint64(0)
	for i, b := range stats.HistBounds {
		cum += counts.Index(i).Uint()
		le := strconv.FormatFloat(float64(b.Nanoseconds())/1e9, 'g', -1, 64)
		p.value(name+"_bucket", labels+`le="`+le+`"`, float64(cum))
	}
	p.value(name+"_bucket", labels+`le="+Inf"`, float64(total))
	p.value(name+"_sum", strings.TrimSuffix(labels, ","), float64(sumNS)/1e9)
	p.value(name+"_count", strings.TrimSuffix(labels, ","), float64(total))
}

// fields renders the declared fields of one payload struct, in two
// passes: the families marked `,first`, then the rest.
func (p promWriter) fields(v reflect.Value) {
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < v.NumField(); i++ {
			s, first := declared(v.Type(), i)
			f := v.Field(i)
			if f.Kind() == reflect.Pointer && !f.IsNil() {
				f = f.Elem()
			}
			label, order, _ := strings.Cut(v.Type().Field(i).Tag.Get("label"), "=")
			switch {
			case first != (pass == 0) || f.Kind() == reflect.Pointer:
				// not this pass's, or a section that is switched off
			case s.name == "" && f.Kind() == reflect.Struct:
				p.fields(f)
			case s.name == "" && label != "": // a table: one family per column, one sample per row
				for c := 1; c < f.Type().Elem().NumField() && f.Len() > 0; c++ {
					col, _ := declared(f.Type().Elem(), c)
					p.header(col)
					for r := 0; r < f.Len(); r++ {
						p.scalar(col, promLabel(label, f.Index(r).Field(0).String()), f.Index(r).Field(c))
					}
				}
			case s.name == "" || s.name == "-":
				// JSON only
			case s.kind != "histogram":
				p.header(s)
				p.scalar(s, "", f)
			case f.Kind() != reflect.Map:
				p.header(s)
				p.histogram(s.name, "", f)
			case f.Len() > 0:
				keys := strings.Split(order, ",")
				if order == "" {
					keys = keys[:0]
					for _, k := range f.MapKeys() {
						keys = append(keys, k.String())
					}
					slices.Sort(keys)
				}
				p.header(s)
				for _, k := range keys {
					p.histogram(s.name, promLabel(label, k)+",", f.MapIndex(reflect.ValueOf(k)).Elem())
				}
			}
		}
	}
}

// writePrometheus renders the metrics snapshot in exposition format.
func writePrometheus(w io.Writer, m metricsPayload) {
	promWriter{w}.fields(reflect.ValueOf(m))
}
