package server

// Prometheus text exposition (format version 0.0.4) for /metrics, written
// by hand against the rendered metricsPayload so the JSON and Prometheus
// views can never disagree. Conventions: counters end in _total, times
// are seconds (floats), histograms follow the cumulative-bucket contract
// with an explicit +Inf bucket plus _sum and _count series.

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// promEscape escapes a label value per the exposition format.
func promEscape(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

// promWriter accumulates exposition lines; errors are checked once at the
// end by the caller via the underlying http.ResponseWriter semantics.
type promWriter struct {
	w io.Writer
}

func (p promWriter) header(name, help, typ string) {
	fmt.Fprintf(p.w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func (p promWriter) value(name, labels string, v float64) {
	if labels != "" {
		labels = "{" + labels + "}"
	}
	// 'g' keeps integers integral and never emits NaN/Inf for the finite
	// inputs the collector produces.
	fmt.Fprintf(p.w, "%s%s %s\n", name, labels, strconv.FormatFloat(v, 'g', -1, 64))
}

func (p promWriter) counter(name, help string, v float64) {
	p.header(name, help, "counter")
	p.value(name, "", v)
}
func (p promWriter) gauge(name, help string, v float64) {
	p.header(name, help, "gauge")
	p.value(name, "", v)
}

// histogram renders one cumulative-bucket histogram. counts has one entry
// per bound plus the overflow bucket; sumSeconds is the total observed time.
func (p promWriter) histogram(name, labels string, boundsNS []int64, counts []uint64, sumSeconds float64, total uint64) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	cum := uint64(0)
	for i, b := range boundsNS {
		if i < len(counts) {
			cum += counts[i]
		}
		le := strconv.FormatFloat(float64(b)/1e9, 'g', -1, 64)
		p.value(name+"_bucket", labels+sep+`le="`+le+`"`, float64(cum))
	}
	p.value(name+"_bucket", labels+sep+`le="+Inf"`, float64(total))
	p.value(name+"_sum", labels, sumSeconds)
	p.value(name+"_count", labels, float64(total))
}

// writePrometheus renders the metrics snapshot in exposition format.
func writePrometheus(w io.Writer, m metricsPayload) {
	p := promWriter{w}
	boundsNS := m.Engine.HistBoundsNS

	p.gauge("parulel_uptime_seconds", "Time since the server started.", float64(m.UptimeMS)/1e3)

	p.gauge("parulel_sessions_live", "Sessions currently resident in the pool.", float64(m.Sessions.Live))
	p.counter("parulel_sessions_created_total", "Sessions ever created.", float64(m.Sessions.Created))
	p.counter("parulel_sessions_evicted_total", "Sessions evicted by LRU pressure.", float64(m.Sessions.Evicted))
	p.counter("parulel_sessions_expired_total", "Sessions expired by the idle TTL.", float64(m.Sessions.Expired))
	p.counter("parulel_sessions_deleted_total", "Sessions deleted by clients.", float64(m.Sessions.Deleted))
	p.counter("parulel_sessions_recovered_total", "Sessions rehydrated from disk.", float64(m.Sessions.Recovered))

	p.gauge("parulel_runs_active", "Engine runs currently executing or queued.", float64(m.Runs.Active))
	p.counter("parulel_runs_started_total", "Engine runs started.", float64(m.Runs.Started))
	p.counter("parulel_runs_completed_total", "Engine runs completed to quiescence or halt.", float64(m.Runs.Completed))
	p.counter("parulel_runs_timeout_total", "Engine runs that hit their deadline.", float64(m.Runs.Timeouts))
	p.counter("parulel_runs_canceled_total", "Engine runs canceled by the client.", float64(m.Runs.Canceled))
	p.counter("parulel_runs_error_total", "Engine runs that failed.", float64(m.Runs.Errors))

	p.gauge("parulel_run_queue_len", "Runs currently waiting for an engine slot.", float64(m.Admission.RunQueueLen))
	p.gauge("parulel_runs_inflight", "Admitted runs (executing or queued).", float64(m.Admission.RunsInflight))
	p.counter("parulel_runs_rejected_total", "Runs fast-failed with 429 by the admission cap.", float64(m.Admission.RunsRejected))
	p.counter("parulel_mutations_rejected_total", "Mutations fast-failed with 429 by a full session queue.", float64(m.Admission.MutationsRejected))

	p.gauge("parulel_jobs_active", "Async jobs currently queued or running.", float64(m.Jobs.Active))
	p.counter("parulel_jobs_created_total", "Async jobs ever created.", float64(m.Jobs.Created))
	p.counter("parulel_jobs_done_total", "Async jobs finished successfully (including deadline expiries).", float64(m.Jobs.Done))
	p.counter("parulel_jobs_canceled_total", "Async jobs canceled by clients.", float64(m.Jobs.Canceled))
	p.counter("parulel_jobs_interrupted_total", "Async jobs interrupted by shutdown or crash.", float64(m.Jobs.Interrupted))
	p.counter("parulel_jobs_error_total", "Async jobs that failed.", float64(m.Jobs.Errors))

	p.counter("parulel_batches_total", "Batch requests served.", float64(m.Batches.Batches))
	p.counter("parulel_batch_ops_total", "Batch operations applied.", float64(m.Batches.Ops))

	p.counter("parulel_stream_frames_total", "NDJSON stream frames applied.", float64(m.Stream.Frames))
	p.counter("parulel_stream_facts_total", "Facts asserted via stream frames.", float64(m.Stream.Facts))
	p.counter("parulel_stream_rejected_total", "Stream requests fast-failed with 429.", float64(m.Stream.Rejected))
	p.counter("parulel_temporal_ticks_total", "Temporal clock advances.", float64(m.Stream.Ticks))
	p.counter("parulel_temporal_expired_total", "Facts retracted by TTL expiry.", float64(m.Stream.Expired))

	p.counter("parulel_engine_cycles_total", "Committed engine cycles across all sessions.", float64(m.Engine.Cycles))
	p.counter("parulel_engine_fired_total", "Instantiations fired across all sessions.", float64(m.Engine.Fired))
	p.counter("parulel_engine_redacted_total", "Instantiations redacted by meta-rules.", float64(m.Engine.Redacted))
	p.gauge("parulel_engine_max_conflict_size", "Largest pre-redaction conflict set observed.", float64(m.Engine.MaxConflictSize))

	p.header("parulel_engine_phase_seconds", "Per-cycle phase latency by engine phase.", "histogram")
	for _, name := range phaseNames {
		ph := m.Engine.Phases[name]
		labels := `phase="` + name + `"`
		p.histogram("parulel_engine_phase_seconds", labels, boundsNS, ph.Hist, float64(ph.TotalNS)/1e9, ph.HistCount)
	}

	if len(m.Engine.Rules) > 0 {
		p.header("parulel_rule_match_seconds_total", "Match time attributed to each rule's join work.", "counter")
		for _, r := range m.Engine.Rules {
			p.value("parulel_rule_match_seconds_total", `rule="`+promEscape(r.Rule)+`"`, float64(r.MatchNS)/1e9)
		}
		p.header("parulel_rule_tokens_total", "Partial matches materialized per rule.", "counter")
		for _, r := range m.Engine.Rules {
			p.value("parulel_rule_tokens_total", `rule="`+promEscape(r.Rule)+`"`, float64(r.Tokens))
		}
		p.header("parulel_rule_probes_total", "Join candidates tested per rule.", "counter")
		for _, r := range m.Engine.Rules {
			p.value("parulel_rule_probes_total", `rule="`+promEscape(r.Rule)+`"`, float64(r.Probes))
		}
		p.header("parulel_rule_instantiations_total", "Instantiations added to the conflict set per rule.", "counter")
		for _, r := range m.Engine.Rules {
			p.value("parulel_rule_instantiations_total", `rule="`+promEscape(r.Rule)+`"`, float64(r.Insts))
		}
		p.header("parulel_rule_fires_total", "Instantiations fired per rule.", "counter")
		for _, r := range m.Engine.Rules {
			p.value("parulel_rule_fires_total", `rule="`+promEscape(r.Rule)+`"`, float64(r.Fires))
		}
	}
	p.counter("parulel_rule_series_dropped_total", "Per-rule profile folds dropped by the series cap.", float64(m.Engine.RulesDropped))

	if len(m.Stages) > 0 {
		p.header("parulel_stage_seconds", "Request-stage latency by traced serving stage.", "histogram")
		names := make([]string, 0, len(m.Stages))
		for name := range m.Stages {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			st := m.Stages[name]
			labels := `stage="` + promEscape(name) + `"`
			p.histogram("parulel_stage_seconds", labels, boundsNS, st.Hist, float64(st.TotalNS)/1e9, st.HistCount)
		}
	}

	if d := m.Durability; d != nil {
		p.counter("parulel_wal_records_total", "WAL records appended.", float64(d.WALRecords))
		p.counter("parulel_wal_bytes_total", "WAL bytes appended.", float64(d.WALBytes))
		p.header("parulel_wal_fsync_seconds", "WAL fsync latency.", "histogram")
		p.histogram("parulel_wal_fsync_seconds", "", boundsNS, d.FsyncHist, float64(d.FsyncTotalNS)/1e9, d.FsyncHistCount)
		p.counter("parulel_checkpoints_total", "Checkpoints written.", float64(d.Checkpoints))
		p.counter("parulel_checkpoint_errors_total", "Checkpoint attempts that failed.", float64(d.CheckpointErrors))
		p.gauge("parulel_sessions_on_disk", "Session directories currently on disk.", float64(d.SessionsOnDisk))
		p.counter("parulel_recovery_failures_total", "Session recoveries that failed.", float64(d.RecoveryFailures))
		p.counter("parulel_wal_tail_truncations_total", "Torn WAL tails dropped during recovery.", float64(d.WALTruncations))
		p.counter("parulel_wal_group_commits_total", "Batched flushes issued under fsync=group.", float64(d.GroupCommits))
		p.counter("parulel_wal_grouped_appends_total", "Appends made durable by group-commit flushes.", float64(d.GroupedAppends))
	}

	if c := m.Cluster; c != nil {
		p.gauge("parulel_cluster_members", "Configured cluster members.", float64(c.MembersTotal))
		p.gauge("parulel_cluster_members_up", "Cluster members currently considered up.", float64(c.MembersUp))
		p.counter("parulel_cluster_proxied_requests_total", "Session requests proxied to their owner node.", float64(c.Proxied))
		p.counter("parulel_cluster_redirected_requests_total", "Session requests answered with a 307 to their owner node.", float64(c.Redirected))
		p.counter("parulel_cluster_repl_streams_opened_total", "Replication streams opened to follower nodes.", float64(c.ReplStreams))
		p.counter("parulel_cluster_repl_records_sent_total", "WAL records streamed to followers.", float64(c.ReplRecords))
		p.counter("parulel_cluster_repl_send_failures_total", "Replication sends that failed and forced a stream reset.", float64(c.ReplFailures))
		p.counter("parulel_cluster_repl_unprotected_mutations_total", "Mutations acked without a live replica (no follower reachable).", float64(c.ReplUnprotected))
		p.gauge("parulel_cluster_replica_sessions", "Follower session replicas currently held on this node.", float64(c.ReplicaSessions))
		p.counter("parulel_cluster_migrations_in_total", "Sessions migrated onto this node.", float64(c.MigrationsIn))
		p.counter("parulel_cluster_migrations_out_total", "Sessions migrated off this node.", float64(c.MigrationsOut))
		p.counter("parulel_cluster_promotions_total", "Replica sessions promoted to primary after owner failure.", float64(c.Promotions))
		p.gauge("parulel_cluster_route_overrides", "Session route overrides currently active.", float64(c.RouteOverrides))
	}
}
