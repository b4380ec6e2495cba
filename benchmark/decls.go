package main

// The metric declarations. BENCHMARK.json lists the same names, units and
// directions (the test compares them); the harness takes units from here
// so that a metric cannot be emitted under a unit it was not declared
// with.

// endToEndDecls are the metrics a client of the daemon would see. Bounds
// are the share of the parent's median by which a metric may worsen. The
// issue's starting values (7% on throughput and CPU, 10% on the median,
// 20% on the tail, 5% on allocation, 10% on RSS) assumed a quieter host
// than the shared 2-vCPU VM this was measured on: there, even scaled to
// the reference host speed, time-based metrics spread 7-22% from run to
// run, so their bounds sit at the contract's cap. README.md has the
// measurements. failed_frac, the eighth metric, has no entry: it is always
// 0 on a correct run, so the driver carries it as attempted/failed instead.
var endToEndDecls = []metricDecl{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "op_tail_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "alloc_kb_per_op", Unit: "KiB", Better: "lower", Bound: 0.12},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.25},
}

// perLayerDecls are the ledger's metrics, grouped by layer. "better" is
// the direction an optimisation of that layer would move the number;
// exact counts say "lower" because less work for the same output is the
// improvement.
var perLayerDecls = []metricDecl{
	// Rungs: one op list replayed at five depths.
	{Name: "ledger.engine_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "ledger.handler_mem_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "ledger.handler_wal_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "ledger.handler_merkle_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "ledger.tcp_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "ledger.e2e_gap_frac", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
	// Shares derived from consecutive rungs; they sum to the tcp rung.
	{Name: "core.self_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "server.self_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "client.self_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "wal.self_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "wal.merkle_self_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "http.self_ms_per_op", Unit: "ms", Better: "lower"},
	// lang, compile.
	{Name: "lang.parse_us", Unit: "us", Better: "lower"},
	{Name: "lang.source_bytes", Unit: "B", Better: "lower"},
	{Name: "compile.compile_us", Unit: "us", Better: "lower"},
	{Name: "compile.rules", Unit: "count", Better: "lower"},
	{Name: "compile.metarules", Unit: "count", Better: "lower"},
	// core.
	{Name: "core.new_us", Unit: "us", Better: "lower"},
	{Name: "core.insert_us_per_fact", Unit: "us", Better: "lower"},
	{Name: "core.run_w1_ms", Unit: "ms", Better: "lower"},
	{Name: "core.run_wdef_ms", Unit: "ms", Better: "lower"},
	{Name: "core.match_ms", Unit: "ms", Better: "lower"},
	{Name: "core.redact_ms", Unit: "ms", Better: "lower"},
	{Name: "core.fire_ms", Unit: "ms", Better: "lower"},
	{Name: "core.apply_ms", Unit: "ms", Better: "lower"},
	{Name: "core.phase_unattributed_frac", Unit: "ratio", Better: "lower"},
	{Name: "core.cycles", Unit: "count", Better: "lower"},
	{Name: "core.firings", Unit: "count", Better: "lower"},
	{Name: "core.redactions", Unit: "count", Better: "lower"},
	{Name: "core.write_conflicts", Unit: "count", Better: "lower"},
	{Name: "core.conflict_set_peak", Unit: "count", Better: "lower"},
	{Name: "core.redacted_frac", Unit: "ratio", Better: "lower"},
	// match.
	{Name: "match.tokens", Unit: "count", Better: "lower"},
	{Name: "match.probes", Unit: "count", Better: "lower"},
	{Name: "match.insts", Unit: "count", Better: "lower"},
	{Name: "match.top_rule_share", Unit: "ratio", Better: "lower"},
	{Name: "match.worker_imbalance", Unit: "ratio", Better: "lower"},
	// wal.
	{Name: "wal.append_us", Unit: "us", Better: "lower"},
	{Name: "wal.append_merkle_us", Unit: "us", Better: "lower"},
	{Name: "wal.marshal_us", Unit: "us", Better: "lower"},
	{Name: "wal.leafhash_us", Unit: "us", Better: "lower"},
	{Name: "wal.bytes_per_record", Unit: "B", Better: "lower"},
	{Name: "wal.records_per_op", Unit: "count", Better: "lower"},
	{Name: "wal.scan_us_per_record", Unit: "us", Better: "lower"},
	{Name: "wal.sync_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.fsyncs", Unit: "count", Better: "lower"},
	// checkpoint, snapshot.
	{Name: "checkpoint.write_ms", Unit: "ms", Better: "lower"},
	{Name: "checkpoint.bytes", Unit: "B", Better: "lower"},
	{Name: "checkpoint.read_restore_ms", Unit: "ms", Better: "lower"},
	{Name: "checkpoint.count", Unit: "count", Better: "lower"},
	{Name: "snapshot.write_ms", Unit: "ms", Better: "lower"},
	{Name: "snapshot.bytes", Unit: "B", Better: "lower"},
	// server: its own public outputs, plus what the harness times.
	{Name: "server.stage_session_ms", Unit: "ms", Better: "lower"},
	{Name: "server.stage_queue_ms", Unit: "ms", Better: "lower"},
	{Name: "server.stage_wal_ms", Unit: "ms", Better: "lower"},
	{Name: "server.stage_fsync_ms", Unit: "ms", Better: "lower"},
	{Name: "server.stage_run_ms", Unit: "ms", Better: "lower"},
	{Name: "server.rehydrations", Unit: "count", Better: "lower"},
	{Name: "server.evictions", Unit: "count", Better: "lower"},
	{Name: "server.rejected_429", Unit: "count", Better: "lower"},
	{Name: "server.create_ms", Unit: "ms", Better: "lower"},
	{Name: "server.delete_ms", Unit: "ms", Better: "lower"},
	{Name: "server.rehydrate_ms", Unit: "ms", Better: "lower"},
	{Name: "server.idle_session_kb", Unit: "KiB", Better: "lower"},
	// runtime.
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms_total", Unit: "ms", Better: "lower"},
	{Name: "runtime.heap_inuse_mb_peak", Unit: "MiB", Better: "lower"},
}

// exactCounts are the layer metrics that repeat exactly for a fixed
// (workload, seed, op count); compare reports them as counts and requires
// equality, never as speed-ups.
var exactCounts = map[string]bool{
	"core.cycles": true, "core.firings": true, "core.redactions": true,
	"match.tokens": true, "wal.records_per_op": true, "wal.bytes_per_record": true,
}

func unitOf(decls []metricDecl, name string) string {
	for _, d := range decls {
		if d.Name == name {
			return d.Unit
		}
	}
	panic("benchmark: metric " + name + " is not declared")
}
