package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"parulel/internal/checkpoint"
	"parulel/internal/compile"
	"parulel/internal/lang"
	"parulel/internal/snapshot"
	"parulel/internal/wal"
)

// The ledger run accounts for an op's time layer by layer, from outside.
// Rungs replay the first fifth of the op list, serially, at five depths;
// consecutive differences are each layer's cost in place. Direct calls
// then time each layer's public functions on the workload's own inputs.

// ---- observing executor ----

// watched wraps an executor to time whole steps by kind and to let a rung
// look at a session just before it is deleted.
type watched struct {
	inner     executor
	byKind    map[stepKind][]time.Duration
	timings   map[string][]float64 // Server-Timing token -> ms per request
	preDelete func(sess int)
}

func watch(x executor) *watched {
	return &watched{inner: x, byKind: map[stepKind][]time.Duration{}, timings: map[string][]float64{}}
}

func (w *watched) do(st *step, tr *recorder, parent int32, opID int) (response, error) {
	if st.kind == stDelete && w.preDelete != nil {
		w.preDelete(st.sess)
	}
	t0 := time.Now()
	resp, err := w.inner.do(st, tr, parent, opID)
	w.byKind[st.kind] = append(w.byKind[st.kind], time.Since(t0))
	if resp.timing != "" {
		for _, part := range strings.Split(resp.timing, ",") {
			name, dur, ok := strings.Cut(strings.TrimSpace(part), ";dur=")
			if v, err := strconv.ParseFloat(dur, 64); ok && err == nil {
				w.timings[name] = append(w.timings[name], v)
			}
		}
	}
	return resp, err
}

// ---- lanes ----

// lane is one depth of the stack being replayed. The ledger steps every
// lane through op i before any lane sees op i+1, so whatever drifts on a
// shared host — other tenants, the collector's pace, clock speed — drifts
// under all depths alike and cancels in their differences.
type lane struct {
	name      string
	x         executor
	orc       *oracle
	rec       *recorder // nil: spans off
	lats      []time.Duration
	failed    int
	afterWarm func() error // runs where the measured part begins
	golden    golden
	failures  []string
}

func (l *lane) meanMS() float64 { return meanDur(l.lats) }

// prepare runs the plan's set-up and the ledger's warm-up on this lane.
func (l *lane) prepare(p *plan, warm []op) error {
	if err := warmUp(l.x, p.setup, warm, l.orc); err != nil {
		return fmt.Errorf("%s: %w", l.name, err)
	}
	if l.afterWarm != nil {
		return l.afterWarm()
	}
	return nil
}

// replayInterleaved applies each op to every lane before moving on, in a
// fresh random order per op, so no depth always inherits the heap and the
// collector's debt from the same neighbour.
func replayInterleaved(lanes []*lane, ops []op, seed int64) {
	for _, l := range lanes {
		l.lats = make([]time.Duration, 0, len(ops))
	}
	rng := rand.New(rand.NewSource(seed))
	for i := range ops {
		for _, k := range rng.Perm(len(lanes)) {
			l := lanes[k]
			lat, err := runOp(l.x, &ops[i], l.orc, l.rec, nil)
			l.lats = append(l.lats, lat)
			if err != nil {
				l.failed++
			}
		}
	}
}

func (l *lane) seal(p *plan) {
	if err := finalChecks(p, l.x, l.orc); err != nil {
		l.failed++
	}
	l.golden = l.orc.result()
	l.failures = l.orc.failures
}

// fifth is the leading fifth of a list, at least one op.
func fifth(l []op) []op {
	n := len(l) / 5
	if n < 1 && len(l) > 0 {
		n = 1
	}
	return l[:n]
}

// ledgerOps is the first fifth of every client's list, merged back into
// the one serial order the op ids give. A session's ops all belong to one
// client, so its history stays in order.
func ledgerOps(p *plan) []op {
	var out []op
	for _, l := range p.ops {
		out = append(out, fifth(l)...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// serverMetrics is the part of GET /metrics the ledger reads.
type serverMetrics struct {
	Sessions struct {
		Evicted uint64 `json:"evicted"`
	} `json:"sessions"`
	Admission struct {
		RunsRejected      uint64 `json:"runs_rejected"`
		MutationsRejected uint64 `json:"mutations_rejected"`
	} `json:"admission"`
	Durability struct {
		WALRecords  uint64 `json:"wal_records"`
		Fsyncs      uint64 `json:"fsyncs"`
		Checkpoints uint64 `json:"checkpoints"`
		Rehydrated  uint64 `json:"sessions_rehydrated"`
	} `json:"durability"`
}

func readServerMetrics(x *httpExec) (serverMetrics, error) {
	var m serverMetrics
	status, _, raw, err := x.send(http.MethodGet, "/metrics", nil)
	if err != nil {
		return m, err
	}
	if status != http.StatusOK {
		return m, fmt.Errorf("GET /metrics: HTTP %d", status)
	}
	return m, json.Unmarshal(raw, &m)
}

// httpLane is a server-depth lane and what it leaves behind beyond its
// timings.
type httpLane struct {
	lane
	e             *env
	w             *watched
	before, after serverMetrics
	walRecords    []wal.Record
	rehydrateMS   float64
}

const maxWALSample = 4096

// newHTTPLane starts a fresh server at depth d. With sampleWAL the lane
// reads records back with wal.ScanFile from each session about to be
// deleted, and from those still live at the end.
func newHTTPLane(name string, d depth, p *plan, dir string, traced, sampleWAL bool, nops int) (*httpLane, error) {
	e, err := startEnv(d, dir, p.sessions)
	if err != nil {
		return nil, err
	}
	x := e.executor()
	h := &httpLane{e: e, w: watch(x)}
	h.lane = lane{name: name, x: h.w, orc: newOracle(p)}
	if traced {
		h.rec = newRecorder(name, 16*nops)
	}
	h.afterWarm = func() (err error) {
		h.before, err = readServerMetrics(x)
		return err
	}
	if sampleWAL {
		h.w.preDelete = h.sampleWAL
	}
	return h, nil
}

func (h *httpLane) sampleWAL(sess int) {
	id := h.e.ids[sess]
	if id == "" || len(h.walRecords) >= maxWALSample {
		return
	}
	if res, err := wal.ScanFile(filepath.Join(h.e.dir, "sessions", id, "wal.log")); err == nil {
		h.walRecords = append(h.walRecords, res.Records...)
	}
}

// finish reads the server's counters, optionally measures rehydration
// (restart on the lane's data directory, touch live sessions once), runs
// the final checks, deletes what is left through the API so delete is
// timed on live sessions too, and stops the server.
func (h *httpLane) finish(p *plan, ops []op, rehydrate bool) error {
	x := h.w.inner.(*httpExec)
	var err error
	if h.after, err = readServerMetrics(x); err != nil {
		_ = h.e.stop()
		return err
	}
	if h.w.preDelete != nil {
		for s := range h.e.ids {
			h.sampleWAL(s)
		}
	}
	if rehydrate {
		if h.e, err = h.measureRehydrate(h.e, p, ops); err != nil {
			return err
		}
		h.w.inner = h.e.executor()
	}
	h.seal(p)
	for s, id := range h.e.ids {
		if id != "" {
			st := step{kind: stDelete, sess: s}
			if _, err := h.w.do(&st, nil, -1, -1); err != nil {
				h.failed++
			}
		}
	}
	return h.e.stop()
}

// measureRehydrate stops the server, starts another on the same data
// directory and times the first request to each session it finds there
// (at most 16). A workload whose ops delete their sessions gets one
// session put back first, loaded by its first op.
func (hr *httpLane) measureRehydrate(e *env, p *plan, ops []op) (*env, error) {
	live := func() []int {
		var out []int
		for s, id := range e.ids {
			if id != "" {
				out = append(out, s)
			}
		}
		return out
	}
	if len(live()) == 0 && len(ops) > 0 {
		for i := range ops[0].steps {
			st := ops[0].steps[i]
			if st.kind == stDelete || st.check == ckDigest {
				continue
			}
			st.check = ckNone
			if st.gen != nil {
				st.facts = st.gen()
			}
			if _, err := hr.w.inner.do(&st, nil, -1, -1); err != nil {
				return nil, fmt.Errorf("rehydrate: reloading a session: %w", err)
			}
		}
	}
	ids := e.ids
	if err := e.stop(); err != nil {
		return nil, err
	}
	ne, err := startEnv(e.d, e.dir, p.sessions)
	if err != nil {
		return nil, err
	}
	copy(ne.ids, ids)
	x := ne.executor()
	var total time.Duration
	n := 0
	for _, s := range live() {
		if n == 16 {
			break
		}
		t0 := time.Now()
		status, _, _, err := x.send(http.MethodGet, "/api/v1/sessions/"+ne.ids[s], nil)
		total += time.Since(t0)
		if err != nil || status != http.StatusOK {
			_ = ne.stop()
			return nil, fmt.Errorf("rehydrate: session %s: HTTP %d %v", ne.ids[s], status, err)
		}
		n++
	}
	if n > 0 {
		hr.rehydrateMS = ms(total) / float64(n)
	}
	return ne, nil
}

// ---- the ledger ----

type ledgerResult struct {
	ops, attempted, failed int
	metrics                map[string]metricValue
	golden                 golden
	failures               []string
	traceFile              string
}

// heapSampler tracks peak heap-in-use without stopping the world.
type heapSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}, {Name: "/memory/classes/heap/unused:bytes"}}
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				metrics.Read(s)
				if v := s[0].Value.Uint64() + s[1].Value.Uint64(); v > h.peak {
					h.peak = v
				}
			}
		}
	}()
	return h
}

func (h *heapSampler) finish() uint64 {
	close(h.stop)
	h.wg.Wait()
	return h.peak
}

// pairedSE is the standard error, in ms, of the mean of a[i]-b[i].
func pairedSE(a, b []time.Duration) float64 {
	n := len(a)
	if n < 2 || len(b) != n {
		return 0
	}
	var sum, sq float64
	for i := range a {
		d := ms(a[i] - b[i])
		sum += d
		sq += d * d
	}
	mean := sum / float64(n)
	return math.Sqrt(math.Max(0, sq/float64(n)-mean*mean) / float64(n-1))
}

func meanDur(v []time.Duration) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range v {
		sum += d
	}
	return ms(sum) / float64(len(v))
}

// runLedger produces every per-layer metric for one workload.
func runLedger(p *plan, scratch, out string) (*ledgerResult, error) {
	ops := ledgerOps(p)
	nops := float64(len(ops))
	res := &ledgerResult{ops: len(ops), attempted: len(ops), metrics: map[string]metricValue{}}
	set := func(name string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.metrics[name] = metricValue{Value: v, Unit: unitOf(perLayerDecls, name)}
	}
	heap := startHeapSampler()
	dir := func(name string) string { return filepath.Join(scratch, "ledger-"+name) }

	// Seven lanes: the untraced reference (the end-to-end configuration,
	// spans off), the engine the way a session builds one, the same on one
	// worker for the scaling ratio, then the server's handler in memory,
	// with a WAL, with the Merkle ledger, and over loopback TCP.
	tracer := &phaseTracer{}
	eng := newEngineExec(p.sessions, serverWorkers, tracer)
	engLane := &lane{name: "engine", x: eng, orc: newOracle(p), rec: newRecorder("engine", 16*len(ops)),
		afterWarm: func() error { *tracer = phaseTracer{}; eng.resetRunStats(); return nil }}
	eng1 := newEngineExec(p.sessions, 1, nil)
	eng1Lane := &lane{name: "engine_w1", x: eng1, orc: newOracle(p),
		afterWarm: func() error { eng1.resetRunStats(); return nil }}
	var hls []*httpLane
	for _, ls := range []struct {
		name      string
		d         depth
		traced    bool
		sampleWAL bool
	}{
		{"untraced", e2eDepth, false, false},
		{"handler_mem", depth{}, true, false},
		{"handler_wal", depth{dataDir: true}, true, true},
		{"handler_merkle", depth{dataDir: true, merkle: true}, true, false},
		{"tcp", e2eDepth, true, false},
	} {
		h, err := newHTTPLane(ls.name, ls.d, p, dir(ls.name), ls.traced, ls.sampleWAL, len(ops))
		if err != nil {
			return nil, err
		}
		hls = append(hls, h)
	}
	untraced, mem, walR, merkle, tcp := hls[0], hls[1], hls[2], hls[3], hls[4]
	lanes := []*lane{&untraced.lane, engLane, eng1Lane, &mem.lane, &walR.lane, &merkle.lane, &tcp.lane}
	for _, l := range lanes {
		if err := l.prepare(p, fifth(p.warm)); err != nil {
			return nil, err
		}
	}
	runtime.GC()
	replayInterleaved(lanes, ops, int64(len(ops)))
	engLane.seal(p)
	sample := eng.finish()
	eng1Lane.seal(p)
	eng1.finish()
	for _, h := range hls {
		if err := h.finish(p, ops, h == merkle); err != nil {
			return nil, err
		}
	}

	// Every depth must have computed the same thing.
	res.golden = engLane.golden
	for _, l := range lanes {
		res.failed += l.failed
		res.failures = append(res.failures, l.failures...)
		if l.golden != res.golden {
			res.failed++
			res.failures = append(res.failures, fmt.Sprintf("lane %s computed %+v, engine lane %+v", l.name, l.golden, res.golden))
		}
	}

	// Rungs and the layers' shares derived from them.
	t1, t2, t3, t4, t5 := engLane.meanMS(), mem.meanMS(), walR.meanMS(), merkle.meanMS(), tcp.meanMS()
	set("ledger.engine_ms_per_op", t1)
	set("ledger.handler_mem_ms_per_op", t2)
	set("ledger.handler_wal_ms_per_op", t3)
	set("ledger.handler_merkle_ms_per_op", t4)
	set("ledger.tcp_ms_per_op", t5)
	selfMem := selfByName(mem.rec.spans)
	clientSelf := float64(selfMem["client.encode"]+selfMem["client.decode"]) / 1e6 / nops
	// A share is the mean of per-op differences between two lanes; its
	// standard error says whether the ledger resolved it at all.
	share := func(name string, upper, lower *lane, minus float64) {
		set(name, upper.meanMS()-lower.meanMS()-minus)
		mv := res.metrics[name]
		mv.SE = pairedSE(upper.lats, lower.lats)
		res.metrics[name] = mv
	}
	set("core.self_ms_per_op", t1)
	share("server.self_ms_per_op", &mem.lane, engLane, clientSelf)
	set("client.self_ms_per_op", clientSelf)
	share("wal.self_ms_per_op", &walR.lane, &mem.lane, 0)
	share("wal.merkle_self_ms_per_op", &merkle.lane, &walR.lane, 0)
	share("http.self_ms_per_op", &tcp.lane, &merkle.lane, 0)
	u := untraced.meanMS()
	set("ledger.e2e_gap_frac", math.Abs(t5-u)/u)
	set("trace.overhead_frac", float64(len(tcp.rec.spans))/nops*spanCostNS()/(u*1e6))

	// Engine: what the op list cost inside core, by phase and by rule.
	rs := eng.stats
	set("core.new_us", float64(rs.newWall.Microseconds())/math.Max(1, float64(rs.news)))
	set("core.insert_us_per_fact", float64(rs.insertWall.Nanoseconds())/1e3/math.Max(1, float64(rs.facts)))
	set("core.run_wdef_ms", ms(rs.runWall)/nops)
	set("core.run_w1_ms", ms(eng1.stats.runWall)/nops)
	var phases time.Duration
	for i, name := range []string{"core.match_ms", "core.redact_ms", "core.fire_ms", "core.apply_ms"} {
		set(name, ms(tracer.phase[i])/nops)
		phases += tracer.phase[i]
	}
	set("core.phase_unattributed_frac", float64(rs.runWall-phases)/float64(rs.runWall))
	set("core.cycles", float64(tracer.cycles))
	set("core.firings", float64(tracer.fired))
	set("core.redactions", float64(tracer.redacted))
	set("core.write_conflicts", float64(tracer.writeConflicts))
	set("core.conflict_set_peak", float64(tracer.conflictPeak))
	set("core.redacted_frac", float64(tracer.redacted)/math.Max(1, float64(tracer.eligible)))
	var tokens, probes, insts uint64
	var matchNS, topNS int64
	for _, r := range eng.rules {
		tokens += r.Tokens
		probes += r.Probes
		insts += r.Insts
		matchNS += r.MatchNS
		if r.MatchNS > topNS {
			topNS = r.MatchNS
		}
	}
	set("match.tokens", float64(tokens))
	set("match.probes", float64(probes))
	set("match.insts", float64(insts))
	set("match.top_rule_share", float64(topNS)/math.Max(1, float64(matchNS)))
	var maxW, sumW time.Duration
	for _, d := range eng.matchWork {
		sumW += d
		if d > maxW {
			maxW = d
		}
	}
	set("match.worker_imbalance", float64(maxW)*float64(len(eng.matchWork))/math.Max(1, float64(sumW)))

	if err := directLangCompile(p, set); err != nil {
		return nil, err
	}
	if err := directWAL(walR.walRecords, dir("wal-direct"), set); err != nil {
		return nil, err
	}
	set("wal.records_per_op", float64(walR.after.Durability.WALRecords-walR.before.Durability.WALRecords)/nops)
	set("wal.fsyncs", float64(tcp.after.Durability.Fsyncs-tcp.before.Durability.Fsyncs))
	set("checkpoint.count", float64(tcp.after.Durability.Checkpoints-tcp.before.Durability.Checkpoints))
	if err := directCheckpoint(sample, dir("checkpoint-direct"), set); err != nil {
		return nil, err
	}

	// Server: its own public outputs, read not added.
	for _, tok := range []string{"session", "queue", "wal", "fsync", "run"} {
		set("server.stage_"+tok+"_ms", median(tcp.w.timings[tok]))
	}
	set("server.rehydrations", float64(tcp.after.Durability.Rehydrated))
	set("server.evictions", float64(tcp.after.Sessions.Evicted))
	set("server.rejected_429", float64(tcp.after.Admission.RunsRejected+tcp.after.Admission.MutationsRejected))
	set("server.create_ms", meanDur(tcp.w.byKind[stCreate]))
	set("server.delete_ms", meanDur(tcp.w.byKind[stDelete]))
	set("server.rehydrate_ms", merkle.rehydrateMS)
	idle, err := idleSessionKB(p)
	if err != nil {
		return nil, err
	}
	set("server.idle_session_kb", idle)

	var msr runtime.MemStats
	runtime.ReadMemStats(&msr)
	set("runtime.gc_cycles", float64(msr.NumGC))
	set("runtime.gc_pause_ms_total", float64(msr.PauseTotalNs)/1e6)
	set("runtime.heap_inuse_mb_peak", float64(heap.finish())/(1<<20))

	// Spans are written once everything is measured.
	recs := []*recorder{engLane.rec, mem.rec, walR.rec, merkle.rec, tcp.rec}
	for _, r := range recs {
		if err := checkForest(r.spans); err != nil {
			res.failed++
			res.failures = append(res.failures, fmt.Sprintf("spans of rung %s: %v", r.rung, err))
		}
	}
	res.traceFile = filepath.Join(out, "trace-"+p.name+".jsonl")
	if err := writeSpans(res.traceFile, recs...); err != nil {
		return nil, err
	}
	return res, nil
}

// ---- direct calls ----

// medianOf times f reps times and returns the median, in nanoseconds.
func medianOf(reps int, f func() error) (float64, error) {
	v := make([]float64, reps)
	for i := range v {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		v[i] = float64(time.Since(t0))
	}
	return median(v), nil
}

// directLangCompile parses and compiles each of the workload's programs;
// the metrics are means over the programs.
func directLangCompile(p *plan, set func(name string, v float64)) error {
	var parse, comp, rules, metas, size float64
	for _, src := range p.programs {
		var ast *lang.Program
		d, err := medianOf(15, func() (err error) { ast, err = lang.Parse(src); return })
		if err != nil {
			return err
		}
		parse += d
		var prog *compile.Program
		d, err = medianOf(15, func() (err error) { prog, err = compile.Compile(ast); return })
		if err != nil {
			return err
		}
		comp += d
		rules += float64(len(prog.Rules))
		metas += float64(len(prog.MetaRules))
		size += float64(len(src))
	}
	n := float64(len(p.programs))
	set("lang.parse_us", parse/1e3/n)
	set("compile.compile_us", comp/1e3/n)
	set("compile.rules", rules/n)
	set("compile.metarules", metas/n)
	set("lang.source_bytes", size/n)
	return nil
}

// directWAL appends the workload's own records to a fresh log, with and
// without a Merkle ledger, hashes their payloads, and scans them back.
func directWAL(recs []wal.Record, dir string, set func(name string, v float64)) error {
	names := []string{"wal.append_us", "wal.append_merkle_us", "wal.marshal_us", "wal.leafhash_us", "wal.bytes_per_record", "wal.scan_us_per_record", "wal.sync_ms"}
	if len(recs) == 0 {
		for _, n := range names {
			set(n, 0)
		}
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	// Enough appends for the clock to resolve one (a few thousand), but
	// no more than about half a second of them: records run from 300
	// bytes on ingest_mixed to 23 KB on waltz_run.
	var bytesIn int
	for i := range recs {
		bytesIn += 64 * (1 + len(recs[i].Facts))
		for j := range recs[i].Ops {
			bytesIn += 64 * len(recs[i].Ops[j].Facts)
		}
	}
	reps := 1 + 40_000_000/(1+bytesIn)
	if max := (20_000 + len(recs) - 1) / len(recs); reps > max {
		reps = max
	}
	appendAll := func(path string, merkle bool, reps int) (perRec float64, syncMS float64, err error) {
		total := float64(reps * len(recs))
		log, _, err := wal.Open(path, wal.Options{Policy: wal.PolicyInterval})
		if err != nil {
			return 0, 0, err
		}
		var led *wal.Ledger
		if merkle {
			if led, err = wal.OpenLedger(path + ".merkle"); err != nil {
				log.Close()
				return 0, 0, err
			}
			log.SetLedger(led)
		}
		t0 := time.Now()
		for r := 0; r < reps && err == nil; r++ {
			for i := range recs {
				rec := recs[i]
				if err = log.Append(&rec); err != nil {
					break
				}
			}
		}
		perRec = float64(time.Since(t0)) / total
		if err == nil {
			t0 = time.Now()
			err = log.Sync()
			syncMS = ms(time.Since(t0))
		}
		// The log closes first: its last flush still commits to the ledger.
		if cerr := log.Close(); err == nil {
			err = cerr
		}
		if led != nil {
			if cerr := led.Close(); err == nil {
				err = cerr
			}
		}
		return perRec, syncMS, err
	}
	plain, syncMS, err := appendAll(filepath.Join(dir, "plain.log"), false, reps)
	if err != nil {
		return err
	}
	withLedger, _, err := appendAll(filepath.Join(dir, "merkle.log"), true, reps)
	if err != nil {
		return err
	}
	// The log that is scanned back holds the sample once: what a
	// rehydration would read.
	scanPath := filepath.Join(dir, "scan.log")
	if _, _, err := appendAll(scanPath, false, 1); err != nil {
		return err
	}
	total := float64(reps * len(recs))
	// The payload encoding on its own: the part of an append that is
	// JSON, as against the write and the hash.
	payloads := make([][]byte, len(recs))
	var bytesTotal float64
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		for i := range recs {
			if payloads[i], err = json.Marshal(&recs[i]); err != nil {
				return err
			}
		}
	}
	marshal := float64(time.Since(t0)) / total
	for _, pl := range payloads {
		bytesTotal += float64(8 + len(pl)) // frame header + payload
	}
	t0 = time.Now()
	var sink byte
	for r := 0; r < reps; r++ {
		for i, pl := range payloads {
			h := wal.LeafHash(uint64(i+1), pl)
			sink ^= h[0]
		}
	}
	leaf := float64(time.Since(t0)) / total
	_ = sink
	t0 = time.Now()
	scanned, err := wal.ScanFile(scanPath)
	if err != nil {
		return err
	}
	scan := float64(time.Since(t0)) / math.Max(1, float64(len(scanned.Records)))
	set("wal.append_us", plain/1e3)
	set("wal.append_merkle_us", withLedger/1e3)
	set("wal.marshal_us", marshal/1e3)
	set("wal.leafhash_us", leaf/1e3)
	set("wal.bytes_per_record", bytesTotal/float64(len(recs)))
	set("wal.scan_us_per_record", scan/1e3)
	set("wal.sync_ms", syncMS) // sandbox only: page cache, not a device
	return nil
}

// directCheckpoint writes, reads back and restores a checkpoint of a real
// engine from the engine rung, and prints its snapshot.
func directCheckpoint(s *engineSession, dir string, set func(name string, v float64)) error {
	if s == nil {
		return fmt.Errorf("ledger: the engine rung left no engine to checkpoint")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "checkpoint")
	h := checkpoint.Header{
		Seq: 1, Program: "uploaded", Source: s.src, Workers: serverWorkers, Matcher: "rete",
		MaxCycles: 10_000_000, Runs: 1, Counters: s.eng.Counters(), Fired: s.eng.FiredKeys(),
	}
	write, err := medianOf(5, func() error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		err = checkpoint.Write(f, h, s.eng.Memory())
		if err == nil {
			err = f.Sync()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		return err
	})
	if err != nil {
		return err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	prog, err := compile.CompileSource(s.src)
	if err != nil {
		return err
	}
	restore, err := medianOf(5, func() error {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		hdr, facts, err := checkpoint.Read(f)
		if err != nil {
			return err
		}
		return checkpoint.Restore(newEngine(prog, serverWorkers, nil, true), hdr, facts)
	})
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	snap, err := medianOf(5, func() error {
		buf.Reset()
		return snapshot.Write(&buf, s.eng.Memory())
	})
	if err != nil {
		return err
	}
	set("checkpoint.write_ms", write/1e6)
	set("checkpoint.bytes", float64(fi.Size()))
	set("checkpoint.read_restore_ms", restore/1e6)
	set("snapshot.write_ms", snap/1e6)
	set("snapshot.bytes", float64(buf.Len()))
	return nil
}

// idleSessionKB is heap in use per idle session: 64 sessions of the
// workload's programs on a memory-only server, after a collection.
func idleSessionKB(p *plan) (float64, error) {
	const n = 64
	e, err := startEnv(depth{}, "", n)
	if err != nil {
		return 0, err
	}
	defer e.stop()
	x := e.executor()
	heapInuse := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapInuse
	}
	before := heapInuse()
	for s := 0; s < n; s++ {
		st := step{kind: stCreate, sess: s, source: p.programs[s%len(p.programs)]}
		if _, err := x.do(&st, nil, -1, -1); err != nil {
			return 0, err
		}
	}
	after := heapInuse()
	runtime.KeepAlive(e)
	if after < before {
		return 0, nil
	}
	return float64(after-before) / 1024 / n, nil
}
