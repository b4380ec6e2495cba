package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// ---- declarations shared with BENCHMARK.json ----

// metricDecl is one entry of BENCHMARK.json's end_to_end or per_layer.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

// loadBenchmarkFile finds BENCHMARK.json in the working directory or its
// parent (the harness runs from the repository root or from benchmark/).
func loadBenchmarkFile() (*benchmarkFile, error) {
	var firstErr error
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		raw, err := os.ReadFile(p)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var bf benchmarkFile
		if err := json.Unmarshal(raw, &bf); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &bf, nil
	}
	return nil, firstErr
}

func (bf *benchmarkFile) decl(name string) (metricDecl, bool) {
	for _, l := range [][]metricDecl{bf.EndToEnd, bf.PerLayer} {
		for _, d := range l {
			if d.Name == name {
				return d, true
			}
		}
	}
	return metricDecl{}, false
}

// ---- result files ----

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Segments are the per-segment values the median was taken over, and
	// Spread their inter-quartile range as a share of that median.
	Segments []float64 `json:"segments,omitempty"`
	Spread   float64   `json:"spread,omitempty"`
	Unstable bool      `json:"unstable,omitempty"`
	Samples  int       `json:"samples,omitempty"`
	// SE is the standard error of a ledger share, in the metric's unit.
	SE float64 `json:"se,omitempty"`
	// Raw is a time-based end-to-end metric as measured on this host; Value
	// is Raw scaled to the reference host speed.
	Raw float64 `json:"raw,omitempty"`
}

type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"git_commit"`
	SingleCore bool   `json:"single_core"`
}

type serverInfo struct {
	MaxSessions     int    `json:"max_sessions"`
	Workers         int    `json:"workers"`
	Fsync           string `json:"fsync"`
	Merkle          bool   `json:"merkle"`
	CheckpointEvery int    `json:"checkpoint_every"`
	Transport       string `json:"transport"`
}

// runResult is one run of one workload: the end-to-end run (Trace 0) or
// the ledger run (Trace 1).
type runResult struct {
	Workload       string  `json:"workload"`
	Trace          int     `json:"trace"`
	Seed           int64   `json:"seed"`
	InputSet       int64   `json:"input_set"` // the one of the ten op lists the seed picked
	Ops            int     `json:"ops"`
	LedgerOps      int     `json:"ledger_ops,omitempty"`
	WarmOps        int     `json:"warm_ops"`
	Clients        int     `json:"clients"`
	Segments       int     `json:"segments"`
	TailPercentile float64 `json:"tail_percentile"`
	Attempted      int     `json:"attempted"`
	Failed         int     `json:"failed"`
	FailedFrac     float64 `json:"failed_frac"`
	Correct        bool    `json:"correct"`
	// InvariantsHeld: no op failed and no invariant broke, whatever the
	// golden comparison said. Only such a run's golden may go on file.
	InvariantsHeld bool                   `json:"invariants_held"`
	Golden         golden                 `json:"golden"`
	GoldenStatus   string                 `json:"golden_status"` // match, mismatch or absent
	Failures       []string               `json:"failures,omitempty"`
	Metrics        map[string]metricValue `json:"metrics"`
	Host           hostInfo               `json:"host"`
	Server         serverInfo             `json:"server"`
	TraceFile      string                 `json:"trace_file,omitempty"`
	WallS          float64                `json:"wall_s"`
	// HostSpeed is how fast the host ran during an end-to-end run, as a
	// multiple of the reference state: probeReferenceMS over the median of
	// HostProbeMS, the host probe's samples at the segment boundaries.
	HostSpeed   float64   `json:"host_speed,omitempty"`
	HostProbeMS []float64 `json:"host_probe_ms,omitempty"`
}

// resultFile is what -out writes and compare reads: any number of runs.
type resultFile struct {
	Schema string      `json:"schema"`
	Runs   []runResult `json:"runs"`
}

const resultSchema = "parulel-benchmark/v1"

// readResults reads a result file, or the result files one level below a
// directory (what ab.sh leaves: one sub-directory per run), in name order.
func readResults(path string) (*resultFile, error) {
	if fi, err := os.Stat(path); err == nil && fi.IsDir() {
		// All-workload runs leave a merged results.json; single-workload
		// runs leave only their result-<workload>-trace<n>.json.
		files, _ := filepath.Glob(filepath.Join(path, "*", "results.json"))
		if len(files) == 0 {
			files, _ = filepath.Glob(filepath.Join(path, "*", "result-*.json"))
		}
		if len(files) == 0 {
			return nil, fmt.Errorf("%s: no result files one level below it", path)
		}
		sort.Strings(files)
		all := &resultFile{Schema: resultSchema}
		for _, f := range files {
			rf, err := readResults(f)
			if err != nil {
				return nil, err
			}
			all.Runs = append(all.Runs, rf.Runs...)
		}
		return all, nil
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(raw, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rf.Schema != resultSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, rf.Schema, resultSchema)
	}
	return &rf, nil
}

func writeResults(path string, rf *resultFile) error {
	rf.Schema = resultSchema
	raw, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// ---- host fingerprint ----

func nproc() int { return runtime.NumCPU() }

func kernelRelease() string {
	var u syscall.Utsname
	if err := syscall.Uname(&u); err != nil {
		return "unknown"
	}
	var b strings.Builder
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		b.WriteByte(byte(c))
	}
	return b.String()
}

// commitEnv names the commit of the program under test when the working
// directory cannot: ab.sh runs both sides from exported trees.
const commitEnv = "BENCHMARK_COMMIT"

// gitCommit asks git; a checkout that is not a repository says "unknown".
func gitCommit() string {
	if c := os.Getenv(commitEnv); c != "" {
		return c
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func fingerprint() hostInfo {
	return hostInfo{
		NProc:      nproc(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     kernelRelease(),
		Commit:     gitCommit(),
		SingleCore: nproc() < 2,
	}
}

// ---- statistics ----

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles matches Python's statistics.quantiles(v, n=4) (the exclusive
// method), which is what the contract's spread is stated in.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 { // quantile i of 4
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := i*(n+1) - j*4
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return at(1), at(3)
}

// spread is the inter-quartile range as a share of the median.
func spread(v []float64) float64 {
	m := median(v)
	if len(v) < 2 || m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return math.Abs((q3 - q1) / m)
}

// percentile is the nearest-rank percentile of sorted durations.
func percentile(sorted []time.Duration, pct float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(pct/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ---- end-to-end metrics ----

// endToEndMetrics turns a measured run into the end-to-end metrics. Every
// one but set-up time and peak RSS is taken per segment and reported as
// the median over segments — latency percentiles too, so that a burst of
// interference from another tenant, which lands in one or two segments,
// does not set the tail.
func endToEndMetrics(m *measured, tailPct float64, bf *benchmarkFile) (metrics map[string]metricValue, attempted, failed int) {
	var opsPerS, cpuPerOp, allocPerOp, p50s, tails []float64
	samples := 0
	totalAlloc := 0.0
	for _, seg := range m.segments {
		ok := 0
		lats := make([]time.Duration, 0, len(seg.results))
		for _, r := range seg.results {
			attempted++
			if r.ok {
				ok++
				lats = append(lats, r.lat)
			} else {
				failed++
			}
		}
		samples += len(lats)
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		p50s = append(p50s, ms(percentile(lats, 50)))
		tails = append(tails, ms(percentile(lats, tailPct)))
		n := float64(len(seg.results))
		if n == 0 || seg.acct.wall <= 0 {
			continue
		}
		opsPerS = append(opsPerS, float64(ok)/seg.acct.wall.Seconds())
		cpuPerOp = append(cpuPerOp, ms(seg.acct.cpu)/n)
		allocPerOp = append(allocPerOp, float64(seg.acct.alloc)/1024/n)
		totalAlloc += float64(seg.acct.alloc)
	}
	// Times are multiplied by the host's speed and rates divided by it: what
	// the run would have measured on the reference host state.
	speed := m.hostSpeed()
	segmented := func(name string, v []float64) metricValue {
		mv := metricValue{Raw: median(v), Unit: unitOf(endToEndDecls, name), Segments: v, Spread: spread(v), Samples: samples}
		if name == "ops_per_s" {
			mv.Value = mv.Raw / speed
		} else {
			mv.Value = mv.Raw * speed
		}
		if d, ok := bf.decl(name); ok && mv.Spread > d.Bound {
			mv.Unstable = true
		}
		return mv
	}
	metrics = map[string]metricValue{
		"setup_s":       {Value: median(m.setups) * speed, Raw: median(m.setups), Unit: "s", Segments: m.setups, Spread: spread(m.setups)},
		"ops_per_s":     segmented("ops_per_s", opsPerS),
		"op_p50_ms":     segmented("op_p50_ms", p50s),
		"op_tail_ms":    segmented("op_tail_ms", tails),
		"cpu_ms_per_op": segmented("cpu_ms_per_op", cpuPerOp),
		// Allocation and memory do not depend on the host's speed. Where a
		// workload is not stationary, allocation depends on which segment
		// is the middle one; the whole run's ratio is the steadier number.
		"alloc_kb_per_op": {Value: totalAlloc / 1024 / float64(attempted), Unit: "KiB", Segments: allocPerOp, Spread: spread(allocPerOp), Samples: samples},
		"peak_rss_mb":     {Value: peakRSSMiB(), Unit: "MiB"},
	}
	return metrics, attempted, failed
}

// ---- printing ----

// printResult lists every metric by name with its unit.
func printResult(w io.Writer, r *runResult, order []metricDecl) {
	kind := "end to end"
	if r.Trace == 1 {
		kind = "layer ledger"
	}
	ops := r.Ops
	if r.Trace == 1 {
		ops = r.LedgerOps
	}
	fmt.Fprintf(w, "\n== %s (%s)  seed=%d input_set=%d ops=%d clients=%d  attempted=%d failed=%d failed_frac=%g  golden=%s  correct=%v\n",
		r.Workload, kind, r.Seed, r.InputSet, ops, r.Clients, r.Attempted, r.Failed, r.FailedFrac, r.GoldenStatus, r.Correct)
	if r.HostSpeed != 0 {
		fmt.Fprintf(w, "  host_speed %.3f of the reference state: times and rates below are scaled by it, and printed as measured beside\n", r.HostSpeed)
	}
	for _, d := range order {
		mv, ok := r.Metrics[d.Name]
		if !ok {
			continue
		}
		val := fmt.Sprintf("%.6g", mv.Value)
		note := ""
		if d.Name == "op_tail_ms" {
			note += fmt.Sprintf("  p%g", r.TailPercentile)
		}
		if mv.Raw != 0 {
			note += fmt.Sprintf("  as measured=%.6g", mv.Raw)
		}
		if mv.Samples > 0 {
			note += fmt.Sprintf("  n=%d", mv.Samples)
		}
		if len(mv.Segments) > 1 {
			note += fmt.Sprintf("  spread=%.1f%%", 100*mv.Spread)
		}
		if mv.SE > 0 {
			note += fmt.Sprintf("  ±%.3g", mv.SE)
			if math.Abs(mv.Value) < 2*mv.SE {
				note += " (not resolved)"
			}
		}
		if mv.Unstable {
			note += "  unstable"
		}
		fmt.Fprintf(w, "  %-32s %14s %-6s%s\n", d.Name, val, mv.Unit, note)
	}
	if w1, wd := r.Metrics["core.run_w1_ms"], r.Metrics["core.run_wdef_ms"]; r.Trace == 1 && wd.Value > 0 {
		// No scaling statement is ever made from one core.
		ratio := fmt.Sprintf("%.3f", w1.Value/wd.Value)
		if r.Host.SingleCore {
			ratio = "n/a (single core)"
		}
		fmt.Fprintf(w, "  core.run_w1_ms / core.run_wdef_ms = %s   (workers=%d on nproc=%d)\n", ratio, r.Server.Workers, r.Host.NProc)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

// contractLine is the one JSON object the driver reads from the last line
// of standard output.
func contractLine(r *runResult) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]mv{}}
	for name, v := range r.Metrics {
		out.Metrics[name] = mv{v.Value, v.Unit}
	}
	raw, err := json.Marshal(out)
	if err != nil {
		panic(err)
	}
	return string(raw)
}
