package main

import (
	"bufio"
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"testing"
)

// quickOps are the tiny op counts the test runs every workload at; their
// goldens are in expected.json like those of the full sizes.
var quickOps = map[string]int{
	"alexsys_run":   20,
	"waltz_run":     20,
	"ingest_mixed":  400,
	"session_churn": 300,
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func mustBenchmarkFile(t *testing.T) *benchmarkFile {
	t.Helper()
	bf, err := loadBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestDeclarations: BENCHMARK.json says what the code says.
func TestDeclarations(t *testing.T) {
	bf := mustBenchmarkFile(t)
	if len(bf.Paths) != 1 || bf.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", bf.Paths)
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bf.RunSeconds)
	}
	if len(bf.Workloads) != len(specs) {
		t.Fatalf("%d workloads declared, %d implemented", len(bf.Workloads), len(specs))
	}
	for i, w := range bf.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: declared %q, implemented %q", i, w.Name, specs[i].name)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	same := func(kind string, declared, coded []metricDecl) {
		if len(declared) != len(coded) {
			t.Fatalf("%s: %d declared, %d in code", kind, len(declared), len(coded))
		}
		seen := map[string]bool{}
		for i, d := range declared {
			if d != coded[i] {
				t.Errorf("%s %d: declared %+v, code has %+v", kind, i, d, coded[i])
			}
			if !nameRE.MatchString(d.Name) {
				t.Errorf("%s: bad name %q", kind, d.Name)
			}
			if seen[d.Name] {
				t.Errorf("%s: %q declared twice", kind, d.Name)
			}
			seen[d.Name] = true
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s %s: better = %q", kind, d.Name, d.Better)
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEndDecls)
	same("per_layer", bf.PerLayer, perLayerDecls)
	for _, d := range bf.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for name := range exactCounts {
		if _, ok := bf.decl(name); !ok {
			t.Errorf("exact count %q is not a declared metric", name)
		}
	}
}

// TestGoldensOnFile: whatever seed the driver passes, the run it makes has
// a golden to be compared with.
func TestGoldensOnFile(t *testing.T) {
	for seed, want := range map[int64]int64{1: 1, 10: 10, 11: 1, 0: 10, -3: 7, 1 << 40: 6} {
		if got := inputSet(seed); got != want {
			t.Errorf("inputSet(%d) = %d, want %d", seed, got, want)
		}
	}
	goldens, err := loadGoldens()
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range specs {
		for set := int64(1); set <= inputSets; set++ {
			for trace := 0; trace <= 1; trace++ {
				if _, ok := goldens[goldenKey(spec.name, set, spec.ops, trace)]; !ok {
					t.Errorf("no golden %s", goldenKey(spec.name, set, spec.ops, trace))
				}
			}
		}
	}
}

// checkMetrics: every declared name is emitted exactly once (the map
// holds each once by construction, so: none missing, none extra), with
// its declared unit.
func checkMetrics(t *testing.T, got map[string]metricValue, decls []metricDecl) {
	t.Helper()
	for _, d := range decls {
		mv, ok := got[d.Name]
		if !ok {
			t.Errorf("metric %s not emitted", d.Name)
			continue
		}
		if mv.Unit != d.Unit {
			t.Errorf("metric %s: unit %q, declared %q", d.Name, mv.Unit, d.Unit)
		}
	}
	if len(got) != len(decls) {
		var extra []string
		for name := range got {
			found := false
			for _, d := range decls {
				found = found || d.Name == name
			}
			if !found {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		t.Errorf("undeclared metrics emitted: %v", extra)
	}
}

// TestQuick runs all four workloads end to end and through the ledger at
// tiny op counts.
func TestQuick(t *testing.T) {
	bf := mustBenchmarkFile(t)
	for _, spec := range specs {
		spec := spec
		t.Run(spec.name, func(t *testing.T) {
			o := options{seed: 1, ops: quickOps[spec.name], out: t.TempDir()}
			res, err := runOne(o, spec, bf, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.FailedFrac != 0 || !res.Correct {
				t.Errorf("end to end: failed=%d of %d: %v", res.Failed, res.Attempted, res.Failures)
			}
			if res.GoldenStatus != "match" {
				t.Errorf("end to end: golden %s: got %+v", res.GoldenStatus, res.Golden)
			}
			checkMetrics(t, res.Metrics, endToEndDecls)
			for _, d := range endToEndDecls {
				if res.Metrics[d.Name].Value <= 0 {
					t.Errorf("end to end: %s = %g, want > 0", d.Name, res.Metrics[d.Name].Value)
				}
			}

			o.trace = 1
			led, err := runOne(o, spec, bf, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if led.Failed != 0 || !led.Correct {
				t.Errorf("ledger: failed=%d: %v", led.Failed, led.Failures)
			}
			if led.GoldenStatus != "match" {
				t.Errorf("ledger: golden %s: got %+v", led.GoldenStatus, led.Golden)
			}
			checkMetrics(t, led.Metrics, perLayerDecls)
			checkRungs(t, led)
			checkSpanFile(t, led.TraceFile, led.LedgerOps)
		})
	}
}

// checkRungs: each depth costs at least what the one below it costs,
// within what a handful of ops can resolve.
func checkRungs(t *testing.T, led *runResult) {
	t.Helper()
	rungs := []string{"ledger.engine_ms_per_op", "ledger.handler_mem_ms_per_op", "ledger.handler_wal_ms_per_op",
		"ledger.handler_merkle_ms_per_op", "ledger.tcp_ms_per_op"}
	shares := []string{"server.self_ms_per_op", "wal.self_ms_per_op", "wal.merkle_self_ms_per_op", "http.self_ms_per_op"}
	for i := 1; i < len(rungs); i++ {
		below, above := led.Metrics[rungs[i-1]].Value, led.Metrics[rungs[i]].Value
		slack := 0.25*below + 3*led.Metrics[shares[i-1]].SE
		if above < below-slack {
			t.Errorf("%s = %.4g is below %s = %.4g by more than noise (%.3g)", rungs[i], above, rungs[i-1], below, slack)
		}
	}
	// End to end the same holds; on a 15 ms op four ledger ops cannot
	// resolve a 1 ms stack, so noise gets the same allowance.
	var se float64
	for _, name := range shares {
		se += led.Metrics[name].SE
	}
	if e, tcp := led.Metrics[rungs[0]].Value, led.Metrics[rungs[4]].Value; tcp < e-0.25*e-3*se {
		t.Errorf("tcp rung %.4g is below the engine rung %.4g by more than noise", tcp, e)
	}
	var sum float64
	for _, name := range append(shares, "core.self_ms_per_op", "client.self_ms_per_op") {
		sum += led.Metrics[name].Value
	}
	if tcp := led.Metrics[rungs[4]].Value; sum < 0.999*tcp || sum > 1.001*tcp {
		t.Errorf("layer shares sum to %.6g, tcp rung is %.6g", sum, tcp)
	}
}

// checkSpanFile: the span file is a well-formed forest per rung, and every
// rung traced every op.
func checkSpanFile(t *testing.T, path string, nops int) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	byRung := map[string][]span{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if int(s.ID) != len(byRung[s.Rung]) {
			t.Fatalf("rung %s: span id %d out of file order", s.Rung, s.ID)
		}
		byRung[s.Rung] = append(byRung[s.Rung], s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, rung := range []string{"engine", "handler_mem", "handler_wal", "handler_merkle", "tcp"} {
		spans := byRung[rung]
		if err := checkForest(spans); err != nil {
			t.Errorf("rung %s: %v", rung, err)
		}
		ops := map[int]int{}
		for _, s := range spans {
			if s.Parent < 0 {
				ops[s.Op]++
			}
		}
		if len(ops) != nops {
			t.Errorf("rung %s: %d ops traced, want %d", rung, len(ops), nops)
		}
		for op, n := range ops {
			if n != 1 {
				t.Errorf("rung %s: op %d has %d root spans", rung, op, n)
			}
		}
	}
}

// TestQuartiles pins the spread statistic to Python's
// statistics.quantiles(v, n=4), which the contract's spreads are stated in.
func TestQuartiles(t *testing.T) {
	v := []float64{1, 2, 4, 7, 11, 16, 22, 29, 37, 46}
	q1, q3 := quartiles(v)
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %g, %g, want 3.5, 31", q1, q3)
	}
	if m := median(v); m != 13.5 {
		t.Errorf("median = %g, want 13.5", m)
	}
}
