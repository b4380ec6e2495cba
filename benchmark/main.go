// Command benchmark is the repository's one served-request benchmark: four
// deterministic workloads against an in-process paruleld with the
// daemon's durable defaults over loopback TCP, seven end-to-end metrics,
// and (with -trace 1) a ledger that times each layer from outside through
// its public functions. See README.md.
//
//	go -C benchmark run .                        all four workloads, end to end
//	go -C benchmark run . -trace 1               … plus the layer ledger
//	go -C benchmark run . -workload waltz_run    one workload (what the driver calls)
//	go -C benchmark run . compare a.json b.json
//	go -C benchmark run . goldens results.json … > expected.json
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

type options struct {
	workload string
	seed     int64
	trace    int
	out      string
	// ops overrides the op count. It has no flag: only the test sets it, to
	// sizes whose goldens are on file.
	ops int
}

const (
	// segments is how many equal parts the op list is cut into; rates and
	// percentiles are the median over them.
	segments = 5
	// slicesPerSegment is how often inside a segment the clients pause for
	// the host probe.
	slicesPerSegment = 6
	// setUps is how many times set-up runs; setup_s is their median.
	setUps = 3
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "goldens":
			os.Exit(goldensMain(os.Args[2:]))
		}
	}
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload in this process (alexsys_run, waltz_run, ingest_mixed, session_churn); empty runs all four, each in a child process")
	flag.Int64Var(&o.seed, "seed", 1, "picks one of the ten input sets the op lists are generated from")
	seconds := flag.Int("seconds", 0, "the driver passes run_seconds from BENCHMARK.json; op lists have that one size, so no other value is accepted")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: the layer ledger (with no -workload: both)")
	flag.StringVar(&o.out, "out", "", "directory for result and trace files (default: a temporary directory, removed on exit)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	code, err := run(o, *seconds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

func run(o options, seconds int) (int, error) {
	bf, err := loadBenchmarkFile()
	if err != nil {
		return 1, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	// A run is a fixed op list, not a fixed time: a second size would be a
	// second benchmark, with no goldens and results that do not compare.
	if seconds != 0 && seconds != bf.RunSeconds {
		return 2, fmt.Errorf("-seconds %d: op lists are sized for run_seconds = %d and have no other size", seconds, bf.RunSeconds)
	}
	if o.trace < 0 || o.trace > 1 {
		return 2, fmt.Errorf("bad -trace %d", o.trace)
	}
	// Working files live under the checkout, never outside it.
	scratch, err := filepath.Abs(filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return 1, err
	}
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return 1, err
	}
	defer os.RemoveAll(scratch)
	if o.out == "" {
		o.out = filepath.Join(scratch, "out")
	}
	if o.out, err = filepath.Abs(o.out); err != nil {
		return 1, err
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return 1, err
	}
	if o.workload == "" {
		return runAll(o, bf)
	}
	spec, ok := specByName(o.workload)
	if !ok {
		return 2, fmt.Errorf("unknown workload %q", o.workload)
	}
	res, err := runOne(o, spec, bf, scratch)
	if err != nil {
		return 1, err
	}
	if err := writeResults(resultPath(o.out, spec.name, o.trace), &resultFile{Runs: []runResult{*res}}); err != nil {
		return 1, err
	}
	order := endToEndDecls
	if o.trace == 1 {
		order = perLayerDecls
	}
	printResult(os.Stdout, res, order)
	fmt.Println(contractLine(res))
	if !res.Correct {
		return 1, nil
	}
	return 0, nil
}

func resultPath(dir, workload string, trace int) string {
	return filepath.Join(dir, fmt.Sprintf("result-%s-trace%d.json", workload, trace))
}

// runOne runs one workload in this process.
func runOne(o options, spec workloadSpec, bf *benchmarkFile, scratch string) (*runResult, error) {
	t0 := time.Now()
	nops := spec.ops
	if o.ops > 0 {
		nops = o.ops
	}
	set := inputSet(o.seed)
	gen := func() *plan { return spec.gen(set, nops) }
	res := &runResult{
		Workload: spec.name, Trace: o.trace, Seed: o.seed, InputSet: set, Ops: nops,
		Segments: segments, TailPercentile: spec.tailPct, Host: fingerprint(),
		Server: serverInfo{MaxSessions: 64, Workers: serverWorkers, Fsync: "interval", Merkle: true, CheckpointEvery: 256, Transport: "loopback tcp"},
	}
	var runErr error
	if o.trace == 0 {
		m, p, err := runEndToEnd(gen, scratch)
		if m == nil {
			return nil, err
		}
		runErr = err
		res.Clients, res.WarmOps = p.clients, len(p.warm)
		res.Metrics, res.Attempted, res.Failed = endToEndMetrics(m, spec.tailPct, bf)
		res.Golden, res.Failures = m.golden, m.failures
		res.HostSpeed, res.HostProbeMS = m.hostSpeed(), m.probes
	} else {
		p := gen()
		led, err := runLedger(p, scratch, o.out)
		if led == nil {
			return nil, err
		}
		runErr = err
		res.Clients, res.WarmOps, res.LedgerOps = 1, len(fifth(p.warm)), led.ops
		res.Metrics, res.Attempted, res.Failed = led.metrics, led.attempted, led.failed
		res.TraceFile = led.traceFile
		res.Golden, res.Failures = led.golden, led.failures
	}
	if runErr != nil {
		res.Failures = append(res.Failures, runErr.Error())
		if res.Failed == 0 {
			res.Failed = 1 // a failed final check fails the run, not one op
		}
	}
	res.InvariantsHeld = res.Failed == 0
	goldens, err := loadGoldens()
	if err != nil {
		return nil, err
	}
	// Every input set has its golden on file, so one that is absent fails
	// the run like one that differs: the exact-count check never turns
	// itself off.
	key := goldenKey(spec.name, set, nops, o.trace)
	switch want, ok := goldens[key]; {
	case !ok:
		res.GoldenStatus = "absent"
		res.Failures = append(res.Failures, fmt.Sprintf("golden %s: not in expected.json (the goldens subcommand adds it)", key))
	case want == res.Golden:
		res.GoldenStatus = "match"
	default:
		res.GoldenStatus = "mismatch"
		res.Failures = append(res.Failures, fmt.Sprintf("golden %s: got %+v, want %+v", key, res.Golden, want))
	}
	if res.GoldenStatus != "match" && res.Failed == 0 {
		res.Failed = 1
	}
	if res.Attempted < 1 {
		res.Attempted = 1
	}
	res.FailedFrac = float64(res.Failed) / float64(res.Attempted)
	res.Correct = res.Failed == 0
	res.WallS = time.Since(t0).Seconds()
	return res, nil
}

// runAll runs every workload in a fresh child process each, so peak RSS
// and CPU are per workload, and merges what they wrote.
func runAll(o options, bf *benchmarkFile) (int, error) {
	self, err := os.Executable()
	if err != nil {
		return 1, err
	}
	var all resultFile
	code := 0
	for _, spec := range specs {
		for trace := 0; trace <= o.trace; trace++ {
			cmd := exec.Command(self, "-workload", spec.name, "-seed", fmt.Sprint(o.seed), "-trace", fmt.Sprint(trace), "-out", o.out)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s (trace %d): %v\n", spec.name, trace, err)
				code = 1
			}
			rf, err := readResults(resultPath(o.out, spec.name, trace))
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
				code = 1
				continue
			}
			all.Runs = append(all.Runs, rf.Runs...)
		}
	}
	path := filepath.Join(o.out, "results.json")
	if err := writeResults(path, &all); err != nil {
		return 1, err
	}
	fmt.Printf("\nresults: %s\n", path)
	return code, nil
}
