package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"text/tabwriter"
	"time"

	"parulel/internal/checkpoint"
	"parulel/internal/compile"
	"parulel/internal/core"
	"parulel/internal/wal"
	"parulel/internal/wm"
)

// durabilitySrc is the session program the durability benchmark drives:
// one rule that acknowledges each request, so every iteration's run fires
// exactly once and the working memory grows by two facts.
const durabilitySrc = `
(literalize req id)
(literalize ack id)
(rule acknowledge
  (req ^id <i>)
  -(ack ^id <i>)
-->
  (make ack ^id <i>))
`

// durabilityPolicy is one measured configuration: a WAL fsync policy, or
// "off" for the undurable baseline (no log at all).
type durabilityPolicy struct {
	name string
	on   bool
	pol  wal.Policy
}

// DurabilityRow is one fsync policy's cost at the single-writer session
// write path.
type DurabilityRow struct {
	Policy      string  `json:"policy"`
	WallNS      int64   `json:"wall_ns"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	Slowdown    float64 `json:"slowdown"` // vs the memory-only baseline
	WALBytes    int     `json:"wal_bytes"`
	Fsyncs      int     `json:"fsyncs"`
	Checkpoints int     `json:"checkpoints"`
}

// GroupCommitRow is one (policy, concurrency) point of the shared-log
// appender comparison: the axis where group commit earns its keep.
type GroupCommitRow struct {
	Policy          string  `json:"policy"`
	Concurrency     int     `json:"concurrency"`
	Appends         int     `json:"appends"`
	WallNS          int64   `json:"wall_ns"`
	AppendsPerSec   float64 `json:"appends_per_sec"`
	Fsyncs          int     `json:"fsyncs"`
	AppendsPerFsync float64 `json:"appends_per_fsync"`
}

// DurabilityDoc is the `-durability` document, merged into BENCH_*.json
// under "durability".
type DurabilityDoc struct {
	Schema          string           `json:"schema"` // "parulel-durability/v1"
	GeneratedAt     string           `json:"generated_at"`
	GoVersion       string           `json:"go_version"`
	NumCPU          int              `json:"num_cpu"`
	Quick           bool             `json:"quick"`
	Iters           int              `json:"iters"`
	CheckpointEvery int              `json:"checkpoint_every"`
	Policies        []DurabilityRow  `json:"policies"`
	GroupCommit     []GroupCommitRow `json:"group_commit"`
	// GroupSpeedup is group/always append throughput at the highest
	// measured concurrency — the number that justifies the policy.
	GroupSpeedup            float64 `json:"group_speedup"`
	GroupSpeedupConcurrency int     `json:"group_speedup_concurrency"`
}

// RunDurability measures what the durability layer costs. Two axes:
//
// Single writer: per iteration assert one fact, run the engine to
// quiescence, and log the mutation + run boundary the way paruleld does,
// checkpointing after every CheckpointEvery records. PolicyAlways pays
// one fsync per append, PolicyGroup routes each append through the
// commit daemon (a cohort of one — its overhead floor), PolicyInterval
// amortizes to a background ticker, PolicyNever leaves flushing to the
// OS.
//
// Shared log: n goroutines appending to one log, fsync=always vs
// fsync=group. Group commit coalesces the concurrent fsyncs into cohort
// flushes, so its throughput should scale with the writer count while
// always's stays flat.
func RunDurability(quick bool) (*DurabilityDoc, error) {
	iters, ckptEvery := 1500, 256
	if quick {
		iters, ckptEvery = 200, 64
	}
	doc := &DurabilityDoc{
		Schema:          "parulel-durability/v1",
		GeneratedAt:     time.Now().UTC().Format(time.RFC3339),
		GoVersion:       runtime.Version(),
		NumCPU:          runtime.NumCPU(),
		Quick:           quick,
		Iters:           iters,
		CheckpointEvery: ckptEvery,
	}
	prog, err := compile.CompileSource(durabilitySrc)
	if err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp("", "parbench-durability-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	policies := []durabilityPolicy{
		{name: "off (memory-only)"},
		{name: "never", on: true, pol: wal.PolicyNever},
		{name: "interval", on: true, pol: wal.PolicyInterval},
		{name: "group", on: true, pol: wal.PolicyGroup},
		{name: "always", on: true, pol: wal.PolicyAlways},
	}
	var base time.Duration
	for pi, p := range policies {
		dir := filepath.Join(root, fmt.Sprintf("p%d", pi))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		var walBytes, fsyncs, checkpoints int
		var log *wal.Log
		if p.on {
			log, _, err = wal.Open(filepath.Join(dir, "wal.log"), wal.Options{
				Policy:   p.pol,
				OnAppend: func(n int) { walBytes += n },
				OnFsync:  func(time.Duration) { fsyncs++ },
			})
			if err != nil {
				return nil, err
			}
		}
		e := core.New(prog, core.Options{Workers: 1, MaxCycles: 1 << 20})
		records := 0

		start := time.Now()
		for i := 0; i < iters; i++ {
			id := wm.Int(int64(i))
			if _, err := e.Insert("req", map[string]wm.Value{"id": id}); err != nil {
				return nil, err
			}
			before := e.Counters()
			res, err := e.Run()
			if err != nil {
				return nil, err
			}
			if p.on {
				if err := log.Append(&wal.Record{
					Op:    wal.OpAssert,
					Facts: []wal.Fact{{Template: "req", Fields: wal.Fields{{Name: "id", Value: id}}}},
				}); err != nil {
					return nil, err
				}
				if err := log.Append(&wal.Record{
					Op:     wal.OpRun,
					Cycles: res.Cycles - before.Cycles,
					Halted: res.Halted,
				}); err != nil {
					return nil, err
				}
				records += 2
				if records >= ckptEvery {
					if err := writeBenchCheckpoint(dir, log.Seq(), e); err != nil {
						return nil, err
					}
					if err := log.Reset(); err != nil {
						return nil, err
					}
					checkpoints++
					records = 0
				}
			}
		}
		if p.on {
			if err := log.Close(); err != nil {
				return nil, err
			}
		}
		wall := time.Since(start)
		if pi == 0 {
			base = wall
		}
		doc.Policies = append(doc.Policies, DurabilityRow{
			Policy:      p.name,
			WallNS:      wall.Nanoseconds(),
			OpsPerSec:   float64(iters) / wall.Seconds(),
			Slowdown:    float64(wall) / float64(base),
			WALBytes:    walBytes,
			Fsyncs:      fsyncs,
			Checkpoints: checkpoints,
		})
	}

	// Shared-log axis: always serializes append+fsync, group coalesces.
	perWriter := 400
	if quick {
		perWriter = 80
	}
	alwaysAt := map[int]float64{}
	for _, conc := range []int{1, 8} {
		for _, p := range []struct {
			name string
			pol  wal.Policy
		}{{"always", wal.PolicyAlways}, {"group", wal.PolicyGroup}} {
			dir := filepath.Join(root, fmt.Sprintf("g-%s-%d", p.name, conc))
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return nil, err
			}
			row, err := sharedLogRun(dir, p.pol, conc, perWriter)
			if err != nil {
				return nil, fmt.Errorf("shared log [%s c=%d]: %w", p.name, conc, err)
			}
			row.Policy = p.name
			doc.GroupCommit = append(doc.GroupCommit, *row)
			switch p.name {
			case "always":
				alwaysAt[conc] = row.AppendsPerSec
			case "group":
				if conc > doc.GroupSpeedupConcurrency && alwaysAt[conc] > 0 {
					doc.GroupSpeedupConcurrency = conc
					doc.GroupSpeedup = row.AppendsPerSec / alwaysAt[conc]
				}
			}
		}
	}
	return doc, nil
}

// sharedLogRun drives conc goroutines, each appending perWriter records
// to one log, and reports aggregate append throughput and fsync counts.
func sharedLogRun(dir string, pol wal.Policy, conc, perWriter int) (*GroupCommitRow, error) {
	var fsyncs atomic.Int64
	log, _, err := wal.Open(filepath.Join(dir, "wal.log"), wal.Options{
		Policy:  pol,
		OnFsync: func(time.Duration) { fsyncs.Add(1) },
	})
	if err != nil {
		return nil, err
	}
	var wg sync.WaitGroup
	errs := make(chan error, conc)
	start := time.Now()
	for g := 0; g < conc; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := log.Append(&wal.Record{Op: wal.OpRun, Cycles: g<<20 | i}); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	wall := time.Since(start)
	if err := log.Close(); err != nil {
		return nil, err
	}
	select {
	case err := <-errs:
		return nil, err
	default:
	}
	appends := conc * perWriter
	row := &GroupCommitRow{
		Concurrency:   conc,
		Appends:       appends,
		WallNS:        wall.Nanoseconds(),
		AppendsPerSec: float64(appends) / wall.Seconds(),
		Fsyncs:        int(fsyncs.Load()),
	}
	if row.Fsyncs > 0 {
		row.AppendsPerFsync = float64(appends) / float64(row.Fsyncs)
	}
	return row, nil
}

// WriteDurabilityTable renders the document for terminal use.
func WriteDurabilityTable(w io.Writer, doc *DurabilityDoc) error {
	fmt.Fprintf(w, "Durability — WAL fsync policy cost at the session write path (%d assert+run iterations, checkpoint every %d records)\n", doc.Iters, doc.CheckpointEvery)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "fsync\twall\tops/sec\tslowdown\twal-bytes\tfsyncs\tcheckpoints")
	for _, r := range doc.Policies {
		fmt.Fprintf(tw, "%s\t%v\t%.0f\t%.2fx\t%d\t%d\t%d\n",
			r.Policy, time.Duration(r.WallNS).Round(time.Microsecond),
			r.OpsPerSec, r.Slowdown, r.WALBytes, r.Fsyncs, r.Checkpoints)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nGroup commit — concurrent appenders sharing one log, fsync=always vs fsync=group\n")
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "fsync\tconc\tappends\twall\tappends/sec\tfsyncs\tappends/fsync")
	for _, r := range doc.GroupCommit {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%v\t%.0f\t%d\t%.1f\n",
			r.Policy, r.Concurrency, r.Appends,
			time.Duration(r.WallNS).Round(time.Microsecond),
			r.AppendsPerSec, r.Fsyncs, r.AppendsPerFsync)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "group-commit speedup over always at c=%d: %.2fx\n",
		doc.GroupSpeedupConcurrency, doc.GroupSpeedup)
	return nil
}

// MergeDurabilityJSON writes the durability document into path under a
// "durability" key, preserving every other key of an existing
// BENCH_*.json ("-" = stdout, durability document only).
func MergeDurabilityJSON(path string, doc *DurabilityDoc) error {
	if path == "-" {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(doc)
	}
	merged := map[string]any{}
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &merged); err != nil {
			return fmt.Errorf("existing %s is not a JSON object: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	merged["durability"] = doc
	out, err := json.MarshalIndent(merged, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// Durability runs the benchmark and renders the table — the non-JSON
// `parbench -durability` path.
func Durability(w io.Writer, quick bool) error {
	doc, err := RunDurability(quick)
	if err != nil {
		return err
	}
	return WriteDurabilityTable(w, doc)
}

// writeBenchCheckpoint persists a full engine image the way the server
// does: write-to-temp, fsync, rename.
func writeBenchCheckpoint(dir string, seq uint64, e *core.Engine) error {
	h := checkpoint.Header{
		Seq:      seq,
		Program:  "durability-bench",
		Source:   durabilitySrc,
		Workers:  1,
		Counters: e.Counters(),
		Fired:    e.FiredKeys(),
	}
	tmp, err := os.CreateTemp(dir, "checkpoint-*")
	if err != nil {
		return err
	}
	if err := checkpoint.Write(tmp, h, e.Memory()); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), filepath.Join(dir, "checkpoint"))
}
