package main

import (
	"fmt"
	"os"
	"sort"
	"text/tabwriter"
)

// compare prints one row per (workload, metric) of two result files and
// exits non-zero when an end-to-end metric regressed. A file may hold one
// run per workload or many (ab.sh writes ten each); with many, the
// medians, quartiles, pair wins and run-to-run spread are taken over runs.
// With fewer than four runs a side there is no spread to take, so nothing
// can come out `unresolved`: a verdict from single runs is only as good as
// the host was quiet.

type series struct {
	values []float64 // one per run, in file order
	unit   string
}

type seriesKey struct {
	workload string
	trace    int
	metric   string
}

// collectSeries groups a file's metric values by (workload, trace,
// metric) and totals the failed ops of its end-to-end runs per workload.
func collectSeries(rf *resultFile) (map[seriesKey]*series, map[string]int) {
	out := map[seriesKey]*series{}
	failed := map[string]int{}
	for _, r := range rf.Runs {
		if r.Trace == 0 {
			failed[r.Workload] += r.Failed
		}
		for name, mv := range r.Metrics {
			k := seriesKey{r.Workload, r.Trace, name}
			s := out[k]
			if s == nil {
				s = &series{unit: mv.Unit}
				out[k] = s
			}
			s.values = append(s.values, mv.Value)
		}
	}
	return out, failed
}

// minRunsForSpread is how many runs a side needs before a run-to-run
// spread is taken. A single run's segment spread is no stand-in: on a
// workload that is not stationary it measures the trend, not the noise.
const minRunsForSpread = 4

func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare <a.json> <b.json>   (a is the base)")
		return 2
	}
	bf, err := loadBenchmarkFile()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: BENCHMARK.json:", err)
		return 1
	}
	var files [2]map[seriesKey]*series
	var failed [2]map[string]int
	for i, path := range args {
		rf, err := readResults(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		files[i], failed[i] = collectSeries(rf)
	}
	a, b := files[0], files[1]
	var keys []seriesKey
	for k := range a {
		if _, ok := b[k]; ok {
			keys = append(keys, k)
		}
	}
	order := map[string]int{}
	for i, d := range endToEndDecls {
		order[d.Name] = i
	}
	for i, d := range perLayerDecls {
		order[d.Name] = len(endToEndDecls) + i
	}
	wlOrder := map[string]int{}
	for i, s := range specs {
		wlOrder[s.name] = i
	}
	sort.Slice(keys, func(i, j int) bool {
		x, y := keys[i], keys[j]
		if x.trace != y.trace {
			return x.trace < y.trace
		}
		if x.workload != y.workload {
			return wlOrder[x.workload] < wlOrder[y.workload]
		}
		return order[x.metric] < order[y.metric]
	})

	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta median\ta q1..q3\tb median\tb/a\tb wins\tspread\tbound\tverdict")
	regressed := 0
	for _, k := range keys {
		sa, sb := a[k], b[k]
		ma, mb := median(sa.values), median(sb.values)
		decl, declared := bf.decl(k.metric)
		q1, q3 := quartiles(sa.values)
		ratio := "n/a"
		if ma != 0 {
			ratio = fmt.Sprintf("%.3f of %.6g", mb/ma, ma)
		}
		wins := "-"
		if n := len(sa.values); n > 1 && n == len(sb.values) {
			w := 0
			for i := range sa.values {
				if better(decl.Better, sb.values[i], sa.values[i]) {
					w++
				}
			}
			wins = fmt.Sprintf("%d/%d", w, n)
		}
		sp, spreadCol := 0.0, "n/a"
		if len(sa.values) >= minRunsForSpread && len(sb.values) >= minRunsForSpread {
			sp = max(spread(sa.values), spread(sb.values))
			spreadCol = fmt.Sprintf("%.1f%%", 100*sp)
		}
		bound, verdict := "-", "-"
		switch {
		case exactCounts[k.metric]:
			// Counts compare two versions of one program; they are
			// never a speed-up.
			verdict = "count equal"
			if ma != mb {
				verdict = "count changed"
			}
			ratio = fmt.Sprintf("%.6g -> %.6g", ma, mb)
		case k.trace == 0 && declared:
			bound = fmt.Sprintf("%.0f%%", 100*decl.Bound)
			worse := 0.0
			if ma != 0 {
				worse = (mb - ma) / ma
				if decl.Better == "higher" {
					worse = -worse
				}
			}
			switch {
			case sp > decl.Bound:
				verdict = "unresolved"
			case worse > decl.Bound:
				verdict = "regressed"
				regressed++
			default:
				verdict = "ok"
			}
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g..%.6g\t%.6g\t%s\t%s\t%s\t%s\t%s\n",
			k.workload, k.metric, sa.unit, ma, q1, q3, mb, ratio, wins, spreadCol, bound, verdict)
	}
	// failed_frac has bound 0: any rise fails.
	for _, sp := range specs {
		fa, fb := failed[0][sp.name], failed[1][sp.name]
		verdict := "ok"
		if fb > fa {
			verdict = "regressed"
			regressed++
		}
		fmt.Fprintf(tw, "%s\tfailed ops\tcount\t%d\t\t%d\t\t\t\t0%%\t%s\n", sp.name, fa, fb, verdict)
	}
	tw.Flush()
	if regressed > 0 {
		fmt.Printf("\n%d regressed\n", regressed)
		return 1
	}
	return 0
}

func better(direction string, x, than float64) bool {
	if direction == "higher" {
		return x > than
	}
	return x < than
}
