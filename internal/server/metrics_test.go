package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"parulel/internal/match"
	"parulel/internal/stats"
)

// scriptedCollector replays the observation script the goldens in
// testdata/metrics_golden.* were rendered from, by the collector of commit
// fdbba8b (one bump method per series, a field-by-field snapshot and a
// hand-written exposition). Every counter gets its own value, so a series
// wired to the wrong field shows.
func scriptedCollector() metricsPayload {
	c := newCollector()
	c.Durability = &durabilityPayload{FoundOnBoot: 3, fsyncPayload: fsyncPayload(*newHist())}
	c.Cluster = &clusterPayload{Node: "n0"}
	us, ms := time.Microsecond, time.Millisecond
	c.observe([]stats.Cycle{
		{Match: 3 * us, Redact: 1500 * time.Nanosecond, Fire: 40 * us, Apply: 700 * time.Nanosecond, ConflictSize: 7, Redacted: 2, Fired: 5, DeltaSize: 9},
		{Match: 2 * ms, Redact: 90 * us, Fire: 450 * us, Apply: 1 * us, ConflictSize: 31, Redacted: 11, Fired: 20, DeltaSize: 44},
		{Match: 11 * time.Second, Redact: 0, Fire: 6 * ms, Apply: 20 * ms, ConflictSize: 4, Redacted: 0, Fired: 4, DeltaSize: 4},
	})
	c.observe([]stats.Cycle{{Match: 10 * us, Redact: 10 * us, Fire: 10 * us, Apply: 10 * us, ConflictSize: 1, Fired: 1, DeltaSize: 1}})
	c.stageObserved("ingress", 250*us)
	c.stageObserved("wal.append", 12*us)
	c.stageObserved("wal.append", 3*ms)
	c.stageObserved("engine.run", time.Second)
	c.observeRules([]match.RuleProfile{
		{Rule: "allocate", MatchNS: 1234567, Tokens: 10, Probes: 99, Insts: 4, Fires: 3},
		{Rule: "quo\"te\\back\nslash", MatchNS: 5, Tokens: 1, Probes: 2, Insts: 3, Fires: 4},
		{Rule: "idle", Tokens: 1},
	})
	c.observeRules([]match.RuleProfile{{Rule: "allocate", MatchNS: 1000, Tokens: 1, Probes: 1, Insts: 1, Fires: 1}})

	for _, bump := range []struct {
		f *uint64
		n uint64
	}{
		{&c.Runs.Started, 11}, {&c.Runs.Completed, 7}, {&c.Runs.Timeouts, 2}, {&c.Runs.Canceled, 1}, {&c.Runs.Errors, 3},
		{&c.Sessions.Created, 13}, {&c.Sessions.Evicted, 4}, {&c.Sessions.Expired, 5}, {&c.Sessions.Deleted, 6},
		{&c.Admission.RunsRejected, 8}, {&c.Admission.MutationsRejected, 9},
		{&c.Jobs.Created, 10}, {&c.Jobs.Done, 12}, {&c.Jobs.Canceled, 14}, {&c.Jobs.Interrupted, 15}, {&c.Jobs.Errors, 16},
		{&c.Batches.Batches, 2}, {&c.Batches.Ops, 18},
		{&c.Stream.Frames, 3}, {&c.Stream.Facts, 19}, {&c.Stream.Rejected, 35}, {&c.Stream.Ticks, 21}, {&c.Stream.Expired, 36},
		{&c.Sessions.Recovered, 22}, {&c.Durability.RecoveryFailures, 24},
		{&c.Durability.WALRecords, 2}, {&c.Durability.WALBytes, 123},
		{&c.Durability.WALTruncations, 2}, {&c.Durability.WALTruncatedBytes, 26},
		{&c.Durability.Checkpoints, 2}, {&c.Durability.CheckpointErrors, 1}, {&c.Durability.CheckpointTotalNS, uint64(8 * ms)},
		{&c.Cluster.Proxied, 26}, {&c.Cluster.Redirected, 27}, {&c.Cluster.ReplStreams, 28}, {&c.Cluster.ReplRecords, 29},
		{&c.Cluster.ReplFailures, 30}, {&c.Cluster.ReplUnprotected, 31}, {&c.Cluster.MigrationsIn, 32},
		{&c.Cluster.MigrationsOut, 33}, {&c.Cluster.Promotions, 34},
	} {
		c.inc(bump.f)
		c.add(bump.f, bump.n-1)
	}
	c.fsyncObserved(150 * us)
	c.fsyncObserved(4 * ms)
	c.fsyncObserved(30 * time.Second)

	// The gauges handleMetrics samples at scrape time.
	p := c.snapshot()
	p.UptimeMS = 93500
	p.Sessions.Live, p.Runs.Active = 5, 2
	p.Admission.RunQueueLen, p.Admission.RunsInflight = 1, 3
	p.Jobs.Active = 4
	p.Durability.SessionsOnDisk = 9
	p.Cluster.MembersTotal, p.Cluster.MembersUp, p.Cluster.ReplicaSessions, p.Cluster.RouteOverrides = 3, 2, 6, 1
	return p
}

// declaration is one declared family and the dotted path of JSON keys to
// the field that carries it.
type declaration struct {
	series
	json string
}

// declarations lists the families a payload struct type declares, and is
// the check on metrics.go's grammar: every field must say what it is — a
// series with help text and a kind that can read it, JSON-only ("-"), a
// section, or a labelled table.
func declarations(t reflect.Type, path string) ([]declaration, error) {
	var out []declaration
	for i := 0; i < t.NumField(); i++ {
		f, ft := t.Field(i), t.Field(i).Type
		if ft.Kind() == reflect.Pointer {
			ft = ft.Elem()
		}
		at := path
		if !f.Anonymous { // an embedded struct's keys flatten into its parent's
			key, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			at = strings.TrimPrefix(path+"."+key, ".")
		}
		s, _ := declared(t, i)
		var sub []declaration
		var err error
		switch integer := ft.Kind() == reflect.Int || ft.Kind() == reflect.Int64 || ft.Kind() == reflect.Uint64; {
		case s.name == "-":
		case s.name != "" && s.help == "":
			err = fmt.Errorf("%s: series %s has no help text", at, s.name)
		case s.name != "" && s.kind == "histogram":
			if ft.Kind() == reflect.Map {
				ft = ft.Elem().Elem()
			}
			if !ft.ConvertibleTo(reflect.TypeOf(phasePayload{})) {
				err = fmt.Errorf("%s: histogram %s is declared on a %s", at, s.name, ft)
			}
			out = append(out, declaration{s, at})
		case s.name != "" && (kinds[s.kind].div == 0 || !integer):
			err = fmt.Errorf("%s: series %s has kind %q on a %s", at, s.name, s.kind, ft)
		case s.name != "":
			out = append(out, declaration{s, at})
		case ft.Kind() == reflect.Struct:
			sub, err = declarations(ft, at)
		case ft.Kind() == reflect.Slice && ft.Elem().Kind() == reflect.Struct && f.Tag.Get("label") != "":
			sub, err = declarations(ft.Elem(), at+"[]")
		default:
			err = fmt.Errorf("%s: no prom tag (a series name, or \"-\" for a JSON-only field)", at)
		}
		if err != nil {
			return nil, err
		}
		out = append(out, sub...)
	}
	return out, nil
}

func declaredSeries(t *testing.T) []declaration {
	t.Helper()
	all, err := declarations(reflect.TypeOf(metricsPayload{}), "")
	if err != nil {
		t.Fatalf("metricsPayload: %v", err)
	}
	return all
}

// addedFamilies are the series the JSON view always had and the
// hand-written exposition never got.
var addedFamilies = []string{
	"parulel_checkpoint_seconds_total",
	"parulel_sessions_found_on_boot",
	"parulel_wal_tail_truncated_bytes_total",
}

func renderJSON(p metricsPayload) []byte {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, p)
	return rec.Body.Bytes()
}

func renderProm(p metricsPayload) string {
	var b bytes.Buffer
	writePrometheus(&b, p)
	return b.String()
}

// TestMetricsGolden holds both views to what the parent rendered for the
// same observations: the JSON document byte for byte (and every key of it
// known to metricsPayload), the exposition byte for byte once the three
// added families are taken out.
func TestMetricsGolden(t *testing.T) {
	p := scriptedCollector()

	wantJSON, err := os.ReadFile("testdata/metrics_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var parent metricsPayload
	dec := json.NewDecoder(bytes.NewReader(wantJSON))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&parent); err != nil {
		t.Fatalf("parent's document does not decode into metricsPayload: %v", err)
	}
	if !reflect.DeepEqual(parent, p) {
		t.Errorf("decoded documents differ:\nparent %+v\nnow    %+v", parent, p)
	}
	if got := renderJSON(p); !bytes.Equal(got, wantJSON) {
		t.Errorf("JSON document differs from the parent's:\n%s", got)
	}

	wantProm, err := os.ReadFile("testdata/metrics_golden.prom")
	if err != nil {
		t.Fatal(err)
	}
	var kept []string
	added := map[string]int{}
lines:
	for _, ln := range strings.SplitAfter(renderProm(p), "\n") {
		for _, name := range addedFamilies {
			if strings.HasPrefix(ln, name+" ") || strings.HasPrefix(ln, "# HELP "+name+" ") || strings.HasPrefix(ln, "# TYPE "+name+" ") {
				added[name]++
				continue lines
			}
		}
		kept = append(kept, ln)
	}
	if got := strings.Join(kept, ""); got != string(wantProm) {
		t.Errorf("exposition differs from the parent's beyond the added families:\n%s", got)
	}
	for _, name := range addedFamilies {
		if added[name] != 3 {
			t.Errorf("added family %s rendered %d lines, want HELP, TYPE and one sample", name, added[name])
		}
	}
}

// TestEverySeriesInBothViews: with the durability and cluster sections
// on, every declared series is in the JSON document and — HELP, TYPE and
// at least one sample, each family once — in the exposition, which holds
// no family that is not declared.
func TestEverySeriesInBothViews(t *testing.T) {
	p := scriptedCollector()
	p.Engine.RulesDropped = 7 // omitempty: in the document only once the cap has dropped a rule

	var doc any
	if err := json.Unmarshal(renderJSON(p), &doc); err != nil {
		t.Fatal(err)
	}
	prom := renderProm(p)
	checkExposition(t, prom)
	help, typ, samples := map[string]int{}, map[string]string{}, map[string]int{}
	for _, ln := range strings.Split(strings.TrimRight(prom, "\n"), "\n") {
		f := strings.Fields(ln)
		switch {
		case strings.HasPrefix(ln, "# HELP "):
			help[f[2]]++
		case strings.HasPrefix(ln, "# TYPE "):
			if typ[f[2]] != "" {
				t.Errorf("family %s has two TYPE lines", f[2])
			}
			typ[f[2]] = f[3]
		default:
			name, _, _ := strings.Cut(f[0], "{")
			samples[name]++
		}
	}

	declared := declaredSeries(t)
	if len(declared) < 60 {
		t.Fatalf("plan holds %d series; the walk lost some", len(declared))
	}
	seen := map[string]bool{}
	for _, s := range declared {
		if seen[s.name] {
			t.Errorf("series %s is declared twice", s.name)
		}
		seen[s.name] = true

		at := doc
		for _, key := range strings.Split(s.json, ".") {
			if rows, ok := at.([]any); ok && len(rows) > 0 {
				at = rows[0]
			}
			obj, _ := at.(map[string]any)
			if at = obj[strings.TrimSuffix(key, "[]")]; at == nil {
				t.Errorf("series %s: JSON document has no %s", s.name, s.json)
				break
			}
		}

		wantType, sample := kinds[s.kind].typ, s.name
		if s.kind == "histogram" {
			sample += "_count"
		}
		if help[s.name] != 1 || typ[s.name] != wantType || samples[sample] == 0 {
			t.Errorf("series %s: %d HELP lines, TYPE %q (want %q), %d samples", s.name, help[s.name], typ[s.name], wantType, samples[sample])
		}
	}
	for name := range help {
		if !seen[name] {
			t.Errorf("exposition holds undeclared family %s", name)
		}
	}
	for _, name := range addedFamilies {
		if !seen[name] {
			t.Errorf("%s is not declared", name)
		}
	}
}

// TestRuleSeriesCap: engine.rules stops growing at maxRuleSeries names;
// folds for further rules are counted, and the first of them says so.
func TestRuleSeriesCap(t *testing.T) {
	c := newCollector()
	firsts := 0
	for i := 0; i < maxRuleSeries+2; i++ {
		for round := 0; round < 2; round++ {
			if c.observeRules([]match.RuleProfile{{Rule: fmt.Sprintf("r%03d", i), Fires: 1}}) {
				firsts++
			}
		}
	}
	p := c.snapshot()
	if len(p.Engine.Rules) != maxRuleSeries || p.Engine.RulesDropped != 4 || firsts != 1 {
		t.Fatalf("%d rules, %d dropped folds, %d first-drop reports; want %d, 4, 1", len(p.Engine.Rules), p.Engine.RulesDropped, firsts, maxRuleSeries)
	}
	if r := p.Engine.Rules[0]; r.Rule != "r000" || r.Fires != 2 {
		t.Fatalf("first row %+v, want r000 with both folds", r)
	}
}

// TestMetricsDeclarationChecked: a field that does not say what it is, or
// says it badly, fails declarations — and with it every test that lists
// metricsPayload's series.
func TestMetricsDeclarationChecked(t *testing.T) {
	for name, bad := range map[string]any{
		"no prom tag": struct {
			N uint64 `json:"n"`
		}{},
		"no help": struct {
			N uint64 `json:"n" prom:"parulel_n_total" kind:"counter"`
		}{},
		"no kind": struct {
			N uint64 `json:"n" prom:"parulel_n_total" help:"N."`
		}{},
		"unknown kind": struct {
			N uint64 `json:"n" prom:"parulel_n_total" kind:"summary" help:"N."`
		}{},
		"scalar kind on a struct": struct {
			N phasePayload `json:"n" prom:"parulel_n" kind:"gauge" help:"N."`
		}{},
		"histogram on a scalar": struct {
			N uint64 `json:"n" prom:"parulel_n_seconds" kind:"histogram" help:"N."`
		}{},
		"nested": struct {
			S struct {
				N uint64 `json:"n"`
			} `json:"s"`
		}{},
		"table without a label": struct {
			Rows []struct {
				N uint64 `json:"n" prom:"parulel_n_total" kind:"counter" help:"N."`
			} `json:"rows"`
		}{},
	} {
		if _, err := declarations(reflect.TypeOf(bad), ""); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestObservabilityDocListsEverySeries keeps docs/OBSERVABILITY.md's
// series reference complete: every declared family is named there.
func TestObservabilityDocListsEverySeries(t *testing.T) {
	doc, err := os.ReadFile("../../docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range declaredSeries(t) {
		if !bytes.Contains(doc, []byte("`"+s.name+"`")) {
			t.Errorf("docs/OBSERVABILITY.md does not list %s (%s, JSON %s)", s.name, s.kind, s.json)
		}
	}
}

// TestMetricsCountEveryCycleRunsReport: whichever way a run reaches a
// session — /run cut into slices, two runs in one batch, an async job —
// every cycle it reports is in engine.cycles and in each phase histogram,
// once. (No engine or session keeps a record of a cycle to get this wrong
// from; TestSoakMemoryIndependentOfCycles holds them to that.)
func TestMetricsCountEveryCycleRunsReport(t *testing.T) {
	_, ts := newTestServer(t, Config{RunSlice: 300})
	info := createSession(t, ts.URL, createSessionRequest{Source: boundedSrc})
	sessURL := ts.URL + "/api/v1/sessions/" + info.ID
	// boundedSrc counts a counter fact up to its bound; a fresh one re-arms it.
	const rearm = `{"op":"assert","facts":[{"template":"counter","fields":{"n":0}}]}`
	total := 0
	for round, drive := range []func() int{
		func() int {
			var run runResponse
			if st := call(t, "POST", sessURL+"/run", runRequest{}, &run); st != http.StatusOK {
				t.Fatalf("run: status %d", st)
			}
			return run.Cycles
		},
		func() int {
			var resp batchResponse
			body := json.RawMessage(`{"ops":[` + rearm + `,{"op":"run"},` + rearm + `,{"op":"run"}]}`)
			if st := call(t, "POST", sessURL+"/batch", body, &resp); st != http.StatusOK || resp.Applied != 4 {
				t.Fatalf("batch: status %d, %+v", st, resp)
			}
			return resp.Results[1].Run.Cycles + resp.Results[3].Run.Cycles
		},
		func() int {
			body := json.RawMessage(`{"ops":[` + rearm + `]}`)
			if st := call(t, "POST", sessURL+"/batch", body, nil); st != http.StatusOK {
				t.Fatalf("re-arm: status %d", st)
			}
			var job jobInfo
			if st := call(t, "POST", sessURL+"/run?async=1", runRequest{}, &job); st != http.StatusAccepted {
				t.Fatalf("async run: status %d", st)
			}
			for deadline := time.Now().Add(10 * time.Second); job.Result == nil; time.Sleep(5 * time.Millisecond) {
				if st := call(t, "GET", sessURL+"/jobs/"+job.ID, nil, &job); st != http.StatusOK || time.Now().After(deadline) {
					t.Fatalf("job poll: status %d, %+v", st, job)
				}
			}
			return job.Result.Cycles
		},
	} {
		cycles := drive()
		if cycles == 0 {
			t.Fatalf("round %d ran no cycles", round)
		}
		total += cycles
	}
	var m metricsPayload
	if st := call(t, "GET", ts.URL+"/metrics", nil, &m); st != http.StatusOK {
		t.Fatalf("/metrics: status %d", st)
	}
	if m.Engine.Cycles != uint64(total) {
		t.Errorf("engine.cycles = %d, runs reported %d", m.Engine.Cycles, total)
	}
	for _, name := range phaseNames {
		if hc := m.Engine.Phases[name].HistCount; hc != uint64(total) {
			t.Errorf("phase %s hist_count = %d, runs reported %d", name, hc, total)
		}
	}
}

// TestMetricsWindowKeepsNewest: engine.window summarizes the newest
// metricsWindow cycles, however they were batched, and engine.* all of them.
func TestMetricsWindowKeepsNewest(t *testing.T) {
	c := newCollector()
	old := make([]stats.Cycle, 1000)
	for i := range old {
		old[i] = stats.Cycle{ConflictSize: 99, Fired: 1}
	}
	c.observe(old)
	if w := c.snapshot().Engine.Window; w.Cycles != len(old) || w.MaxConflict != 99 {
		t.Fatalf("window before it fills: %+v", w)
	}
	for _, n := range []int{metricsWindow - 500, 1, 499} {
		c.observe(make([]stats.Cycle, n))
	}
	p := c.snapshot()
	if w := p.Engine.Window; w.Cycles != metricsWindow || w.MaxConflict != 0 || w.Fired != 0 {
		t.Errorf("window holds %d cycles, max conflict %d, fired %d; want the newest %d, all zero", w.Cycles, w.MaxConflict, w.Fired, metricsWindow)
	}
	if p.Engine.Cycles != uint64(metricsWindow+len(old)) || p.Engine.MaxConflictSize != 99 {
		t.Errorf("engine.cycles = %d, max_conflict_size = %d", p.Engine.Cycles, p.Engine.MaxConflictSize)
	}
}
