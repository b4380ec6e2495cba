package server

// Tests for the fact path as a whole — body → scan → stage → insert →
// log append, and log → scan → replay: the differential fuzz target that
// pins the scanner's grammar to the reflective decoder's, the allocation
// budget that keeps maps and reflection from coming back, the
// micro-benchmark, and the /wm appender's JSON equality with the old
// response.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"parulel/internal/compile"
	"parulel/internal/programs"
	"parulel/internal/wal"
	"parulel/internal/wm"
	"parulel/internal/workload"
)

// ---- differential fuzz: scanner against the reflective decoder ----

// normFact and normOp are what both decoders' results are reduced to for
// comparison: fields name-sorted, floats by bit pattern.
type normField struct {
	Name string
	Kind wm.Kind
	I    int64
	F    uint64
	S    string
}

type normFact struct {
	Template string
	Fields   []normField
	TTL      int64
}

type normOp struct {
	Kind      string
	Facts     []normFact
	Template  string
	Fields    []normField
	TimeoutMS int64
	Ticks     int64
	HasTicks  bool
	Run       bool
}

func normFields(fs wal.Fields) []normField {
	var out []normField
	for _, f := range fs {
		out = append(out, normField{f.Name, f.Value.Kind, f.Value.I, math.Float64bits(f.Value.F), f.Value.S})
	}
	return out
}

func oracleFields(m map[string]jsonValue) []normField {
	var run []wal.Field
	for k, v := range toFields(m) {
		run = append(run, wal.Field{Name: k, Value: v})
	}
	return normFields(wal.Canonical(run))
}

func oracleFacts(in []factPayload) []normFact {
	var out []normFact
	for _, f := range in {
		out = append(out, normFact{f.Template, oracleFields(f.Fields), f.TTL})
	}
	return out
}

func scannedFacts(in []wal.Fact) []normFact {
	var out []normFact
	for _, f := range in {
		out = append(out, normFact{f.Template, normFields(f.Fields), f.TTL})
	}
	return out
}

// oracleDecode is readJSON as the handlers ran it through PR 17 — a
// json.Decoder that rejects unknown fields, reads one value and takes an
// empty body for an empty request — over the four request shapes. (The
// stream handler's decoder did not reject unknown fields; that it does
// now is this PR's second behaviour change.)
func oracleDecode(shape string, data []byte) ([]normOp, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	decode := func(v any) error {
		if err := dec.Decode(v); err != nil && !errors.Is(err, io.EOF) {
			return err
		}
		return nil
	}
	switch shape {
	case "assert":
		var req assertRequest
		err := decode(&req)
		return []normOp{{Facts: oracleFacts(req.Facts)}}, err
	case "retract":
		var req retractRequest
		err := decode(&req)
		return []normOp{{Template: req.Template, Fields: oracleFields(req.Fields)}}, err
	case "batch":
		var req batchRequest
		err := decode(&req)
		var ops []normOp
		for _, op := range req.Ops {
			ops = append(ops, normOp{
				Kind: op.Op, Facts: oracleFacts(op.Facts), Template: op.Template, Fields: oracleFields(op.Fields),
				TimeoutMS: op.TimeoutMS, Ticks: op.Ticks, HasTicks: true,
			})
		}
		return ops, err
	default:
		var f streamFrame
		err := decode(&f)
		op := normOp{Facts: oracleFacts(f.Facts), Run: f.Run, TimeoutMS: f.TimeoutMS}
		if f.Ticks != nil {
			op.Ticks, op.HasTicks = *f.Ticks, true
		}
		return []normOp{op}, err
	}
}

func scanDecode(shape string, data []byte) ([]normOp, error) {
	sc := new(factScanner)
	sc.reset(data)
	var err error
	switch shape {
	case "assert":
		_, err = sc.scanOne(assertKeys)
	case "retract":
		_, err = sc.scanOne(retractKeys)
	case "batch":
		err = sc.scanBatch()
	default:
		_, err = sc.scanOne(frameKeys)
	}
	var ops []normOp
	for _, op := range sc.ops {
		n := normOp{
			Kind: op.kind, Facts: scannedFacts(op.facts), Template: op.template, Fields: normFields(op.fields),
			TimeoutMS: op.timeoutMS, Ticks: op.ticks, HasTicks: op.hasTicks, Run: op.run,
		}
		// What the handlers read: a batch op's ticks whatever hasTicks
		// says, a frame's only when it was given.
		if shape == "batch" {
			n.HasTicks = true
		} else if !n.HasTicks {
			n.Ticks = 0
		}
		ops = append(ops, n)
	}
	return ops, err
}

// repeatsContainerKey reports whether some object in the first JSON value
// of data gives "facts", "ops" or "fields" twice. The scanner's rule is
// the documented one — a repeated key takes its last value — where the
// reflective decoder, decoding the second list into the first's backing
// array and the second object into the first's map, merged them element
// by element: an accident of slice and map reuse nobody documented or
// sends. Both accept such a body; only what they make of it differs.
func repeatsContainerKey(data []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(data))
	var walk func() bool
	walk = func() bool {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		switch tok {
		case json.Delim('{'):
			seen := map[string]bool{}
			repeated := false
			for dec.More() {
				k, err := dec.Token()
				if err != nil {
					return repeated
				}
				key := strings.ToLower(strings.ToUpper(k.(string))) // encoding/json's simple folding, near enough
				if key == "facts" || key == "ops" || key == "fields" {
					repeated = repeated || seen[key]
					seen[key] = true
				}
				repeated = walk() || repeated
			}
			dec.Token()
			return repeated
		case json.Delim('['):
			repeated := false
			for dec.More() {
				repeated = walk() || repeated
			}
			dec.Token()
			return repeated
		}
		return false
	}
	return walk()
}

func FuzzFactDecode(f *testing.F) {
	for _, seed := range []string{
		``, ` `, `null`, `nullx`, `nul`, `{}`, `[]`, `7`, `"s"`, `{"facts":[]} trailing garbage`, `{"facts":[]}{`,
		// every value form
		`{"facts":[{"template":"t","fields":{"a":null,"b":1,"c":-2.5,"d":"sym","e":true,"f":false,"g":{"int":3},"h":{"float":4},"i":{"sym":"s"},"j":{"str":"a string"}}}]}`,
		// number grammar
		`{"template":"t","fields":{"a":01}}`, `{"template":"t","fields":{"a":+1}}`, `{"template":"t","fields":{"a":1.}}`,
		`{"template":"t","fields":{"a":-}}`, `{"template":"t","fields":{"a":1e400}}`, `{"template":"t","fields":{"a":-0}}`,
		`{"template":"t","fields":{"a":-0.0}}`, `{"template":"t","fields":{"a":1E+2}}`, `{"template":"t","fields":{"a":1e-400}}`,
		`{"template":"t","fields":{"a":9223372036854775807,"b":9223372036854775808,"c":-9223372036854775808}}`,
		`{"template":"t","fields":{"a":{"int":1.0}}}`, `{"template":"t","fields":{"a":{"int":"5"}}}`,
		`{"template":"t","fields":{"a":{"int":null},"b":{"float":null},"c":{"sym":null},"d":{"str":null}}}`,
		`{"template":"t","fields":{"a":{"float":1e400}}}`, `{"template":"t","fields":{"a":{"sym":5}}}`,
		// typed objects: one key exactly, repeated keys, junk before the last
		`{"template":"t","fields":{"a":{}}}`, `{"template":"t","fields":{"a":{"int":1,"float":2}}}`,
		`{"template":"t","fields":{"a":{"int":1,"int":2}}}`, `{"template":"t","fields":{"a":{"int":[1,{"x":null}],"int":2}}}`,
		`{"template":"t","fields":{"a":{"bogus":1}}}`, `{"template":"t","fields":{"a":{"INT":1}}}`,
		// nesting where a value is expected
		`{"template":"t","fields":{"a":[1]}}`, `{"template":"t","fields":{"a":{"int":{"int":1}}}}`,
		// key order, duplicates, nulls, case folding
		`{"facts":[{"fields":{"b":1,"a":2},"template":"t"}]}`, `{"facts":[{"template":"a","template":"b","ttl":1,"ttl":2}]}`,
		`{"facts":[{"template":"a","template":null,"ttl":3,"ttl":null,"time":12}]}`, `{"facts":[{"template":"t","fields":{"x":1,"x":2,"a":null}}]}`,
		`{"facts":[{"template":"t","fields":{"x":1}},null]}`, `{"facts":null}`, `{"FACTS":[{"Template":"t","FIELDS":{"X":1},"Ttl":4}]}`,
		"{\"fact\u017f\":[]}", "{\"ops\":[{\"op\":\"tick\",\"tic\u212as\":2}]}", `{"facts":[{"template":"t","bogus":1}]}`, `{"fact":[]}`,
		`{"facts":[{"template":"t","ttl":1.0}]}`, `{"facts":[{"template":"t","ttl":"1"}]}`, `{"facts":[{"template":7}]}`,
		`{"facts":[{"template":"t","fields":{"x":1}}],"facts":[{"template":"u"}]}`, `{"facts":{}}`, `{"facts":[7]}`,
		// strings
		`{"template":"\u0041\ud83d\ude00\ud83d\\n\/","fields":{"\u00e9":"\ud800"}}`, "{\"template\":\"\xff\xfe\xc3\"}", "{\"template\":\"a\x01b\"}",
		`{"template":"a\qb"}`, `{"template":"unterminated`,
		// the other shapes
		`{"template":"t","fields":null}`, `{"template":null}`,
		`{"ops":[{"op":"assert","facts":[{"template":"t","fields":{"a":1},"ttl":2}]},{"op":"retract","template":"t","fields":{"a":1}},{"op":"run","timeout_ms":5},{"op":"tick","ticks":3},null]}`,
		`{"ops":[{"op":"tick","ticks":5,"ticks":null}]}`, `{"ops":null}`, `{"ops":[{"run":true}]}`, `{"ops":[{"op":"x"}],"ops":[]}`,
		`{"facts":[{"template":"t"}],"ticks":0,"run":true,"timeout_ms":9}`, `{"ticks":2,"ticks":null}`, `{"run":1}`, `{"run":null}`, `{"ticks":-1}`,
		`{"facts" : [ { "template" : "t" , "fields" : { "a" : 1 } } ] , "ticks" : 1 }`, "{\n\"facts\":\n[\n]\n}",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, shape := range []string{"assert", "retract", "batch", "frame"} {
			want, wantErr := oracleDecode(shape, data)
			got, gotErr := scanDecode(shape, data)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("%s %q: reflective decoder: %v; scanner: %v", shape, data, wantErr, gotErr)
			}
			if wantErr != nil || repeatsContainerKey(data) {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %q:\nscanner %+v\n oracle %+v", shape, data, got, want)
			}
		}
	})
}

func TestJSONValueRoundTrip(t *testing.T) {
	decode := func(text []byte) (wm.Value, error) {
		var sc factScanner
		sc.reset(text)
		var v wm.Value
		err := sc.value(&v)
		return v, err
	}
	vals := []wm.Value{
		wm.Nil(), wm.Int(42), wm.Int(-1), wm.Float(2.5), wm.Float(3),
		wm.Sym("hello"), wm.Str("a string"), wm.Bool(true), wm.Sym("a<b>&\"c\"\n"),
	}
	for _, v := range vals {
		b := appendWireValue(nil, v)
		if old, err := json.Marshal(jsonValue{v}); err != nil || !bytes.Equal(b, old) {
			t.Errorf("appendWireValue(%v) = %s, the reflective codec wrote %s (%v)", v, b, old, err)
		}
		back, err := decode(b)
		if err != nil {
			t.Fatalf("scan %s: %v", b, err)
		}
		if !back.Equal(v) {
			t.Errorf("round trip %v -> %s -> %v", v, b, back)
		}
	}
	// Typed input forms.
	if v, err := decode([]byte(`{"float": 2}`)); err != nil || v != wm.Float(2) {
		t.Errorf(`{"float": 2} = %v, %v`, v, err)
	}
	if v, err := decode([]byte(`{"str": "s"}`)); err != nil || v != wm.Str("s") {
		t.Errorf(`{"str": "s"} = %v, %v`, v, err)
	}
	if _, err := decode([]byte(`{"bogus": 1}`)); err == nil {
		t.Error("unknown typed key should fail")
	}
}

// ---- /wm: the appender's response against the reflective one ----

func TestWMResponseJSONEqual(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	info := createSession(t, ts.URL, createSessionRequest{Source: "(literalize t zeta alpha mid s)\n(literalize u only)"})
	url := ts.URL + "/api/v1/sessions/" + info.ID
	body := `{"facts":[
		{"template":"t","fields":{"zeta":1,"alpha":2.5,"mid":"sym<&>\u2028","s":{"str":"two\nlines"}}},
		{"template":"t","fields":{"zeta":{"float":3},"alpha":null,"mid":true}},
		{"template":"t","fields":{"alpha":-0.0,"zeta":1e21,"mid":{"float":1e-7}}},
		{"template":"u"},
		{"template":"u","fields":{"only":{"str":""}}}]}`
	if resp := postRaw(t, url+"/facts", body, ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("assert: status %d", resp.StatusCode)
	}
	for _, query := range []string{"", "?template=t", "?limit=2", "?template=u&limit=1"} {
		status, hdr, got := fetch(t, url+"/wm"+query)
		if status != http.StatusOK || hdr.Get("Content-Type") != "application/json" {
			t.Fatalf("wm%s: status %d, content type %q", query, status, hdr.Get("Content-Type"))
		}
		// What handleWM answered through PR 17: encodeFact per WME, reflected
		// and indented by writeJSON.
		s.mu.Lock()
		mem := s.sessions[info.ID].eng.Memory()
		s.mu.Unlock()
		wmes := mem.Snapshot()
		if strings.Contains(query, "template=t") {
			wmes = mem.OfTemplate("t")
		} else if strings.Contains(query, "template=u") {
			wmes = mem.OfTemplate("u")
		}
		total := len(wmes)
		if strings.Contains(query, "limit=2") {
			wmes = wmes[:2]
		} else if strings.Contains(query, "limit=1") {
			wmes = wmes[:1]
		}
		facts := make([]factPayload, len(wmes))
		for i, el := range wmes {
			facts[i] = encodeFact(el)
		}
		old, err := json.MarshalIndent(map[string]any{"total": total, "facts": facts}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		var gotV, oldV any
		if err := json.Unmarshal([]byte(got), &gotV); err != nil {
			t.Fatalf("wm%s answered invalid JSON: %v\n%s", query, err, got)
		}
		if err := json.Unmarshal(old, &oldV); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotV, oldV) {
			t.Fatalf("wm%s is not JSON-equal to the reflective response\n got %s\nwant %s", query, got, old)
		}
	}
}

// ---- allocation budget ----

// collectFacts gathers what a workload generator inserts as request facts.
type collectFacts struct{ facts []factPayload }

func (c *collectFacts) Insert(template string, fields map[string]wm.Value) (*wm.WME, error) {
	f := factPayload{Template: template, Fields: map[string]jsonValue{}}
	for k, v := range fields {
		if !v.IsNil() { // as the benchmark's clients send them
			f.Fields[k] = jsonValue{v}
		}
	}
	c.facts = append(c.facts, f)
	return nil, nil
}

// waltzFacts returns n Waltz scene facts (junctions, edges — ints and
// symbols, three to seven fields), the shape of waltz_run's batches.
func waltzFacts(t testing.TB, n int) []factPayload {
	t.Helper()
	var c collectFacts
	if err := workload.WaltzScene(&c, n/16+1); err != nil {
		t.Fatal(err)
	}
	return c.facts[:n]
}

func batchBody(t testing.TB, facts []factPayload) []byte {
	t.Helper()
	body, err := json.Marshal(batchRequest{Ops: []batchOp{{Op: "assert", Facts: facts}}})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// serve runs one request through the whole handler stack without a socket.
func serve(t testing.TB, s *Server, method, path string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	if rec.Code/100 != 2 {
		t.Fatalf("%s %s: status %d: %s", method, path, rec.Code, rec.Body.String())
	}
	return rec
}

func newDurableServer(t testing.TB) *Server {
	t.Helper()
	s, err := New(Config{DataDir: t.TempDir(), Fsync: wal.PolicyNever, CheckpointEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { closeQuietly(s) })
	return s
}

func createVia(t testing.TB, s *Server, req createSessionRequest) string {
	t.Helper()
	body, _ := json.Marshal(req)
	var info sessionInfo
	if err := json.Unmarshal(serve(t, s, "POST", "/api/v1/sessions", body).Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	return info.ID
}

// measure reports the allocations and bytes of fn, averaged over runs
// calls after one warm-up call. setup, when not nil, runs before each call
// and is not counted. It runs on one P: the fact path draws its buffers
// from sync.Pools, which keep them per P, and a call that moved to a P
// whose pool is empty would make again buffers another P holds.
func measure(runs int, setup, fn func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if setup != nil {
		setup()
	}
	fn()
	var m0, m1 runtime.MemStats
	var mallocs, total uint64
	for i := 0; i < runs; i++ {
		if setup != nil {
			setup()
		}
		runtime.ReadMemStats(&m0)
		fn()
		runtime.ReadMemStats(&m1)
		mallocs += m1.Mallocs - m0.Mallocs
		total += m1.TotalAlloc - m0.TotalAlloc
	}
	return float64(mallocs) / float64(runs), float64(total) / float64(runs)
}

// mapAllocSites runs fn with every allocation profiled and returns the
// functions of the codec's own packages (and of the reflective machinery
// it replaced) that allocated map storage while it ran, with a count
// each. The engine's working memory is maps by design and is not the
// codec's business; neither are net/http's headers.
func mapAllocSites(t *testing.T, fn func()) map[string]int {
	t.Helper()
	old := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	defer func() { runtime.MemProfileRate = old }()
	before := mapAllocCounts()
	fn()
	sites := mapAllocCounts()
	for fn, n := range before {
		if sites[fn] -= n; sites[fn] == 0 {
			delete(sites, fn)
		}
	}
	return sites
}

// mapAllocCounts reads the process's allocation profile: map storage
// allocated so far, by the watched function that owns the map.
func mapAllocCounts() map[string]int {
	runtime.GC() // a profile lags by up to two collections
	runtime.GC()
	recs := make([]runtime.MemProfileRecord, 1<<14)
	for {
		n, ok := runtime.MemProfile(recs, true)
		if ok {
			recs = recs[:n]
			break
		}
		recs = make([]runtime.MemProfileRecord, 2*n)
	}
	isMapFn := func(fn string) bool {
		for _, p := range []string{"runtime.makemap", "runtime.mapassign", "runtime.hashGrow", "runtime.makeBucketArray",
			"internal/runtime/maps.", "reflect.MakeMap", "reflect.mapassign", "reflect.makemap"} {
			if strings.HasPrefix(fn, p) {
				return true
			}
		}
		return false
	}
	watched := func(fn string) bool {
		for _, p := range []string{"parulel/internal/server.", "parulel/internal/wal.", "parulel/internal/jsonlex.", "encoding/json.", "reflect."} {
			if strings.HasPrefix(fn, p) {
				return true
			}
		}
		return false
	}
	sites := map[string]int{}
	for _, r := range recs {
		frames := runtime.CallersFrames(r.Stack())
		inMap := false
		for {
			fr, more := frames.Next()
			if isMapFn(fr.Function) {
				inMap = true
			} else if inMap {
				// The first frame above the runtime's map code owns the map.
				if watched(fr.Function) {
					sites[fr.Function] += int(r.AllocObjects)
				}
				break
			}
			if !more {
				break
			}
		}
	}
	return sites
}

var mapCanary map[string]int

// TestFactPathAllocationBudget bounds what a fact costs on the way in —
// scan, stage, insert, log append — and on the way back — log scan,
// replay: a few allocations and under a kilobyte each (the reflective
// path spent 34 allocations and 3.1 KB per fact on the same batch),
// linear in the number of facts, and no map allocated by the codec.
func TestFactPathAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops a quarter of what it is given back; the budget is for a warm pool")
	}
	// Ceilings per fact, with room over what is measured (about 2.1
	// allocations and 0.26 KB in; 2.1 and 0.77 KB back, where a fresh
	// working memory's own maps grow from nothing) but far under the cost
	// of a map or a reflective decode per fact.
	const (
		maxAllocsPerFact    = 4.5
		maxBytesPerFact     = 700
		maxBytesPerFactBack = 1200
	)
	s := newDurableServer(t)
	id := createVia(t, s, createSessionRequest{Program: programs.Waltz})
	path := "/api/v1/sessions/" + id + "/batch"
	// Every measured request meets the same working memory: the facts
	// before it are retracted and the session run, outside the count. A
	// working memory that grew across requests would put its maps' growth
	// inside some measured windows and not others, and past a thousand
	// entries where a map grows depends on its random hash seed.
	settle := func() {
		for _, tmpl := range []string{"junction", "edge"} {
			serve(t, s, "POST", "/api/v1/sessions/"+id+"/retract", []byte(`{"template":"`+tmpl+`"}`))
		}
		serve(t, s, "POST", "/api/v1/sessions/"+id+"/run", nil)
	}

	perFact := map[int][2]float64{}
	for _, n := range []int{64, 128, 256} {
		body := batchBody(t, waltzFacts(t, n))
		allocs, bytes := measure(8, settle, func() { serve(t, s, "POST", path, body) })
		perFact[n] = [2]float64{allocs, bytes}
		t.Logf("%3d-fact batch: %.0f allocations, %.0f bytes a request", n, allocs, bytes)
	}
	// The request's own fixed cost (recorder, spans, response) cancels out
	// of the differences; what is left is the cost of a fact.
	for _, pair := range [][2]int{{64, 128}, {128, 256}, {64, 256}} {
		lo, hi := perFact[pair[0]], perFact[pair[1]]
		df := float64(pair[1] - pair[0])
		allocs, bytes := (hi[0]-lo[0])/df, (hi[1]-lo[1])/df
		t.Logf("facts %d→%d: %.2f allocations, %.0f bytes a fact", pair[0], pair[1], allocs, bytes)
		if allocs > maxAllocsPerFact || bytes > maxBytesPerFact {
			t.Errorf("facts %d→%d: %.2f allocations and %.0f bytes a fact, budget %.1f and %d",
				pair[0], pair[1], allocs, bytes, maxAllocsPerFact, maxBytesPerFact)
		}
	}
	// Linear: the second doubling costs what the first did, per fact.
	first := (perFact[128][0] - perFact[64][0]) / 64
	second := (perFact[256][0] - perFact[128][0]) / 128
	if second > 1.25*first+0.5 {
		t.Errorf("allocations a fact grow with the batch: %.2f from 64 to 128, %.2f from 128 to 256", first, second)
	}

	// The same facts back out of the log: scan the session's file, replay
	// it into a fresh session.
	walPath := filepath.Join(s.cfg.DataDir, "sessions", id, walFile)
	res, err := wal.ScanFile(walPath)
	if err != nil || len(res.Records) < 2 {
		t.Fatalf("scanning the session's log: %d records, %v", len(res.Records), err)
	}
	facts := 0
	for _, rec := range res.Records {
		for _, op := range rec.Ops {
			facts += len(op.Facts)
		}
	}
	prog, err := compile.CompileSource(res.Records[0].Source)
	if err != nil {
		t.Fatal(err)
	}
	scanReplay := func() {
		sess := s.newSession("r", &wal.Record{Program: "waltz"}, prog, false)
		res, err := wal.ScanFile(walPath)
		if err != nil {
			t.Fatal(err)
		}
		for i := range res.Records {
			if err := replay(sess, &res.Records[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	newOnly := func() {
		s.newSession("r", &wal.Record{Program: "waltz"}, prog, false)
	}
	allocs, bytes := measure(4, nil, scanReplay)
	baseAllocs, baseBytes := measure(4, nil, newOnly)
	allocs, bytes = (allocs-baseAllocs)/float64(facts), (bytes-baseBytes)/float64(facts)
	t.Logf("scan → replay of %d facts: %.2f allocations, %.0f bytes a fact", facts, allocs, bytes)
	if allocs > maxAllocsPerFact || bytes > maxBytesPerFactBack {
		t.Errorf("scan → replay: %.2f allocations and %.0f bytes a fact, budget %.1f and %d",
			allocs, bytes, maxAllocsPerFact, maxBytesPerFactBack)
	}

	// No map on either path. The canary shows the profile would see one.
	body := batchBody(t, waltzFacts(t, 256))
	sites := mapAllocSites(t, func() {
		mapCanary = make(map[string]int, 64)
		oracleDecode("batch", body)
		serve(t, s, "POST", path, body)
		scanReplay()
	})
	sawCanary, sawOracle := false, false
	for fn, n := range sites {
		switch {
		case strings.Contains(fn, "TestFactPathAllocationBudget.func"):
			sawCanary = true
		case strings.HasPrefix(fn, "encoding/json.") || strings.HasPrefix(fn, "reflect.") || strings.Contains(fn, "oracle") ||
			strings.Contains(fn, "jsonValue") || strings.Contains(fn, "toFields"):
			sawOracle = true // the reflective decoder run above for contrast
		case n >= 16:
			// 256 facts went in and some four thousand came back: a map a
			// fact would show up in the hundreds.
			t.Errorf("maps allocated on the fact path: %s (%d objects)", fn, n)
		default:
			t.Logf("a map a request, not a fact: %s (%d objects)", fn, n)
		}
	}
	if !sawCanary || !sawOracle {
		t.Fatalf("the allocation profile missed the canary (%v) or the reflective decoder's maps (%v): %v", sawCanary, sawOracle, sites)
	}
}

// ---- micro-benchmark ----

type factShape struct {
	name     string
	program  string
	path     string // endpoint under the session
	facts    int    // per request
	requests int    // per session before it is replaced
	body     func(t testing.TB) []byte
}

func factShapes() []factShape {
	return []factShape{
		{"waltz", programs.Waltz, "/batch", 256, 24, func(t testing.TB) []byte { return batchBody(t, waltzFacts(t, 256)) }},
		{"alexsys", programs.Alexsys, "/batch", 72, 24, func(t testing.TB) []byte {
			var c collectFacts
			if err := workload.Alexsys(&c, 40, 32, 1); err != nil {
				t.Fatal(err)
			}
			return batchBody(t, c.facts)
		}},
		{"ingest", "", "/facts", 2, 200, func(t testing.TB) []byte {
			body, err := json.Marshal(assertRequest{Facts: []factPayload{itemFact("k1"), itemFact("k2")}})
			if err != nil {
				t.Fatal(err)
			}
			return body
		}},
	}
}

// factMeter times and counts only the measured stretches of a benchmark
// whose set-up (a fresh session every so often) repeats inside the loop.
type factMeter struct {
	b      *testing.B
	m0     runtime.MemStats
	allocs uint64
	bytes  uint64
}

func (m *factMeter) start() {
	runtime.ReadMemStats(&m.m0)
	m.b.StartTimer()
}

func (m *factMeter) stop() {
	m.b.StopTimer()
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	m.allocs += m1.Mallocs - m.m0.Mallocs
	m.bytes += m1.TotalAlloc - m.m0.TotalAlloc
}

func (m *factMeter) report(facts int) {
	n := float64(m.b.N * facts)
	m.b.ReportMetric(float64(m.b.Elapsed().Nanoseconds())/n, "ns/fact")
	m.b.ReportMetric(float64(m.bytes)/n, "B/fact")
	m.b.ReportMetric(float64(m.allocs)/n, "allocs/fact")
}

// BenchmarkFactPath measures a fact's cost in (request body → scan →
// stage → insert → log append, through the whole handler, no socket) and
// back (log file → scan → replay into a fresh session), for bodies shaped
// like the repository benchmark's three ingesting workloads.
func BenchmarkFactPath(b *testing.B) {
	for _, shape := range factShapes() {
		b.Run(shape.name+"/in", func(b *testing.B) {
			s := newDurableServer(b)
			body := shape.body(b)
			create := createSessionRequest{Program: shape.program}
			if shape.program == "" {
				create = createSessionRequest{Source: contractSrc}
			}
			m := factMeter{b: b}
			b.StopTimer()
			var path string
			for i := 0; i < b.N; i++ {
				if i%shape.requests == 0 {
					if path != "" {
						m.stop()
						serve(b, s, "DELETE", strings.TrimSuffix(path, shape.path), nil)
					}
					path = "/api/v1/sessions/" + createVia(b, s, create) + shape.path
					m.start()
				}
				serve(b, s, "POST", path, body)
			}
			m.stop()
			m.report(shape.facts)
		})
		b.Run(shape.name+"/back", func(b *testing.B) {
			s := newDurableServer(b)
			body := shape.body(b)
			create := createSessionRequest{Program: shape.program}
			if shape.program == "" {
				create = createSessionRequest{Source: contractSrc}
			}
			id := createVia(b, s, create)
			for i := 0; i < shape.requests; i++ {
				serve(b, s, "POST", "/api/v1/sessions/"+id+shape.path, body)
			}
			walPath := filepath.Join(s.cfg.DataDir, "sessions", id, walFile)
			res, err := wal.ScanFile(walPath)
			if err != nil || len(res.Records) != shape.requests+1 {
				b.Fatalf("the session's log: %d records, %v", len(res.Records), err)
			}
			prog, err := compile.CompileSource(res.Records[0].Source)
			if err != nil {
				b.Fatal(err)
			}
			m := factMeter{b: b}
			b.StopTimer()
			for i := 0; i < b.N; i++ {
				sess := s.newSession("r", &wal.Record{Program: "p"}, prog, false)
				m.start()
				res, err := wal.ScanFile(walPath)
				if err != nil {
					b.Fatal(err)
				}
				for i := range res.Records {
					if err := replay(sess, &res.Records[i]); err != nil {
						b.Fatal(err)
					}
				}
				m.stop()
			}
			m.report(shape.facts * shape.requests)
		})
	}
}

func closeQuietly(s *Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = s.Close(ctx)
}
