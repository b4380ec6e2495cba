package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"time"

	"parulel/internal/compile"
	"parulel/internal/core"
	"parulel/internal/match"
	"parulel/internal/match/rete"
	"parulel/internal/programs"
	"parulel/internal/snapshot"
	"parulel/internal/wm"
)

// An executor applies a step at one depth of the stack: straight to the
// engine, to the server's handler, or over loopback TCP. All depths
// answer in the same shape, so one oracle checks them all and the
// ledger's rungs replay one op list.

type runCounters struct {
	Cycles         int  `json:"cycles"`
	Firings        int  `json:"firings"`
	Redactions     int  `json:"redactions"`
	WriteConflicts int  `json:"write_conflicts"`
	Halted         bool `json:"halted"`
	Quiescent      bool `json:"quiescent"`
	WMSize         int  `json:"wm_size"`
}

type wmFact struct {
	Template string
	Fields   map[string]wm.Value
}

type response struct {
	run    runCounters // stRun
	count  int         // stAssert, stBatch, stRetract: facts touched
	total  int         // stWM
	facts  []wmFact    // stWM, only when the step has a check
	text   []byte      // stSnapshot
	timing string      // Server-Timing header, HTTP depths only
}

type executor interface {
	// do applies one step; its spans hang under parent.
	do(st *step, tr *recorder, parent int32, opID int) (response, error)
}

// ---- engine depth ----

// serverWorkers is the daemon's default worker count (server.Config.
// DefaultWorkers); the engine rung builds engines the way a session does.
const serverWorkers = 4

type engineSession struct {
	eng  *core.Engine
	src  string
	last core.Result
}

// engineStats is the time spent inside each engine entry point, measured
// around the call.
type engineStats struct {
	newWall, insertWall, runWall time.Duration
	news, facts                  int
}

type engineExec struct {
	workers  int
	tracer   *phaseTracer
	sessions []*engineSession
	stats    engineStats
	// profiles and worker busy time of engines already deleted.
	rules     map[string]match.RuleProfile
	matchWork []time.Duration
	// sample is the most recently deleted session, kept so the direct
	// checkpoint and snapshot calls have real state to work on.
	sample *engineSession
}

// resetRunStats zeroes the insert and run clocks where the measured part
// of a replay begins; engine construction is counted from the start,
// because some workloads only construct during set-up.
func (x *engineExec) resetRunStats() {
	x.stats.insertWall, x.stats.runWall, x.stats.facts = 0, 0, 0
}

func newEngineExec(sessions, workers int, tracer *phaseTracer) *engineExec {
	return &engineExec{workers: workers, tracer: tracer, sessions: make([]*engineSession, sessions),
		rules: map[string]match.RuleProfile{}, matchWork: make([]time.Duration, workers)}
}

func newEngine(prog *compile.Program, workers int, tracer core.Tracer, restore bool) *core.Engine {
	return core.New(prog, core.Options{
		Workers:        workers,
		Matcher:        rete.Factory(rete.Options{Profile: true}),
		Output:         io.Discard,
		MaxCycles:      10_000_000,
		Tracer:         tracer,
		NoInitialFacts: restore,
	})
}

func (x *engineExec) do(st *step, tr *recorder, parent int32, opID int) (response, error) {
	var resp response
	if st.kind == stCreate {
		src := st.source
		if src == "" {
			var err error
			if src, err = programs.Source(st.program); err != nil {
				return resp, err
			}
		}
		sp := tr.begin("compile.source", parent, opID)
		prog, err := compile.CompileSource(src)
		tr.end(sp)
		if err != nil {
			return resp, err
		}
		var t core.Tracer
		if x.tracer != nil {
			t = x.tracer
		}
		sp = tr.begin("core.new", parent, opID)
		t0 := time.Now()
		eng := newEngine(prog, x.workers, t, false)
		x.stats.newWall += time.Since(t0)
		tr.end(sp)
		x.stats.news++
		x.sessions[st.sess] = &engineSession{eng: eng, src: src}
		return resp, nil
	}
	s := x.sessions[st.sess]
	if s == nil {
		return resp, fmt.Errorf("engine: no session in slot %d", st.sess)
	}
	switch st.kind {
	case stAssert, stBatch:
		facts := st.payload()
		sp := tr.begin("core.insert", parent, opID)
		t0 := time.Now()
		for _, f := range facts {
			if _, err := s.eng.Insert(f.Template, f.Fields); err != nil {
				tr.end(sp)
				return resp, err
			}
		}
		x.stats.insertWall += time.Since(t0)
		tr.end(sp)
		x.stats.facts += len(facts)
		resp.count = len(facts)
	case stRun:
		sp := tr.begin("core.run", parent, opID)
		t0 := time.Now()
		res, err := s.eng.RunContext(context.Background())
		x.stats.runWall += time.Since(t0)
		tr.end(sp)
		if err != nil {
			return resp, err
		}
		resp.run = runCounters{
			Cycles:         res.Cycles - s.last.Cycles,
			Firings:        res.Firings - s.last.Firings,
			Redactions:     res.Redactions - s.last.Redactions,
			WriteConflicts: res.WriteConflicts - s.last.WriteConflicts,
			Halted:         res.Halted,
			Quiescent:      !res.Halted,
			WMSize:         s.eng.Memory().Len(),
		}
		s.last = res
	case stRetract:
		sp := tr.begin("core.retract", parent, opID)
		n, err := retractMatching(s.eng, st.template, st.fields)
		tr.end(sp)
		if err != nil {
			return resp, err
		}
		resp.count = n
	case stWM:
		sp := tr.begin("wm.read", parent, opID)
		mem := s.eng.Memory()
		els := mem.Snapshot()
		if st.template != "" {
			els = mem.OfTemplate(st.template)
		}
		resp.total = len(els)
		if st.check != ckNone {
			resp.facts = make([]wmFact, len(els))
			for i, el := range els {
				f := wmFact{Template: el.Tmpl.Name, Fields: map[string]wm.Value{}}
				for j, attr := range el.Tmpl.Attrs {
					if !el.Fields[j].IsNil() {
						f.Fields[attr] = el.Fields[j]
					}
				}
				resp.facts[i] = f
			}
		}
		tr.end(sp)
	case stSnapshot:
		sp := tr.begin("snapshot.write", parent, opID)
		var buf bytes.Buffer
		err := snapshot.Write(&buf, s.eng.Memory())
		tr.end(sp)
		if err != nil {
			return resp, err
		}
		resp.text = buf.Bytes()
	case stDelete:
		x.retire(s.eng)
		x.sample = s
		x.sessions[st.sess] = nil
	}
	return resp, nil
}

// retractMatching is the server's retract semantics (every live fact of
// the template whose listed attributes all equal the given values) stated
// over the engine's public API.
func retractMatching(eng *core.Engine, template string, fields map[string]wm.Value) (int, error) {
	mem := eng.Memory()
	tmpl, ok := mem.Schema().Lookup(template)
	if !ok {
		return 0, fmt.Errorf("unknown template %q", template)
	}
	n := 0
	for _, w := range mem.OfTemplate(template) {
		all := true
		for attr, v := range fields {
			i, ok := tmpl.AttrIndex(attr)
			if !ok {
				return 0, fmt.Errorf("template %s has no attribute %q", template, attr)
			}
			if !w.Fields[i].Equal(v) {
				all = false
				break
			}
		}
		if all && eng.Retract(w.Time) {
			n++
		}
	}
	return n, nil
}

// retire folds an engine's always-on counters into the executor's totals.
func (x *engineExec) retire(eng *core.Engine) {
	for _, p := range eng.RuleProfiles() {
		a := x.rules[p.Rule]
		a.Rule = p.Rule
		a.MatchNS += p.MatchNS
		a.Tokens += p.Tokens
		a.Probes += p.Probes
		a.Insts += p.Insts
		a.Fires += p.Fires
		x.rules[p.Rule] = a
	}
	mw, _ := eng.WorkerWork()
	for i, d := range mw {
		if i < len(x.matchWork) {
			x.matchWork[i] += d
		}
	}
}

// finish retires every engine still live and returns a representative
// session: the live one with the largest working memory, else the last
// one deleted.
func (x *engineExec) finish() *engineSession {
	var best *engineSession
	for i, s := range x.sessions {
		if s == nil {
			continue
		}
		x.retire(s.eng)
		if best == nil || s.eng.Memory().Len() > best.eng.Memory().Len() {
			best = s
		}
		x.sessions[i] = nil
	}
	if best == nil {
		best = x.sample
	}
	return best
}

// ---- HTTP depths ----

// transport carries one encoded request to the server and returns the
// raw answer: in process through Server.ServeHTTP, or over loopback TCP.
type transport func(method, path string, body []byte) (status int, hdr http.Header, raw []byte, err error)

func handlerTransport(h http.Handler) transport {
	return func(method, path string, body []byte) (int, http.Header, []byte, error) {
		req := httptest.NewRequest(method, path, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code, rec.Header(), rec.Body.Bytes(), nil
	}
}

func tcpTransport(client *http.Client, base string) transport {
	return func(method, path string, body []byte) (int, http.Header, []byte, error) {
		req, err := http.NewRequest(method, base+path, bytes.NewReader(body))
		if err != nil {
			return 0, nil, nil, err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		res, err := client.Do(req)
		if err != nil {
			return 0, nil, nil, err
		}
		raw, err := io.ReadAll(res.Body)
		res.Body.Close()
		return res.StatusCode, res.Header, raw, err
	}
}

// httpExec speaks the daemon's JSON API. ids maps logical session slots to
// server ids; it is shared by a plan's clients, written only while one
// client runs (set-up, or a single-client workload's own creates).
type httpExec struct {
	name string // span name of the transport hop: "server.handler" or "http.roundtrip"
	send transport
	ids  []string
}

type jsonFact struct {
	Template string         `json:"template"`
	Fields   map[string]any `json:"fields"`
}

func jsonFields(in map[string]wm.Value) map[string]any {
	out := make(map[string]any, len(in))
	for k, v := range in {
		switch v.Kind {
		case wm.KindInt:
			out[k] = v.I
		case wm.KindSym:
			out[k] = v.S
		default:
			panic(fmt.Sprintf("benchmark: workload value %v is neither int nor symbol", v))
		}
	}
	return out
}

func jsonFacts(in []fact) []jsonFact {
	out := make([]jsonFact, len(in))
	for i, f := range in {
		out[i] = jsonFact{Template: f.Template, Fields: jsonFields(f.Fields)}
	}
	return out
}

const runTimeoutMS = 60_000

func (x *httpExec) encode(st *step) (method, path string, body []byte, err error) {
	sess := "/api/v1/sessions"
	if st.kind != stCreate {
		if x.ids[st.sess] == "" {
			return "", "", nil, fmt.Errorf("http: no session in slot %d", st.sess)
		}
		sess += "/" + x.ids[st.sess]
	}
	var payload any
	switch st.kind {
	case stCreate:
		method, path = http.MethodPost, sess
		payload = map[string]any{"program": st.program, "source": st.source}
	case stAssert:
		method, path = http.MethodPost, sess+"/facts"
		payload = map[string]any{"facts": jsonFacts(st.payload())}
	case stBatch:
		method, path = http.MethodPost, sess+"/batch"
		payload = map[string]any{"ops": []map[string]any{{"op": "assert", "facts": jsonFacts(st.payload())}}}
	case stRun:
		method, path = http.MethodPost, sess+"/run"
		payload = map[string]any{"timeout_ms": runTimeoutMS}
	case stRetract:
		method, path = http.MethodPost, sess+"/retract"
		payload = map[string]any{"template": st.template, "fields": jsonFields(st.fields)}
	case stWM:
		method, path = http.MethodGet, sess+"/wm"
		if st.template != "" {
			path += "?template=" + st.template
		}
	case stSnapshot:
		method, path = http.MethodGet, sess+"/snapshot"
	case stDelete:
		method, path = http.MethodDelete, sess
	}
	if payload != nil {
		body, err = json.Marshal(payload)
	}
	return method, path, body, err
}

func decodeValue(raw json.RawMessage) (wm.Value, error) {
	if len(raw) > 0 && raw[0] == '"' {
		var s string
		err := json.Unmarshal(raw, &s)
		return wm.Sym(s), err
	}
	n, err := strconv.ParseInt(string(raw), 10, 64)
	return wm.Int(n), err
}

func (x *httpExec) decode(st *step, raw []byte, resp *response) error {
	switch st.kind {
	case stCreate:
		var v struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(raw, &v); err != nil {
			return err
		}
		if v.ID == "" {
			return fmt.Errorf("create: no session id in %q", raw)
		}
		x.ids[st.sess] = v.ID
	case stAssert, stRetract:
		var v struct {
			Count int `json:"count"`
		}
		if err := json.Unmarshal(raw, &v); err != nil {
			return err
		}
		resp.count = v.Count
	case stBatch:
		var v struct {
			Applied int `json:"applied"`
			Results []struct {
				Count int    `json:"count"`
				Error string `json:"error"`
			} `json:"results"`
		}
		if err := json.Unmarshal(raw, &v); err != nil {
			return err
		}
		if v.Applied != 1 || len(v.Results) != 1 || v.Results[0].Error != "" {
			return fmt.Errorf("batch: not applied: %s", raw)
		}
		resp.count = v.Results[0].Count
	case stRun:
		return json.Unmarshal(raw, &resp.run)
	case stWM:
		var v struct {
			Total int `json:"total"`
			Facts []struct {
				Template string                     `json:"template"`
				Fields   map[string]json.RawMessage `json:"fields"`
			} `json:"facts"`
		}
		if err := json.Unmarshal(raw, &v); err != nil {
			return err
		}
		resp.total = v.Total
		if st.check == ckNone {
			return nil
		}
		resp.facts = make([]wmFact, len(v.Facts))
		for i, f := range v.Facts {
			out := wmFact{Template: f.Template, Fields: make(map[string]wm.Value, len(f.Fields))}
			for k, rv := range f.Fields {
				val, err := decodeValue(rv)
				if err != nil {
					return fmt.Errorf("wm: field %s: %w", k, err)
				}
				out.Fields[k] = val
			}
			resp.facts[i] = out
		}
	case stSnapshot:
		resp.text = raw
	case stDelete:
		x.ids[st.sess] = ""
	}
	return nil
}

func (x *httpExec) do(st *step, tr *recorder, parent int32, opID int) (response, error) {
	var resp response
	sp := tr.begin("client.encode", parent, opID)
	method, path, body, err := x.encode(st)
	tr.end(sp)
	if err != nil {
		return resp, err
	}
	sp = tr.begin(x.name, parent, opID)
	status, hdr, raw, err := x.send(method, path, body)
	tr.end(sp)
	if err != nil {
		return resp, err
	}
	if status < 200 || status > 299 {
		return resp, fmt.Errorf("%s %s: HTTP %d: %s", method, path, status, strings.TrimSpace(string(raw)))
	}
	resp.timing = hdr.Get("Server-Timing")
	sp = tr.begin("client.decode", parent, opID)
	err = x.decode(st, raw, &resp)
	tr.end(sp)
	return resp, err
}
