package main

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"parulel/internal/server"
	"parulel/internal/wal"
)

// ---- the server under test ----

// depth selects how much of the stack a server environment includes.
type depth struct {
	dataDir bool // durable sessions under a data directory
	merkle  bool // Merkle ledger on (the daemon's default with a data directory)
	tcp     bool // real loopback listener; otherwise Server.ServeHTTP is called directly
}

// e2eDepth is the daemon's durable default configuration over loopback.
var e2eDepth = depth{dataDir: true, merkle: true, tcp: true}

// serverConfig is the daemon's defaults (fsync=interval, CheckpointEvery
// 256, 64 session slots, 4 workers) with durability switched per depth.
//
// A memory-only server cannot evict without losing state, so that depth
// alone gets a pool that holds every session of the plan: on
// session_churn the in-memory rung is the cost with nothing evicted, and
// eviction and rehydration land in the WAL rung's share, which is the
// layer that makes them possible.
func serverConfig(d depth, dataDir string, sessions int) server.Config {
	cfg := server.Config{}
	if d.dataDir {
		cfg.DataDir = dataDir
		cfg.Fsync = wal.PolicyInterval
		cfg.DisableMerkle = !d.merkle
	} else if sessions >= 64 {
		cfg.MaxSessions = sessions + 1
	}
	return cfg
}

// env is one started server plus what it takes to stop it.
type env struct {
	d    depth
	dir  string
	srv  *server.Server
	hs   *http.Server
	done chan struct{}
	base string
	ids  []string // logical slot -> server session id, shared by the env's executors
}

// startEnv starts a server at the given depth on dir (created if absent;
// an existing data directory is reopened, which is how rehydration is
// measured).
func startEnv(d depth, dir string, sessions int) (*env, error) {
	if d.dataDir {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	srv, err := server.New(serverConfig(d, dir, sessions))
	if err != nil {
		return nil, err
	}
	e := &env{d: d, dir: dir, srv: srv, ids: make([]string, sessions)}
	if d.tcp {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			_ = srv.Close(context.Background())
			return nil, err
		}
		e.base = "http://" + ln.Addr().String()
		e.hs = &http.Server{Handler: srv}
		e.done = make(chan struct{})
		go func() {
			defer close(e.done)
			_ = e.hs.Serve(ln) // returns ErrServerClosed on shutdown
		}()
	}
	return e, nil
}

// executor returns a client of this env. Each TCP client owns one
// connection, so a plan never opens more connections than it has clients.
func (e *env) executor() *httpExec {
	if !e.d.tcp {
		return &httpExec{name: "server.handler", send: handlerTransport(e.srv), ids: e.ids}
	}
	tr := &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
	client := &http.Client{Transport: tr, Timeout: 2 * time.Minute}
	return &httpExec{name: "http.roundtrip", send: tcpTransport(client, e.base), ids: e.ids}
}

// stop shuts the listener and drains the server; the data directory is
// left for the caller.
func (e *env) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var err error
	if e.hs != nil {
		err = e.hs.Shutdown(ctx)
		<-e.done
	}
	return errors.Join(err, e.srv.Close(ctx))
}

// ---- accounting ----

// acct accumulates wall, CPU and allocation over the windows in which
// timed work runs.
type acct struct {
	wall  time.Duration
	cpu   time.Duration
	alloc uint64

	t0     time.Time
	cpu0   time.Duration
	alloc0 uint64
	sample [1]metrics.Sample
}

func newAcct() *acct {
	a := &acct{}
	a.sample[0].Name = "/gc/heap/allocs:bytes"
	return a
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func (a *acct) allocBytes() uint64 {
	metrics.Read(a.sample[:])
	return a.sample[0].Value.Uint64()
}

func (a *acct) start() {
	a.alloc0 = a.allocBytes()
	a.cpu0 = cpuTime()
	a.t0 = time.Now()
}

func (a *acct) stop() {
	a.wall += time.Since(a.t0)
	a.cpu += cpuTime() - a.cpu0
	a.alloc += a.allocBytes() - a.alloc0
}

// ---- running a plan ----

type opResult struct {
	lat time.Duration
	ok  bool
}

// runOp applies one op's steps through x, checking each response. It
// returns the time the timed steps took. With a single client, win (when
// non-nil) is opened around the timed steps only, so the untimed checking
// steps between them are not billed to the program.
func runOp(x executor, o *op, orc *oracle, tr *recorder, win *acct) (time.Duration, error) {
	var lat time.Duration
	var firstErr error
	for i := range o.steps {
		if st := &o.steps[i]; st.gen != nil {
			st.facts = st.gen()
			defer func() { st.facts = nil }()
		}
	}
	opSpan := tr.begin("op."+o.kind, -1, o.id)
	open := false
	for i := range o.steps {
		st := &o.steps[i]
		if win != nil && st.timed != open {
			if st.timed {
				win.start()
			} else {
				win.stop()
			}
			open = st.timed
		}
		// Only timed steps are traced: the untimed ones are the harness
		// checking, not the op.
		var (
			sp  int32 = -1
			str *recorder
		)
		if st.timed {
			str = tr
			sp = str.begin("req."+st.kind.String(), opSpan, o.id)
		}
		t0 := time.Now()
		resp, err := x.do(st, str, sp, o.id)
		d := time.Since(t0)
		if st.timed {
			str.end(sp)
			lat += d
		}
		if err == nil {
			err = orc.observe(st, &resp)
		} else {
			orc.note(err)
		}
		if err != nil && firstErr == nil {
			firstErr = err
			if st.kind == stCreate {
				break // nothing to apply the rest to
			}
		}
	}
	if open {
		win.stop()
	}
	tr.end(opSpan)
	return lat, firstErr
}

// segment is one of the equal parts of the op list.
type segment struct {
	acct    *acct
	results []opResult
}

// measured is what one end-to-end run of a plan produced.
type measured struct {
	segments []segment
	golden   golden
	failures []string
	setups   []float64 // seconds, one per set-up
	probes   []float64 // host probe samples in ms, one at each slice boundary
}

// hostSpeed is how fast the host ran during the run, as a multiple of the
// reference state.
func (m *measured) hostSpeed() float64 { return probeReferenceMS / median(m.probes) }

// setUp makes the data directory, starts the daemon configuration,
// creates the plan's sessions and runs the warm-up ops.
func setUp(p *plan, dir string, orc *oracle) (*env, []*httpExec, error) {
	e, err := startEnv(e2eDepth, dir, p.sessions)
	if err != nil {
		return nil, nil, err
	}
	execs := make([]*httpExec, p.clients)
	for c := range execs {
		execs[c] = e.executor()
	}
	if err := warmUp(execs[0], p.setup, p.warm, orc); err != nil {
		_ = e.stop()
		return nil, nil, err
	}
	return e, execs, nil
}

// warmUp applies a plan's set-up steps and then warm-up ops through x,
// serially and untimed, checking each response.
func warmUp(x executor, setup []step, warm []op, orc *oracle) error {
	for i := range setup {
		resp, err := x.do(&setup[i], nil, -1, -1)
		if err == nil {
			err = orc.observe(&setup[i], &resp)
		}
		if err != nil {
			return fmt.Errorf("set-up step %d: %w", i, err)
		}
	}
	for i := range warm {
		if _, err := runOp(x, &warm[i], orc, nil, nil); err != nil {
			return fmt.Errorf("warm-up op %d: %w", i, err)
		}
	}
	return nil
}

// runSlice has every client run its part of one slice, and returns the
// results client by client.
func runSlice(parts [][]op, execs []*httpExec, orc *oracle, win *acct) []opResult {
	if len(parts) == 1 {
		res := make([]opResult, 0, len(parts[0]))
		for i := range parts[0] {
			lat, err := runOp(execs[0], &parts[0][i], orc, nil, win)
			res = append(res, opResult{lat, err == nil})
		}
		return res
	}
	// Several clients: every step is timed, so the window is the whole
	// slice and clients meet at its boundaries.
	perClient := make([][]opResult, len(parts))
	var wg sync.WaitGroup
	win.start()
	for c := range parts {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			res := make([]opResult, 0, len(parts[c]))
			for i := range parts[c] {
				lat, err := runOp(execs[c], &parts[c][i], orc, nil, nil)
				res = append(res, opResult{lat, err == nil})
			}
			perClient[c] = res
		}(c)
	}
	wg.Wait()
	win.stop()
	var all []opResult
	for _, res := range perClient {
		all = append(all, res...)
	}
	return all
}

// runEndToEnd measures a plan against the daemon configuration. genPlan
// regenerates the plan, because set-up (input generation included) is
// timed several times and its median reported.
func runEndToEnd(genPlan func() *plan, root string) (*measured, *plan, error) {
	m := &measured{}
	var (
		p     *plan
		e     *env
		execs []*httpExec
		orc   *oracle
	)
	for i := 0; i < setUps; i++ {
		if e != nil {
			if err := e.stop(); err != nil {
				return nil, nil, err
			}
			if err := os.RemoveAll(e.dir); err != nil {
				return nil, nil, err
			}
		}
		t0 := time.Now()
		p = genPlan()
		orc = newOracle(p)
		var err error
		e, execs, err = setUp(p, filepath.Join(root, fmt.Sprintf("data-%d", i)), orc)
		if err != nil {
			return nil, nil, err
		}
		m.setups = append(m.setups, time.Since(t0).Seconds())
	}
	// The host is sampled at every slice boundary, with the clients idle; the
	// median sample is the run's host speed.
	probe := newHostProbe(nproc())
	m.segments = make([]segment, segments)
	for s := range m.segments {
		seg := &m.segments[s]
		seg.acct = newAcct()
		for k := 0; k < slicesPerSegment; k++ {
			parts := make([][]op, p.clients)
			n := 0
			for c, l := range p.ops {
				i, of := s*slicesPerSegment+k, segments*slicesPerSegment
				parts[c] = l[len(l)*i/of : len(l)*(i+1)/of]
				n += len(parts[c])
			}
			if n == 0 {
				continue // the test's op lists are shorter than thirty slices
			}
			m.probes = append(m.probes, probe.sample())
			seg.results = append(seg.results, runSlice(parts, execs, orc, seg.acct)...)
		}
	}
	m.probes = append(m.probes, probe.sample())
	finalErr := finalChecks(p, execs[0], orc)
	m.golden = orc.result()
	m.failures = orc.failures
	if err := e.stop(); err != nil {
		return nil, nil, err
	}
	return m, p, finalErr
}

// finalChecks verifies the sessions still live when the op list ends.
// For ingest_mixed: run each to quiescence; its done items must equal
// asserted minus retracted. For session_churn: read every session's
// snapshot twice round the 192 — the second pass finds every session
// evicted by the first, so each is rehydrated from disk and must print
// what it printed before eviction — then compare its facts with the
// harness's own model of what was acked into it.
func finalChecks(p *plan, x executor, orc *oracle) error {
	live := 0
	switch p.name {
	case "ingest_mixed":
		live = p.sessions
	case "session_churn":
		live = churnSessions
	default:
		return nil
	}
	do := func(st step) (response, error) {
		resp, err := x.do(&st, nil, -1, -1)
		if err != nil {
			orc.note(err)
		} else if st.kind == stRun {
			err = orc.observe(&st, &resp)
		}
		return resp, err
	}
	var first [][sha256.Size]byte
	if p.name == "session_churn" {
		first = make([][sha256.Size]byte, live)
		for s := 0; s < live; s++ {
			resp, err := do(step{kind: stSnapshot, sess: s})
			if err != nil {
				return err
			}
			first[s] = sha256.Sum256(resp.text)
		}
	}
	for s := 0; s < live; s++ {
		if p.name == "ingest_mixed" {
			if _, err := do(step{kind: stRun, sess: s, check: ckRun}); err != nil {
				return err
			}
		}
		snap, err := do(step{kind: stSnapshot, sess: s})
		if err != nil {
			return err
		}
		if first != nil && sha256.Sum256(snap.text) != first[s] {
			err := fmt.Errorf("session %d: snapshot after rehydration differs from the one before eviction", s)
			orc.note(err)
			return err
		}
		facts, err := do(step{kind: stWM, sess: s, check: ckFacts})
		if err != nil {
			return err
		}
		if err := orc.finalSession(s, facts.facts, snap.text); err != nil {
			return err
		}
	}
	return nil
}
