package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"os"
	"sync"
)

// The oracle checks outputs two ways. Domain invariants are computed from
// what the API returns, without asking the engine whether it was right.
// Golden counters, kept per (workload, input set, op count), must match
// exactly: the op list is fixed, so any difference is a behaviour change.

// golden is the exact outcome of one (workload, input set, op count).
type golden struct {
	Cycles     int64  `json:"cycles"`
	Firings    int64  `json:"firings"`
	Redactions int64  `json:"redactions"`
	WMSize     int64  `json:"wm_size"`
	Digest     string `json:"digest"`
}

//go:embed expected.json
var expectedJSON []byte

// goldenKey names one outcome. The ledger replays a fifth of the op list,
// so it has goldens of its own.
func goldenKey(workload string, set int64, nops, trace int) string {
	key := fmt.Sprintf("%s/set=%d/ops=%d", workload, set, nops)
	if trace == 1 {
		key += "/ledger"
	}
	return key
}

// goldensMain prints expected.json extended with the goldens of the given
// result files: how the file is made when a workload, a size or an input
// set is added. Runs in which an op failed or an invariant broke are left
// out.
func goldensMain(paths []string) int {
	all, err := loadGoldens()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	for _, path := range paths {
		rf, err := readResults(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		for _, r := range rf.Runs {
			if r.InvariantsHeld {
				all[goldenKey(r.Workload, r.InputSet, r.Ops, r.Trace)] = r.Golden
			}
		}
	}
	raw, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(raw))
	return 0
}

func loadGoldens() (map[string]golden, error) {
	out := map[string]golden{}
	if err := json.Unmarshal(expectedJSON, &out); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return out, nil
}

type sessionModel struct {
	asserted  int
	retracted int
	keys      map[int64]bool // session_churn: keys acked into the session
}

type oracle struct {
	mu       sync.Mutex
	workload string
	g        golden
	digest   hash.Hash
	sessions []sessionModel
	failures []string // first few failure messages, for the report
}

func newOracle(p *plan) *oracle {
	return &oracle{workload: p.name, digest: sha256.New(), sessions: make([]sessionModel, p.sessions)}
}

// fail records a failed check; the caller holds o.mu.
func (o *oracle) fail(format string, args ...any) error {
	err := fmt.Errorf(format, args...)
	if len(o.failures) < 8 {
		o.failures = append(o.failures, err.Error())
	}
	return err
}

// note records an error that came from the transport or the server, not
// from a check.
func (o *oracle) note(err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	_ = o.fail("%v", err)
}

// observe checks one step's response and folds it into the golden. It
// returns an error when the response is wrong; the op then counts as
// failed.
func (o *oracle) observe(st *step, resp *response) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	m := &o.sessions[st.sess]
	switch st.kind {
	case stCreate:
		*m = sessionModel{}
	case stAssert, stBatch:
		if resp.count != st.nfacts() {
			return o.fail("%s: asserted %d facts, server counted %d", st.kind, st.nfacts(), resp.count)
		}
		m.asserted += st.nfacts()
		if o.workload == "session_churn" && st.sess < churnSessions {
			if m.keys == nil {
				m.keys = map[int64]bool{}
			}
			for i := 0; i < st.items; i++ {
				m.keys[st.itemFirst+int64(i)] = true
			}
		}
	case stRetract:
		m.retracted += resp.count
	}
	switch st.check {
	case ckRun:
		r := resp.run
		if !r.Quiescent && !r.Halted {
			return o.fail("run: stopped before quiescence or (halt)")
		}
		o.g.Cycles += int64(r.Cycles)
		o.g.Firings += int64(r.Firings)
		o.g.Redactions += int64(r.Redactions)
		if st.cubes > 0 {
			o.g.WMSize += int64(r.WMSize)
			if r.Firings != 40*st.cubes {
				return o.fail("waltz: %d firings for %d cubes, want %d", r.Firings, st.cubes, 40*st.cubes)
			}
		}
	case ckAlexsys:
		o.g.WMSize += int64(resp.total)
		if err := checkAlexsys(resp.facts); err != nil {
			return o.fail("alexsys: %v", err)
		}
	case ckWaltz:
		if err := checkWaltz(resp.facts, st.cubes); err != nil {
			return o.fail("waltz: %v", err)
		}
	case ckDigest:
		o.digest.Write(resp.text)
	case ckChurnModel:
		if err := checkModel(resp.facts, m); err != nil {
			return o.fail("churn: session %d: %v", st.sess, err)
		}
	}
	return nil
}

// finalSession folds a live session's end state into the golden, after
// the caller has run it to quiescence.
func (o *oracle) finalSession(sess int, wmFacts []wmFact, snapshot []byte) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.g.WMSize += int64(len(wmFacts))
	o.digest.Write(snapshot)
	m := &o.sessions[sess]
	done := 0
	for _, f := range wmFacts {
		switch f.Fields["state"].S {
		case "done":
			done++
		default:
			return o.fail("session %d: item %d left in state %q after a run", sess, f.Fields["k"].I, f.Fields["state"].S)
		}
	}
	if done != m.asserted-m.retracted {
		return o.fail("session %d: %d done items, want asserted %d - retracted %d", sess, done, m.asserted, m.retracted)
	}
	if m.keys != nil {
		if err := checkModel(wmFacts, m); err != nil {
			return o.fail("session %d: %v", sess, err)
		}
	}
	return nil
}

func (o *oracle) result() golden {
	g := o.g
	g.Digest = hex.EncodeToString(o.digest.Sum(nil))
	return g
}

// checkAlexsys: every sold pool names an order that names it back, the
// amount lies in that order's window, nothing is awarded twice, and no
// free pool still fits an unfilled order (the run reached a fixpoint).
func checkAlexsys(facts []wmFact) error {
	type pool struct {
		amount int64
		sold   bool
		owner  int64
	}
	type order struct {
		lo, hi int64
		filled bool
		pool   int64
	}
	pools := map[int64]pool{}
	orders := map[int64]order{}
	for _, f := range facts {
		id := f.Fields["id"].I
		switch f.Template {
		case "pool":
			if _, dup := pools[id]; dup {
				return fmt.Errorf("pool %d appears twice", id)
			}
			pools[id] = pool{amount: f.Fields["amount"].I, sold: f.Fields["status"].S == "sold", owner: f.Fields["owner"].I}
		case "order":
			if _, dup := orders[id]; dup {
				return fmt.Errorf("order %d appears twice", id)
			}
			orders[id] = order{lo: f.Fields["lo"].I, hi: f.Fields["hi"].I, filled: f.Fields["filled"].S == "yes", pool: f.Fields["pool"].I}
		}
	}
	if len(pools) == 0 || len(orders) == 0 {
		return fmt.Errorf("%d pools and %d orders in working memory", len(pools), len(orders))
	}
	awarded := map[int64]int64{} // order -> pool
	for id, p := range pools {
		if !p.sold {
			continue
		}
		o, ok := orders[p.owner]
		if !ok || !o.filled || o.pool != id {
			return fmt.Errorf("pool %d sold to order %d, which does not name it back", id, p.owner)
		}
		if prev, dup := awarded[p.owner]; dup {
			return fmt.Errorf("order %d awarded pools %d and %d", p.owner, prev, id)
		}
		awarded[p.owner] = id
		if p.amount < o.lo || p.amount > o.hi {
			return fmt.Errorf("pool %d amount %d outside order %d window [%d,%d]", id, p.amount, p.owner, o.lo, o.hi)
		}
	}
	for id, o := range orders {
		if o.filled {
			if _, ok := awarded[id]; !ok {
				return fmt.Errorf("order %d filled by pool %d, which is not sold to it", id, o.pool)
			}
			continue
		}
		for pid, p := range pools {
			if !p.sold && p.amount >= o.lo && p.amount <= o.hi {
				return fmt.Errorf("free pool %d still fits unfilled order %d", pid, id)
			}
		}
	}
	return nil
}

// checkWaltz: each of the scene's 9 edges per cube carries exactly one
// label.
func checkWaltz(labels []wmFact, cubes int) error {
	seen := map[int64]bool{}
	for _, f := range labels {
		e := f.Fields["edge"].I
		if seen[e] {
			return fmt.Errorf("edge %d labelled twice", e)
		}
		seen[e] = true
		if v := f.Fields["value"].S; v != "boundary" && v != "plus" {
			return fmt.Errorf("edge %d has label %q", e, v)
		}
	}
	if len(seen) != 9*cubes {
		return fmt.Errorf("%d edges labelled, scene has %d", len(seen), 9*cubes)
	}
	return nil
}

// checkModel: the session holds exactly the keys acked into it, all done.
func checkModel(facts []wmFact, m *sessionModel) error {
	if len(facts) != len(m.keys) {
		return fmt.Errorf("%d facts, model has %d", len(facts), len(m.keys))
	}
	for _, f := range facts {
		k := f.Fields["k"].I
		if !m.keys[k] {
			return fmt.Errorf("fact k=%d was never asserted", k)
		}
		if f.Fields["state"].S != "done" {
			return fmt.Errorf("fact k=%d in state %q", k, f.Fields["state"].S)
		}
	}
	return nil
}
