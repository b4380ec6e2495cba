package core_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"parulel/internal/compile"
	"parulel/internal/core"
	"parulel/internal/lang"
	"parulel/internal/match"
	"parulel/internal/match/rete"
	"parulel/internal/match/treat"
	"parulel/internal/programs"
	"parulel/internal/wm"
	"parulel/internal/workload"
)

// matcherConfigs is the grid the differential tests sweep: RETE with its
// join indexes on and off, and TREAT, which probes an index wherever its
// plans have an equality test to probe with, each on the lowered and the
// unlowered program. Results must be bit-identical across all six: the
// hash-join indexes, the compact instantiation keys, the join plans and
// the bytecode compilation of expressions are pure optimizations. RETE's
// index-off arms are the scan reference, and FuzzNetworkDifferential
// holds TREAT to a brute-force model as well.
var matcherConfigs = []struct {
	name    string
	factory match.Factory
	prog    int // which of compileBoth's two programs the arm runs
}{
	{"rete-indexed-bytecode", rete.New, lowered},
	{"rete-indexed-interp", rete.New, unlowered},
	{"rete-noindex-bytecode", rete.Factory(rete.Options{DisableJoinIndex: true}), lowered},
	{"rete-noindex-interp", rete.Factory(rete.Options{DisableJoinIndex: true}), unlowered},
	{"treat-bytecode", treat.New, lowered},
	{"treat-interp", treat.New, unlowered},
}

const (
	lowered   = iota // compile.Compile: call expressions run as bytecode
	unlowered        // compile.CompileUnlowered: everything on the tree walker
)

// compileBoth compiles src both ways, indexed by the constants above.
func compileBoth(t *testing.T, src string) [2]*compile.Program {
	t.Helper()
	ast, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	var progs [2]*compile.Program
	if progs[lowered], err = compile.Compile(ast); err != nil {
		t.Fatal(err)
	}
	if progs[unlowered], err = compile.CompileUnlowered(ast); err != nil {
		t.Fatal(err)
	}
	return progs
}

// firingTracer records the per-cycle rule-firing sequence (RuleFired
// calls arrive in name order within each committed cycle, so identical
// executions yield identical sequences).
type firingTracer struct {
	cycle  int
	firing []string
}

func (f *firingTracer) CycleStart(n int)                   { f.cycle = n }
func (f *firingTracer) PhaseEnd(core.Phase, time.Duration) {}
func (f *firingTracer) InstantiationsFound(int, int)       {}
func (f *firingTracer) Redacted(int, int, int)             {}
func (f *firingTracer) RuleFired(rule string, count int) {
	f.firing = append(f.firing, fmt.Sprintf("%d:%s:%d", f.cycle, rule, count))
}
func (f *firingTracer) Commit(int, int, bool) {}

// outcome is everything an engine run must agree on across matchers.
type outcome struct {
	cycles, firings, redactions, conflicts int
	halted                                 bool
	wm                                     []string
	firing                                 []string // "cycle:rule:count" sequence
}

func runOutcome(t *testing.T, prog *compile.Program, load func(workload.Inserter) error, f match.Factory) outcome {
	t.Helper()
	tr := &firingTracer{}
	e := core.New(prog, core.Options{MaxCycles: 1 << 20, Matcher: f, Tracer: tr})
	if err := load(e); err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	snap := e.Memory().Snapshot()
	facts := make([]string, len(snap))
	for i, w := range snap {
		facts[i] = w.String()
	}
	sort.Strings(facts)
	return outcome{
		cycles:     res.Cycles,
		firings:    res.Firings,
		redactions: res.Redactions,
		conflicts:  res.WriteConflicts,
		halted:     res.Halted,
		wm:         facts,
		firing:     tr.firing,
	}
}

func diffOutcomes(t *testing.T, name string, want, got outcome) {
	t.Helper()
	if want.cycles != got.cycles || want.firings != got.firings ||
		want.redactions != got.redactions || want.conflicts != got.conflicts ||
		want.halted != got.halted {
		t.Fatalf("%s: result diverged: want {cycles %d firings %d redactions %d conflicts %d halted %v}, got {cycles %d firings %d redactions %d conflicts %d halted %v}",
			name, want.cycles, want.firings, want.redactions, want.conflicts, want.halted,
			got.cycles, got.firings, got.redactions, got.conflicts, got.halted)
	}
	if len(want.wm) != len(got.wm) {
		t.Fatalf("%s: final working memory size %d, want %d", name, len(got.wm), len(want.wm))
	}
	for i := range want.wm {
		if want.wm[i] != got.wm[i] {
			t.Fatalf("%s: final working memory differs at %d: %q vs %q", name, i, got.wm[i], want.wm[i])
		}
	}
	if len(want.firing) != len(got.firing) {
		t.Fatalf("%s: firing sequence length %d, want %d", name, len(got.firing), len(want.firing))
	}
	for i := range want.firing {
		if want.firing[i] != got.firing[i] {
			t.Fatalf("%s: firing sequence differs at %d: %q vs %q", name, i, got.firing[i], want.firing[i])
		}
	}
}

// TestMatcherDifferentialEmbeddedPrograms runs every embedded program to
// quiescence under all six configurations and requires identical cycle
// counts, firings, redactions, write conflicts, halt status, final
// working-memory contents and per-cycle firing sequences.
func TestMatcherDifferentialEmbeddedPrograms(t *testing.T) {
	cases := []struct {
		prog string
		load func(workload.Inserter) error
	}{
		{programs.Quickstart, func(i workload.Inserter) error { return workload.People(i, 10) }},
		{programs.Alexsys, func(i workload.Inserter) error { return workload.Alexsys(i, 25, 18, 1) }},
		{programs.Waltz, func(i workload.Inserter) error { return workload.WaltzScene(i, 8) }},
		{programs.Closure, func(i workload.Inserter) error { return workload.LayeredDAG(i, 4, 4, 2, 1) }},
		{programs.Manners, func(i workload.Inserter) error { return workload.Manners(i, 10, 2, 4, 1) }},
		{programs.Life, func(i workload.Inserter) error {
			return workload.LifeGrid(i, 6, 6, workload.LifeRandom(6, 6, 0.4, 3), 3)
		}},
		{programs.Circuit, func(i workload.Inserter) error {
			return workload.GenCircuit(6, 8, true, 1).Insert(i)
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.prog, func(t *testing.T) {
			src, err := programs.Source(tc.prog)
			if err != nil {
				t.Fatal(err)
			}
			progs := compileBoth(t, src)
			base := runOutcome(t, progs[matcherConfigs[0].prog], tc.load, matcherConfigs[0].factory)
			for _, cfg := range matcherConfigs[1:] {
				diffOutcomes(t, cfg.name, base, runOutcome(t, progs[cfg.prog], tc.load, cfg.factory))
			}
		})
	}
}

// filteredJoinChain is the E4 join chain with a `(test …)` filter on
// every element, so the matcher-direct sweep also exercises the eval
// dimension of the grid (filters run per join candidate).
func filteredJoinChain(depth int) string {
	var b strings.Builder
	b.WriteString("(literalize rec seg key val)\n")
	b.WriteString("(literalize out key)\n")
	b.WriteString("(rule deep\n")
	for i := 0; i < depth; i++ {
		fmt.Fprintf(&b, "  (rec ^seg %d ^key <k> ^val <v%d>)\n", i, i)
		fmt.Fprintf(&b, "  (test (>= (+ <v%d> <k>) 0))\n", i)
	}
	b.WriteString("-->\n  (make out ^key <k>))\n")
	return b.String()
}

// TestMatcherDifferentialGeneratedJoinChains sweeps generated deep-join
// workloads (the E4 shapes, with per-element filters) through the same
// six-way grid. These chains are where the beta index matters most, so
// a probe/scan disagreement would surface here first.
func TestMatcherDifferentialGeneratedJoinChains(t *testing.T) {
	for _, depth := range []int{2, 4, 6} {
		depth := depth
		t.Run(fmt.Sprintf("depth=%d", depth), func(t *testing.T) {
			progs := compileBoth(t, filteredJoinChain(depth))
			facts := workload.JoinChainFacts(10, depth, 2, 1)

			// Drive the matchers directly (the join-chain program has no
			// actions): build up, then churn, comparing conflict sets after
			// every delta. A template is matched by identity, so each
			// program's matchers are fed from a memory over its own schema;
			// the two memories see one history and hand out the same tags.
			var mems [2]*wm.Memory
			var tmpls [2]*wm.Template
			for i, p := range progs {
				mems[i] = wm.NewMemory(p.Schema)
				tmpls[i] = p.Schema.MustLookup("rec")
			}
			ms := make([]match.Matcher, len(matcherConfigs))
			for i, cfg := range matcherConfigs {
				ms[i] = cfg.factory(progs[cfg.prog].Rules)
			}
			check := func(step string) {
				t.Helper()
				base := matchtestKeys(ms[0].ConflictSet())
				for i, m := range ms[1:] {
					got := matchtestKeys(m.ConflictSet())
					if len(base) != len(got) {
						t.Fatalf("%s: %s: conflict set size %d, want %d",
							step, matcherConfigs[i+1].name, len(got), len(base))
					}
					for j := range base {
						if base[j] != got[j] {
							t.Fatalf("%s: %s: conflict sets differ at %d: %s vs %s",
								step, matcherConfigs[i+1].name, j, got[j], base[j])
						}
					}
				}
			}
			apply := func(removed, added [2]*wm.WME) {
				for i, m := range ms {
					p := matcherConfigs[i].prog
					d := wm.Delta{Added: []*wm.WME{added[p]}}
					if removed[p] != nil {
						d.Removed = []*wm.WME{removed[p]}
					}
					m.Apply(d)
				}
			}
			insert := func(fields []wm.Value) (ws [2]*wm.WME) {
				for i := range ws {
					ws[i] = mems[i].InsertFields(tmpls[i], fields)
				}
				return ws
			}

			wmes := make([][2]*wm.WME, 0, len(facts))
			for k, fields := range facts {
				vec := make([]wm.Value, tmpls[0].Arity())
				for attr, v := range fields {
					idx, _ := tmpls[0].AttrIndex(attr)
					vec[idx] = v
				}
				ws := insert(vec)
				wmes = append(wmes, ws)
				apply([2]*wm.WME{}, ws)
				if k%13 == 0 {
					check(fmt.Sprintf("build %d", k))
				}
			}
			check("built")
			for i := 0; i < len(wmes); i += 5 {
				old := wmes[i]
				for p := range old {
					mems[p].Remove(old[p].Time)
				}
				wmes[i] = insert(old[0].Fields)
				apply(old, wmes[i])
				check(fmt.Sprintf("churn %d", i))
			}
		})
	}
}

func matchtestKeys(ins []*match.Instantiation) []string {
	out := make([]string, len(ins))
	for i, in := range ins {
		out[i] = in.KeyString()
	}
	return out
}
