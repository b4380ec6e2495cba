// Package matchtest provides a conformance suite run against every
// match.Matcher implementation, plus a differential harness that drives
// two implementations with identical random working-memory histories and
// requires identical conflict sets after every step.
package matchtest

import (
	"fmt"
	"math/rand"
	"testing"

	"parulel/internal/compile"
	"parulel/internal/match"
	"parulel/internal/wm"
)

// Programs is the set of representative rule programs the suite exercises.
// Each stresses a different matcher feature.
var Programs = map[string]string{
	"two-way-join": `
(literalize pool  id amount status)
(literalize order id lo hi filled)
(rule propose
  (pool  ^id <p> ^amount <a> ^status free)
  (order ^id <o> ^lo <lo> ^hi <hi> ^filled no)
  (test (and (>= <a> <lo>) (<= <a> <hi>)))
-->
  (halt))
`,
	"three-way-chain": `
(literalize node id next)
(rule chain3
  (node ^id <a> ^next <b>)
  (node ^id <b> ^next <c>)
  (node ^id <c> ^next <d>)
-->
  (halt))
`,
	"self-join-same-template": `
(literalize item id group)
(rule pair
  (item ^id <a> ^group <g>)
  (item ^id (<> <a>) ^group <g>)
-->
  (halt))
`,
	"negation": `
(literalize task id state)
(literalize lock id)
(rule runnable
  (task ^id <t> ^state ready)
  - (lock ^id <t>)
-->
  (halt))
`,
	"negation-first": `
(literalize guard on)
(literalize job id)
(rule unguarded
  - (guard ^on yes)
  (job ^id <j>)
-->
  (halt))
`,
	"double-negation": `
(literalize a id)
(literalize b id)
(literalize c id)
(rule lonely
  (a ^id <x>)
  - (b ^id <x>)
  - (c ^id (> <x>))
-->
  (halt))
`,
	"intra-element": `
(literalize pairx l r)
(rule same
  (pairx ^l <v> ^r <v>)
-->
  (halt))
`,
	"pred-consts": `
(literalize m v w)
(rule band
  (m ^v (> 3) ^w (<= 7))
  (m ^v (<> 5))
-->
  (halt))
`,
	"disjunction": `
(literalize card suit rank)
(rule royal-red
  (card ^suit << hearts diamonds >> ^rank <r>)
  (card ^suit << clubs spades >> ^rank <r>)
-->
  (halt))
`,
}

// Compiled returns the compiled form of a named program.
func Compiled(t testing.TB, name string) *compile.Program {
	t.Helper()
	src, ok := Programs[name]
	if !ok {
		t.Fatalf("matchtest: unknown program %q", name)
	}
	p, err := compile.CompileSource(src)
	if err != nil {
		t.Fatalf("matchtest: compile %s: %v", name, err)
	}
	return p
}

// Keys extracts instantiation keys, in the slice's order, for
// comparisons (KeyString form, so failures read as rule:tag:tag…).
func Keys(ins []*match.Instantiation) []string {
	out := make([]string, len(ins))
	for i, in := range ins {
		out[i] = in.KeyString()
	}
	return out
}

// Driver replays a random insert/remove history against a memory and one
// or more matchers.
type Driver struct {
	Mem      *wm.Memory
	Matchers []match.Matcher
	rng      *rand.Rand
	live     []*wm.WME
}

// NewDriver builds a driver with its own deterministic random source.
func NewDriver(prog *compile.Program, seed int64, factories ...match.Factory) *Driver {
	d := &Driver{
		Mem: wm.NewMemory(prog.Schema),
		rng: rand.New(rand.NewSource(seed)),
	}
	for _, f := range factories {
		d.Matchers = append(d.Matchers, f(prog.Rules))
	}
	return d
}

// Step performs one random working-memory event (weighted 2:1 insert over
// remove) and applies the resulting delta to every matcher. gen produces a
// random fact for insertion.
func (d *Driver) Step(gen func(r *rand.Rand) (string, map[string]wm.Value)) wm.Delta {
	var delta wm.Delta
	if len(d.live) > 0 && d.rng.Intn(3) == 0 {
		i := d.rng.Intn(len(d.live))
		w := d.live[i]
		d.live[i] = d.live[len(d.live)-1]
		d.live = d.live[:len(d.live)-1]
		d.Mem.Remove(w.Time)
		delta.Removed = []*wm.WME{w}
	} else {
		tmpl, fields := gen(d.rng)
		w, err := d.Mem.Insert(tmpl, fields)
		if err != nil {
			panic(fmt.Sprintf("matchtest: bad generator fact: %v", err))
		}
		d.live = append(d.live, w)
		delta.Added = []*wm.WME{w}
	}
	for _, m := range d.Matchers {
		m.Apply(delta)
	}
	return delta
}

// Generators produce random facts per program, small domains chosen so
// joins, negations and removals all trigger frequently.
var Generators = map[string]func(r *rand.Rand) (string, map[string]wm.Value){
	"two-way-join": func(r *rand.Rand) (string, map[string]wm.Value) {
		if r.Intn(2) == 0 {
			status := wm.Sym("free")
			if r.Intn(4) == 0 {
				status = wm.Sym("held")
			}
			return "pool", map[string]wm.Value{
				"id":     wm.Int(int64(r.Intn(5))),
				"amount": wm.Int(int64(r.Intn(100))),
				"status": status,
			}
		}
		lo := int64(r.Intn(60))
		filled := wm.Sym("no")
		if r.Intn(4) == 0 {
			filled = wm.Sym("yes")
		}
		return "order", map[string]wm.Value{
			"id":     wm.Int(int64(r.Intn(5))),
			"lo":     wm.Int(lo),
			"hi":     wm.Int(lo + int64(r.Intn(60))),
			"filled": filled,
		}
	},
	"three-way-chain": func(r *rand.Rand) (string, map[string]wm.Value) {
		return "node", map[string]wm.Value{
			"id":   wm.Int(int64(r.Intn(6))),
			"next": wm.Int(int64(r.Intn(6))),
		}
	},
	"self-join-same-template": func(r *rand.Rand) (string, map[string]wm.Value) {
		return "item", map[string]wm.Value{
			"id":    wm.Int(int64(r.Intn(8))),
			"group": wm.Sym(string(rune('a' + r.Intn(3)))),
		}
	},
	"negation": func(r *rand.Rand) (string, map[string]wm.Value) {
		if r.Intn(2) == 0 {
			state := wm.Sym("ready")
			if r.Intn(3) == 0 {
				state = wm.Sym("done")
			}
			return "task", map[string]wm.Value{"id": wm.Int(int64(r.Intn(5))), "state": state}
		}
		return "lock", map[string]wm.Value{"id": wm.Int(int64(r.Intn(5)))}
	},
	"negation-first": func(r *rand.Rand) (string, map[string]wm.Value) {
		if r.Intn(3) == 0 {
			on := wm.Sym("yes")
			if r.Intn(2) == 0 {
				on = wm.Sym("no")
			}
			return "guard", map[string]wm.Value{"on": on}
		}
		return "job", map[string]wm.Value{"id": wm.Int(int64(r.Intn(6)))}
	},
	"double-negation": func(r *rand.Rand) (string, map[string]wm.Value) {
		tmpl := []string{"a", "b", "c"}[r.Intn(3)]
		return tmpl, map[string]wm.Value{"id": wm.Int(int64(r.Intn(5)))}
	},
	"intra-element": func(r *rand.Rand) (string, map[string]wm.Value) {
		return "pairx", map[string]wm.Value{
			"l": wm.Int(int64(r.Intn(3))),
			"r": wm.Int(int64(r.Intn(3))),
		}
	},
	"pred-consts": func(r *rand.Rand) (string, map[string]wm.Value) {
		return "m", map[string]wm.Value{
			"v": wm.Int(int64(r.Intn(10))),
			"w": wm.Int(int64(r.Intn(10))),
		}
	},
	"disjunction": func(r *rand.Rand) (string, map[string]wm.Value) {
		suits := []string{"hearts", "diamonds", "clubs", "spades", "jokers"}
		return "card", map[string]wm.Value{
			"suit": wm.Sym(suits[r.Intn(len(suits))]),
			"rank": wm.Int(int64(r.Intn(4))),
		}
	},
}

// NaiveConflictSet computes the ground-truth conflict set of a program
// over a memory snapshot by brute-force enumeration, as the set of the
// instantiations' KeyStrings.
func NaiveConflictSet(prog *compile.Program, mem *wm.Memory) map[string]bool {
	out := make(map[string]bool)
	snap := mem.Snapshot()
	for _, rule := range prog.Rules {
		vec := make([]*wm.WME, rule.NumPositive)
		var walk func(ceIdx int) // emits into out
		walk = func(ceIdx int) {
			if ceIdx == len(rule.CEs) {
				out[match.NewInstantiation(rule, vec).KeyString()] = true
				return
			}
			ce := rule.CEs[ceIdx]
			if ce.Negated {
				for _, w := range snap {
					if ce.MatchesAlpha(w) && negOK(ce, w, vec) {
						return
					}
				}
				walk(ceIdx + 1)
				return
			}
			for _, w := range snap {
				if !ce.MatchesAlpha(w) {
					continue
				}
				ok := true
				for _, jt := range ce.JoinTests {
					if !jt.Op.Apply(w.Fields[jt.Field], vec[jt.OtherCE].Fields[jt.OtherField]) {
						ok = false
						break
					}
				}
				if !ok {
					continue
				}
				vec[ce.PosIndex] = w
				// The oracle calls the tree walker itself, so conformance
				// runs compare the matchers' bytecode against an
				// independent evaluator. An erroring filter is no match.
				if filtersPass(ce, &compile.VecEnv{Vec: vec[:ce.PosIndex+1]}) {
					walk(ceIdx + 1)
				}
				vec[ce.PosIndex] = nil
			}
		}
		walk(0)
	}
	return out
}

func filtersPass(ce *compile.CondElem, env *compile.VecEnv) bool {
	for _, f := range ce.Filters {
		if v, err := compile.Eval(f, env); err != nil || !v.Truthy() {
			return false
		}
	}
	return true
}

func negOK(ce *compile.CondElem, w *wm.WME, vec []*wm.WME) bool {
	for _, jt := range ce.JoinTests {
		if !jt.Op.Apply(w.Fields[jt.Field], vec[jt.OtherCE].Fields[jt.OtherField]) {
			return false
		}
	}
	return true
}

// RunConformance drives a single matcher implementation through random
// histories of every program and checks it against the brute-force ground
// truth after every step.
func RunConformance(t *testing.T, factory match.Factory) {
	for name := range Programs {
		name := name
		t.Run(name, func(t *testing.T) {
			prog := Compiled(t, name)
			gen := Generators[name]
			for seed := int64(1); seed <= 5; seed++ {
				d := NewDriver(prog, seed, factory)
				for step := 0; step < 120; step++ {
					d.Step(gen)
					got := Keys(d.Matchers[0].ConflictSet())
					want := NaiveConflictSet(prog, d.Mem)
					if len(got) != len(want) {
						t.Fatalf("seed %d step %d: conflict set size %d, ground truth %d\ngot: %v",
							seed, step, len(got), len(want), got)
					}
					for _, k := range got {
						if !want[k] {
							t.Fatalf("seed %d step %d: spurious instantiation %s", seed, step, k)
						}
					}
				}
			}
		})
	}
}

// RunDifferential drives two matcher implementations with identical
// histories and requires identical conflict sets after every step.
func RunDifferential(t *testing.T, fa, fb match.Factory) {
	for name := range Programs {
		name := name
		t.Run(name, func(t *testing.T) {
			prog := Compiled(t, name)
			gen := Generators[name]
			for seed := int64(1); seed <= 8; seed++ {
				d := NewDriver(prog, seed, fa, fb)
				for step := 0; step < 150; step++ {
					d.Step(gen)
					ka := Keys(d.Matchers[0].ConflictSet())
					kb := Keys(d.Matchers[1].ConflictSet())
					if len(ka) != len(kb) {
						t.Fatalf("seed %d step %d: matcher A has %d instantiations, B has %d\nA: %v\nB: %v",
							seed, step, len(ka), len(kb), ka, kb)
					}
					for i := range ka {
						if ka[i] != kb[i] {
							t.Fatalf("seed %d step %d: conflict sets differ at %d: %s vs %s",
								seed, step, i, ka[i], kb[i])
						}
					}
				}
			}
		})
	}
}
