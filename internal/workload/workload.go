// Package workload generates the synthetic inputs for the example
// applications and the benchmark harness: ALEXSYS-style pools and orders,
// Waltz block scenes, layered DAGs for transitive closure, and the
// parameterized join workloads for the matcher and copy-and-constrain
// experiments.
//
// The paper's original inputs (ALEXSYS production data, the benchmark
// suite's drawing files) are not available; these generators are the
// documented substitution (DESIGN.md §5) and are fully deterministic
// given their seed.
package workload

import (
	"fmt"
	"math/rand"
	"strings"

	"parulel/internal/wm"
)

// Inserter queues working-memory facts; both engines implement it.
type Inserter interface {
	Insert(template string, fields map[string]wm.Value) (*wm.WME, error)
}

// People inserts n quickstart persons, ages cycling 15..44 so roughly
// two-thirds are adults.
func People(ins Inserter, n int) error {
	for i := 0; i < n; i++ {
		_, err := ins.Insert("person", map[string]wm.Value{
			"name": wm.Sym(fmt.Sprintf("p%03d", i)),
			"age":  wm.Int(int64(15 + i%30)),
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// Alexsys inserts pools and orders for the allocation workload. Pool
// amounts are drawn from [10, 109]; order windows are centered on the
// same range with width 10–49, so most orders admit several pools and
// most pools fit several orders — maximizing allocation conflicts, which
// is the point of the workload.
func Alexsys(ins Inserter, pools, orders int, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	for p := 0; p < pools; p++ {
		_, err := ins.Insert("pool", map[string]wm.Value{
			"id":     wm.Int(int64(p)),
			"amount": wm.Int(int64(10 + rng.Intn(100))),
			"status": wm.Sym("free"),
		})
		if err != nil {
			return err
		}
	}
	for o := 0; o < orders; o++ {
		lo := int64(10 + rng.Intn(70))
		_, err := ins.Insert("order", map[string]wm.Value{
			"id":     wm.Int(int64(o)),
			"lo":     wm.Int(lo),
			"hi":     wm.Int(lo + 10 + int64(rng.Intn(40))),
			"filled": wm.Sym("no"),
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// WaltzScene inserts a scene of the given number of cubes for the Waltz
// labeling program. Every third cube (c ≡ 2 mod 3) is occluded: its third
// corner is a T junction, so its internal edge is labeled only by fork
// propagation.
//
// Per cube: 7 junctions, 9 edges. Junction/edge field conventions match
// waltz.par's header comment.
func WaltzScene(ins Inserter, cubes int) error {
	for c := 0; c < cubes; c++ {
		base := int64(c * 100)
		// Junction ids.
		fork := base + 1
		a1, a2, a3 := base+2, base+3, base+4
		l1, l2, l3 := base+5, base+6, base+7
		// Edge ids: internal i1..i3, silhouette s1..s6.
		i1, i2, i3 := base+11, base+12, base+13
		s1, s2, s3, s4, s5, s6 := base+21, base+22, base+23, base+24, base+25, base+26

		occluded := c%3 == 2
		a3type := "arrow"
		if occluded {
			a3type = "tee"
		}

		// Drawing coordinates: the standard cube picture is a hexagon with
		// the fork at the center, arrow corners and L corners alternating
		// around the silhouette. Cubes are laid out left to right; the
		// corner-pair rule's cross-product stage consumes these.
		ox := int64(c * 12)
		junctions := []struct {
			id     int64
			typ    string
			e1, e2 int64
			e3     wm.Value
			x, y   int64
		}{
			{fork, "fork", i1, i2, wm.Int(i3), ox + 0, 0},
			{a1, "arrow", i1, s1, wm.Int(s6), ox + 0, 4},
			{a2, "arrow", i2, s2, wm.Int(s3), ox - 3, -2},
			{a3, a3type, i3, s4, wm.Int(s5), ox + 3, -2},
			{l1, "ell", s1, s2, wm.Nil(), ox - 3, 2},
			{l2, "ell", s3, s4, wm.Nil(), ox + 0, -4},
			{l3, "ell", s5, s6, wm.Nil(), ox + 3, 2},
		}
		for _, j := range junctions {
			_, err := ins.Insert("junction", map[string]wm.Value{
				"id":   wm.Int(j.id),
				"type": wm.Sym(j.typ),
				"e1":   wm.Int(j.e1),
				"e2":   wm.Int(j.e2),
				"e3":   j.e3,
				"x":    wm.Int(j.x),
				"y":    wm.Int(j.y),
			})
			if err != nil {
				return err
			}
		}
		edges := []struct{ id, j1, j2 int64 }{
			{i1, fork, a1}, {i2, fork, a2}, {i3, fork, a3},
			{s1, a1, l1}, {s2, l1, a2}, {s3, a2, l2},
			{s4, l2, a3}, {s5, a3, l3}, {s6, l3, a1},
		}
		for _, e := range edges {
			_, err := ins.Insert("edge", map[string]wm.Value{
				"id": wm.Int(e.id),
				"j1": wm.Int(e.j1),
				"j2": wm.Int(e.j2),
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// LayeredDAG inserts arcs of a layered DAG for the closure workload:
// layers × width nodes, each node with `fanout` arcs to distinct random
// nodes of the next layer. Node ids are layer*width + position. The
// longest path has layers-1 arcs, which bounds PARULEL's closure cycles.
func LayeredDAG(ins Inserter, layers, width, fanout int, seed int64) error {
	if fanout > width {
		fanout = width
	}
	rng := rand.New(rand.NewSource(seed))
	for l := 0; l < layers-1; l++ {
		for p := 0; p < width; p++ {
			from := int64(l*width + p)
			for _, t := range rng.Perm(width)[:fanout] {
				to := int64((l+1)*width + t)
				_, err := ins.Insert("arc", map[string]wm.Value{
					"from": wm.Int(from),
					"to":   wm.Int(to),
				})
				if err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Chain inserts a simple arc chain 0→1→…→n-1 (diameter n-2 closure).
func Chain(ins Inserter, n int) error {
	for i := 0; i < n-1; i++ {
		_, err := ins.Insert("arc", map[string]wm.Value{
			"from": wm.Int(int64(i)),
			"to":   wm.Int(int64(i + 1)),
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// Manners inserts a Miss Manners party: `guests` guests (even count,
// alternating sex), each with `hobbies` hobbies drawn from `hobbyCount`
// plus the shared hobby 1 that guarantees greedy-safe instances. One
// guest WME per (name, hobby) — the join-mass convention of the original
// benchmark.
func Manners(ins Inserter, guests, hobbies, hobbyCount int, seed int64) error {
	if guests%2 != 0 {
		return fmt.Errorf("workload: manners needs an even guest count, got %d", guests)
	}
	if hobbyCount < 2 {
		hobbyCount = 2
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < guests; i++ {
		name := wm.Sym(fmt.Sprintf("guest-%03d", i))
		sex := wm.Sym("m")
		if i%2 == 1 {
			sex = wm.Sym("f")
		}
		seen := map[int64]bool{1: true}
		hs := []int64{1}
		for len(hs) < 1+hobbies {
			h := int64(2 + rng.Intn(hobbyCount-1))
			if !seen[h] {
				seen[h] = true
				hs = append(hs, h)
			}
			if len(seen) >= hobbyCount {
				break
			}
		}
		for _, h := range hs {
			if _, err := ins.Insert("guest", map[string]wm.Value{
				"name": name, "sex": sex, "hobby": wm.Int(h),
			}); err != nil {
				return err
			}
		}
	}
	if _, err := ins.Insert("context", map[string]wm.Value{"state": wm.Sym("start")}); err != nil {
		return err
	}
	if _, err := ins.Insert("party", map[string]wm.Value{"size": wm.Int(int64(guests))}); err != nil {
		return err
	}
	return nil
}

// HotRuleProgram is the single-hot-rule program of the retired
// fire-parallelism experiment (E2): one rule whose match and firings
// dominate the run, all of them in one cycle.
const HotRuleProgram = `
(literalize task id region cost)
(literalize res  id region cap)
(literalize hit  task res)
(rule assign
  (task ^id <t> ^region <r> ^cost <c>)
  (res  ^id <s> ^region <r> ^cap <k>)
  (test (>= <k> <c>))
-->
  (make hit ^task <t> ^res <s>))
`

// HotRuleFacts inserts tasks and resources across `regions` regions,
// `perRegion` of each per region.
func HotRuleFacts(ins Inserter, regions, perRegion int, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	for r := 0; r < regions; r++ {
		region := wm.Sym(fmt.Sprintf("region-%03d", r))
		for i := 0; i < perRegion; i++ {
			_, err := ins.Insert("task", map[string]wm.Value{
				"id":     wm.Int(int64(r*perRegion + i)),
				"region": region,
				"cost":   wm.Int(int64(rng.Intn(50))),
			})
			if err != nil {
				return err
			}
			_, err = ins.Insert("res", map[string]wm.Value{
				"id":     wm.Int(int64(r*perRegion + i)),
				"region": region,
				"cap":    wm.Int(int64(25 + rng.Intn(50))),
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// JoinChainProgram generates a rule whose LHS is a join chain of the
// given depth over one shared key — the matcher stress program for the
// RETE vs TREAT experiment (E4).
//
//	(rec ^seg 0 ^key <k> ^val <v0>) (rec ^seg 1 ^key <k> ^val <v1>) …
func JoinChainProgram(depth int) string {
	var b strings.Builder
	b.WriteString("(literalize rec seg key val)\n")
	b.WriteString("(literalize out key)\n")
	b.WriteString("(rule deep\n")
	for i := 0; i < depth; i++ {
		fmt.Fprintf(&b, "  (rec ^seg %d ^key <k> ^val <v%d>)\n", i, i)
	}
	b.WriteString("-->\n  (make out ^key <k>))\n")
	return b.String()
}

// JoinChainFacts builds the WME field vectors for a join-chain run:
// `keys` distinct keys, one record per (segment, key, copy) with copies
// per segment. Returned as template/field pairs so matcher benchmarks can
// feed them without an engine.
func JoinChainFacts(keys, depth, copies int, seed int64) []map[string]wm.Value {
	rng := rand.New(rand.NewSource(seed))
	var out []map[string]wm.Value
	for seg := 0; seg < depth; seg++ {
		for k := 0; k < keys; k++ {
			for c := 0; c < copies; c++ {
				out = append(out, map[string]wm.Value{
					"seg": wm.Int(int64(seg)),
					"key": wm.Int(int64(k)),
					"val": wm.Int(int64(rng.Intn(1000))),
				})
			}
		}
	}
	return out
}
