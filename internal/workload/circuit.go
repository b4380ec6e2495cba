package workload

import (
	"fmt"
	"math/rand"
	"sort"

	"parulel/internal/wm"
)

// CircuitGate is one gate of a generated netlist.
type CircuitGate struct {
	ID   int64
	Kind int64 // 0 and, 1 or, 2 xor, 3 not, 4 buf
	In1  int64
	In2  int64
	Out  int64
}

// Circuit is a generated layered combinational netlist plus its primary
// input assignment.
type Circuit struct {
	Inputs map[int64]int64 // wire id → 0/1
	Gates  []CircuitGate
	Depth  int
}

// GenCircuit builds a random layered netlist: `width` primary inputs
// (wire ids 0..width-1), then `depth` levels of `width` gates whose
// inputs come from the previous level. Every level-l gate g outputs wire
// id (l+1)*width + g's position. With contended=true, a quarter of the
// gates get a rival gate driving the same output wire (bus contention for
// the meta-rule to arbitrate).
func GenCircuit(width, depth int, contended bool, seed int64) *Circuit {
	rng := rand.New(rand.NewSource(seed))
	c := &Circuit{Inputs: make(map[int64]int64), Depth: depth}
	for i := 0; i < width; i++ {
		c.Inputs[int64(i)] = int64(rng.Intn(2))
	}
	nextGate := int64(0)
	for l := 0; l < depth; l++ {
		prevBase := int64(l * width)
		outBase := int64((l + 1) * width)
		for p := 0; p < width; p++ {
			kind := int64(rng.Intn(5))
			in1 := prevBase + int64(rng.Intn(width))
			in2 := prevBase + int64(rng.Intn(width))
			if kind >= 3 { // not/buf are unary; keep both input wires real
				in2 = in1
			}
			c.Gates = append(c.Gates, CircuitGate{
				ID: nextGate, Kind: kind, In1: in1, In2: in2, Out: outBase + int64(p),
			})
			nextGate++
			if contended && rng.Intn(4) == 0 {
				// A rival driver for the same output wire.
				kind2 := int64(rng.Intn(5))
				r1 := prevBase + int64(rng.Intn(width))
				r2 := prevBase + int64(rng.Intn(width))
				if kind2 >= 3 {
					r2 = r1
				}
				c.Gates = append(c.Gates, CircuitGate{
					ID: nextGate, Kind: kind2, In1: r1, In2: r2, Out: outBase + int64(p),
				})
				nextGate++
			}
		}
	}
	return c
}

// GenBusCircuit builds a netlist where EVERY output wire is a contended
// bus with `drivers` rival gates, so the one-driver-per-wire meta-rule
// arbitrates drivers² instantiation pairs per wire per level. This is
// the redaction-heavy regime: meta-rule predicate evaluation (not
// matching) dominates the cycle.
func GenBusCircuit(width, depth, drivers int, seed int64) *Circuit {
	rng := rand.New(rand.NewSource(seed))
	c := &Circuit{Inputs: make(map[int64]int64), Depth: depth}
	for i := 0; i < width; i++ {
		c.Inputs[int64(i)] = int64(rng.Intn(2))
	}
	nextGate := int64(0)
	for l := 0; l < depth; l++ {
		prevBase := int64(l * width)
		outBase := int64((l + 1) * width)
		for p := 0; p < width; p++ {
			for d := 0; d < drivers; d++ {
				kind := int64(rng.Intn(5))
				in1 := prevBase + int64(rng.Intn(width))
				in2 := prevBase + int64(rng.Intn(width))
				if kind >= 3 {
					in2 = in1
				}
				c.Gates = append(c.Gates, CircuitGate{
					ID: nextGate, Kind: kind, In1: in1, In2: in2, Out: outBase + int64(p),
				})
				nextGate++
			}
		}
	}
	return c
}

// Insert loads the circuit into an engine: one gate WME per gate and one
// driven wire per primary input.
func (c *Circuit) Insert(ins Inserter) error {
	for _, g := range c.Gates {
		if _, err := ins.Insert("gate", map[string]wm.Value{
			"id": wm.Int(g.ID), "kind": wm.Int(g.Kind),
			"in1": wm.Int(g.In1), "in2": wm.Int(g.In2), "out": wm.Int(g.Out),
		}); err != nil {
			return err
		}
	}
	// Sorted by wire id: map order here would scramble time-tag
	// assignment run to run, and under contention the commit phase's
	// first-op-wins rule would then pick different conflict winners.
	ids := make([]int64, 0, len(c.Inputs))
	for id := range c.Inputs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if _, err := ins.Insert("wire", map[string]wm.Value{
			"id": wm.Int(id), "val": wm.Int(c.Inputs[id]),
		}); err != nil {
			return err
		}
	}
	return nil
}

// gateEval computes one gate's output from its input values.
func gateEval(kind, a, b int64) int64 {
	switch kind {
	case 0:
		return min(a, b)
	case 1:
		return max(a, b)
	case 2:
		return (a + b) % 2
	case 3:
		return 1 - a
	default:
		return a
	}
}

// Reference evaluates the circuit in plain Go with the same arbitration
// rule as circuit.par: a wire's value is set by the first gate (in
// readiness order, ties by gate id) that drives it, and later drivers are
// ignored. It returns the final wire assignment.
func (c *Circuit) Reference() map[int64]int64 {
	vals := make(map[int64]int64, len(c.Inputs))
	for id, v := range c.Inputs {
		vals[id] = v
	}
	// Fixpoint over readiness waves, mirroring the engine's cycles.
	for {
		type drive struct {
			gate int64
			wire int64
			val  int64
		}
		var wave []drive
		for _, g := range c.Gates {
			if _, done := vals[g.Out]; done {
				continue
			}
			a, okA := vals[g.In1]
			b, okB := vals[g.In2]
			if okA && okB {
				wave = append(wave, drive{g.ID, g.Out, gateEval(g.Kind, a, b)})
			}
		}
		if len(wave) == 0 {
			return vals
		}
		// Same-wave contention: lowest gate id wins (the meta-rule).
		for _, d := range wave {
			if _, taken := vals[d.wire]; !taken {
				vals[d.wire] = d.val
			}
		}
	}
}

// Wires extracts the wire assignment from an engine's working memory.
func Wires(facts []*wm.WME) map[int64]int64 {
	out := make(map[int64]int64, len(facts))
	for _, w := range facts {
		out[w.Fields[0].I] = w.Fields[1].I
	}
	return out
}

// String summarizes the circuit for logs.
func (c *Circuit) String() string {
	return fmt.Sprintf("circuit{inputs=%d gates=%d depth=%d}", len(c.Inputs), len(c.Gates), c.Depth)
}
