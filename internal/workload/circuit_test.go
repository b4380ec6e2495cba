package workload

import (
	"reflect"
	"testing"

	"parulel/internal/core"
	"parulel/internal/ops5"
	"parulel/internal/programs"
)

func runCircuit(t *testing.T, c *Circuit) (*core.Engine, core.Result) {
	t.Helper()
	prog := loadOK(t, programs.Circuit)
	e := core.New(prog, core.Options{MaxCycles: 10 * (c.Depth + 2)})
	if err := c.Insert(e); err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return e, res
}

func TestCircuitKnownGates(t *testing.T) {
	// Hand-built: and(0,1)→4, or(0,1)→5, xor(0,1)→6, not(0)→7, buf(1)→8.
	c := &Circuit{
		Inputs: map[int64]int64{0: 0, 1: 1},
		Gates: []CircuitGate{
			{ID: 0, Kind: 0, In1: 0, In2: 1, Out: 4},
			{ID: 1, Kind: 1, In1: 0, In2: 1, Out: 5},
			{ID: 2, Kind: 2, In1: 0, In2: 1, Out: 6},
			{ID: 3, Kind: 3, In1: 0, In2: 0, Out: 7},
			{ID: 4, Kind: 4, In1: 1, In2: 1, Out: 8},
		},
		Depth: 1,
	}
	e, res := runCircuit(t, c)
	got := Wires(e.Memory().OfTemplate("wire"))
	want := map[int64]int64{0: 0, 1: 1, 4: 0, 5: 1, 6: 1, 7: 1, 8: 1}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("wires = %v, want %v", got, want)
	}
	// All five gates evaluate in ONE cycle.
	if res.Cycles != 1 || res.Firings != 5 {
		t.Errorf("cycles=%d firings=%d, want 1/5", res.Cycles, res.Firings)
	}
}

func TestCircuitMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		for _, contended := range []bool{false, true} {
			c := GenCircuit(5, 6, contended, seed)
			e, res := runCircuit(t, c)
			got := Wires(e.Memory().OfTemplate("wire"))
			want := c.Reference()
			if !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d contended=%v: engine %v\nreference %v", seed, contended, got, want)
			}
			if res.WriteConflicts != 0 {
				t.Errorf("seed %d contended=%v: conflicts = %d (arbitration must prevent them)",
					seed, contended, res.WriteConflicts)
			}
			if contended && res.Redactions == 0 {
				t.Errorf("seed %d: contended circuit should need arbitration", seed)
			}
			// Cycles track circuit depth, not gate count.
			if res.Cycles > c.Depth+1 {
				t.Errorf("seed %d: cycles = %d, want <= depth+1 = %d", seed, res.Cycles, c.Depth+1)
			}
		}
	}
}

func TestCircuitSequentialBaselineAgreesWhenUncontended(t *testing.T) {
	// Without contention the circuit is confluent: any firing order gives
	// the same wire assignment, so OPS5 must agree with the reference.
	c := GenCircuit(4, 5, false, 3)
	prog := loadOK(t, programs.Circuit)
	e := ops5.New(prog, ops5.Options{MaxCycles: 100000})
	if err := c.Insert(e); err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	got := Wires(e.Memory().OfTemplate("wire"))
	if !reflect.DeepEqual(got, c.Reference()) {
		t.Errorf("ops5 circuit diverged from reference")
	}
	// One gate per cycle: firings == gates.
	if res.Firings != len(c.Gates) {
		t.Errorf("ops5 firings = %d, want %d", res.Firings, len(c.Gates))
	}
}

// TestCircuitDeterministicAcrossWorkers: a contended circuit settles the
// same wires on every run of a fresh engine.
func TestCircuitDeterministicAcrossWorkers(t *testing.T) {
	c := GenCircuit(5, 4, true, 8)
	e1, _ := runCircuit(t, c)
	e2, _ := runCircuit(t, c)
	if !reflect.DeepEqual(Wires(e1.Memory().OfTemplate("wire")), Wires(e2.Memory().OfTemplate("wire"))) {
		t.Error("circuit result differs between two runs")
	}
}

func TestGateEvalTable(t *testing.T) {
	cases := []struct{ kind, a, b, want int64 }{
		{0, 1, 1, 1}, {0, 1, 0, 0}, {0, 0, 0, 0},
		{1, 0, 0, 0}, {1, 1, 0, 1},
		{2, 1, 1, 0}, {2, 1, 0, 1}, {2, 0, 0, 0},
		{3, 1, 0, 0}, {3, 0, 0, 1},
		{4, 1, 0, 1}, {4, 0, 1, 0},
	}
	for _, tc := range cases {
		if got := gateEval(tc.kind, tc.a, tc.b); got != tc.want {
			t.Errorf("gateEval(%d, %d, %d) = %d, want %d", tc.kind, tc.a, tc.b, got, tc.want)
		}
	}
}

func TestCircuitString(t *testing.T) {
	c := GenCircuit(3, 2, false, 1)
	if got := c.String(); got != "circuit{inputs=3 gates=6 depth=2}" {
		t.Errorf("String = %q", got)
	}
}
