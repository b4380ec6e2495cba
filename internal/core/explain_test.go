package core

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"parulel/internal/programs"
	"parulel/internal/workload"
)

// explainGoldenCases are the runs testdata/explain.golden was rendered from,
// before the meta level compiled dominance meta-rules to orders: their
// explanations must not change by a byte. alexsys's two meta-rules, manners's
// two and quickstart's one are orders; closure has an order and a join-form
// rule over one victim rule.
var explainGoldenCases = []struct {
	prog string
	load func(workload.Inserter) error
}{
	{programs.Alexsys, func(i workload.Inserter) error { return workload.Alexsys(i, 8, 12, 1) }},
	{programs.Manners, func(i workload.Inserter) error { return workload.Manners(i, 6, 2, 3, 1) }},
	{programs.Closure, func(i workload.Inserter) error { return workload.LayeredDAG(i, 4, 4, 2, 1) }},
	{programs.Quickstart, func(i workload.Inserter) error { return workload.People(i, 8) }},
}

// renderExplainGolden runs each case and writes ExplainConflictSet after
// cycles 1, 2, 3 and 5 and once the run is over.
func renderExplainGolden(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, tc := range explainGoldenCases {
		prog, err := programs.Load(tc.prog)
		if err != nil {
			t.Fatal(err)
		}
		e := New(prog, Options{MaxCycles: 1 << 12})
		if err := tc.load(e); err != nil {
			t.Fatal(err)
		}
		for cycle, progress := 1, true; progress; cycle++ {
			if progress, err = e.Step(); err != nil {
				t.Fatal(err)
			}
			if cycle == 1 || cycle == 2 || cycle == 3 || cycle == 5 || !progress {
				fmt.Fprintf(&buf, "== %s after cycle %d\n", tc.prog, cycle)
				if err := e.ExplainConflictSet(&buf); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return buf.Bytes()
}

// TestExplainGolden holds ExplainConflictSet to its golden output, byte for
// byte, at several cycles of four builtins.
func TestExplainGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/explain.golden")
	if err != nil {
		t.Fatal(err)
	}
	got := renderExplainGolden(t)
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("line %d: got\n%s\nwant\n%s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("got %d lines, want %d", len(gl), len(wl))
	}
}
