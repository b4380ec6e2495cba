package core

import (
	"testing"

	"parulel/internal/wm"
)

// PARULEL's lineage (the PARADISER work) couples rule processing to a
// database: after quiescence, new facts arrive and the engine resumes
// incrementally, reusing all match state. These tests pin that behaviour.

func TestEngineIncrementalResume(t *testing.T) {
	prog := compileOK(t, `
(literalize arc  from to)
(literalize path from to)
(rule base
  (arc ^from <a> ^to <b>)
  - (path ^from <a> ^to <b>)
-->
  (make path ^from <a> ^to <b>))
(rule step
  (path ^from <a> ^to <b>)
  (arc ^from <b> ^to <c>)
  (test (<> <a> <c>))
  - (path ^from <a> ^to <c>)
-->
  (make path ^from <a> ^to <c>))
(metarule dedup
  [<i> (step ^a <a> ^c <c>)]
  [<j> (step ^a <a> ^c <c>)]
  (test (precedes <i> <j>))
-->
  (redact <j>))
`)
	e := New(prog, Options{MaxCycles: 100})
	mustInsert := func(from, to int64) {
		t.Helper()
		if _, err := e.Insert("arc", map[string]wm.Value{"from": wm.Int(from), "to": wm.Int(to)}); err != nil {
			t.Fatal(err)
		}
	}
	mustInsert(1, 2)
	mustInsert(2, 3)
	res1, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if n := e.Memory().CountOf("path"); n != 3 { // 1→2, 2→3, 1→3
		t.Fatalf("paths after first run = %d, want 3", n)
	}

	// New fact arrives after quiescence; resuming derives only the new
	// consequences (4 new paths) in a handful of cycles.
	mustInsert(3, 4)
	res2, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if n := e.Memory().CountOf("path"); n != 6 { // + 3→4, 2→4, 1→4
		t.Fatalf("paths after resume = %d, want 6", n)
	}
	if res2.Cycles-res1.Cycles > 4 {
		t.Errorf("resume took %d extra cycles, want <= 4 (incremental)", res2.Cycles-res1.Cycles)
	}

	// Idle resume: no new facts, no work.
	res3, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res3.Cycles != res2.Cycles || res3.Firings != res2.Firings {
		t.Errorf("idle resume did work: %+v vs %+v", res3, res2)
	}
}

func TestEngineHaltIsTerminal(t *testing.T) {
	prog := compileOK(t, `
(literalize a x)
(rule stop (a ^x <v>) --> (halt))
(wm (a ^x 1))
`)
	e := New(prog, Options{MaxCycles: 10})
	res, err := e.Run()
	if err != nil || !res.Halted {
		t.Fatalf("first run: %+v, %v", res, err)
	}
	if _, err := e.Insert("a", map[string]wm.Value{"x": wm.Int(2)}); err != nil {
		t.Fatal(err)
	}
	res2, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res2.Cycles != res.Cycles {
		t.Errorf("halted engine resumed: %+v", res2)
	}
}

func TestEngineRefractionSurvivesResume(t *testing.T) {
	// An instantiation that fired before quiescence must not refire when
	// unrelated facts arrive.
	prog := compileOK(t, `
(literalize a x)
(literalize out x)
(rule once (a ^x <v>) --> (make out ^x <v>))
(wm (a ^x 1))
`)
	e := New(prog, Options{MaxCycles: 10})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Insert("a", map[string]wm.Value{"x": wm.Int(2)}); err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Firings != 2 {
		t.Errorf("firings = %d, want 2 (one per distinct instantiation)", res.Firings)
	}
	if n := e.Memory().CountOf("out"); n != 2 {
		t.Errorf("outs = %d, want 2", n)
	}
}
