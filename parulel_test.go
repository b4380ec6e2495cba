package parulel

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"parulel/internal/obs"
)

const facadeProgram = `
(literalize job id state)
(literalize done id)
(rule finish
  <j> <- (job ^id <i> ^state ready)
-->
  (make done ^id <i>)
  (modify <j> ^state finished))
(metarule one-at-a-time
  [<i> (finish ^i <a>)]
  [<j> (finish ^i <b>)]
  (test (< <a> <b>))
-->
  (redact <j>))
(wm (job ^id 1 ^state ready) (job ^id 2 ^state ready))
`

func TestFacadeParseAndRun(t *testing.T) {
	prog, err := Parse(facadeProgram)
	if err != nil {
		t.Fatal(err)
	}
	if got := prog.Rules(); len(got) != 1 || got[0] != "finish" {
		t.Errorf("rules: %v", got)
	}
	if got := prog.MetaRules(); len(got) != 1 || got[0] != "one-at-a-time" {
		t.Errorf("metarules: %v", got)
	}
	eng := NewEngine(prog, Config{MaxCycles: 10})
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	// The meta-rule serializes: 2 cycles, one firing each.
	if res.Cycles != 2 || res.Firings != 2 || res.Redactions != 1 {
		t.Errorf("result: %+v", res)
	}
	if eng.FactCount("done") != 2 {
		t.Errorf("done = %d", eng.FactCount("done"))
	}
	if eng.WMSize() != 4 {
		t.Errorf("wm size = %d", eng.WMSize())
	}
}

func TestFacadeParseError(t *testing.T) {
	if _, err := Parse("(rule broken"); err == nil {
		t.Error("parse error not surfaced")
	}
	if _, err := Parse("(literalize a x) (rule r (b ^y 1) --> (halt))"); err == nil {
		t.Error("compile error not surfaced")
	}
}

func TestFacadeBuiltins(t *testing.T) {
	names := Builtins()
	if len(names) != 7 {
		t.Fatalf("builtins: %v", names)
	}
	for _, n := range names {
		p, err := LoadBuiltin(n)
		if err != nil {
			t.Errorf("LoadBuiltin(%s): %v", n, err)
			continue
		}
		if len(p.Rules()) == 0 {
			t.Errorf("builtin %s has no rules", n)
		}
		src, err := BuiltinSource(n)
		if err != nil || !strings.Contains(src, "literalize") {
			t.Errorf("BuiltinSource(%s): %v", n, err)
		}
	}
	if _, err := LoadBuiltin("nope"); err == nil {
		t.Error("unknown builtin should fail")
	}
}

func TestFacadeInsertAndOutput(t *testing.T) {
	prog, err := Parse(`
(literalize a x)
(rule r (a ^x <v>) --> (write "x is " <v> (crlf)) (remove 1))
`)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	eng := NewEngine(prog, Config{Output: &out})
	if _, err := eng.Insert("a", map[string]Value{"x": Int(5)}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if out.String() != "x is 5\n" {
		t.Errorf("output = %q", out.String())
	}
}

func TestFacadeOPS5Engines(t *testing.T) {
	for _, kind := range []EngineKind{OPS5LEX, OPS5MEA} {
		prog, err := Parse(facadeProgram)
		if err != nil {
			t.Fatal(err)
		}
		eng := NewEngine(prog, Config{Engine: kind, MaxCycles: 10})
		res, err := eng.Run()
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if res.Firings != 2 {
			t.Errorf("%v: firings = %d", kind, res.Firings)
		}
		if res.Redactions != 0 {
			t.Errorf("%v: sequential engines never redact", kind)
		}
	}
}

func TestFacadeTreatMatcher(t *testing.T) {
	prog, err := Parse(facadeProgram)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(prog, Config{Matcher: TREAT, MaxCycles: 10})
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Firings != 2 {
		t.Errorf("firings = %d", res.Firings)
	}
}

func TestFacadeWithoutMetaRules(t *testing.T) {
	prog, err := Parse(facadeProgram)
	if err != nil {
		t.Fatal(err)
	}
	stripped, err := prog.WithoutMetaRules()
	if err != nil {
		t.Fatal(err)
	}
	if len(stripped.MetaRules()) != 0 {
		t.Error("meta-rules not stripped")
	}
	// Original untouched.
	if len(prog.MetaRules()) != 1 {
		t.Error("original program mutated")
	}
	eng := NewEngine(stripped, Config{MaxCycles: 10})
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Without redaction both fire in one cycle.
	if res.Cycles != 1 || res.Firings != 2 {
		t.Errorf("result: %+v", res)
	}
}

// TestFacadeHashPartitionedRules writes copy-and-constrain by hand: four
// variants of a rule, each constrained to one residue of (hash <v>) mod 4,
// must fire exactly the original's instantiations, each once.
func TestFacadeHashPartitionedRules(t *testing.T) {
	const decls = "(literalize a x)\n(literalize out x)\n"
	split := decls
	for i := 0; i < 4; i++ {
		split += fmt.Sprintf("(rule hot-%d (a ^x <v>) (test (= (mod (hash <v>) 4) %d)) --> (make out ^x <v>))\n", i, i)
	}
	outs := func(src string) []string {
		prog, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngine(prog, Config{MaxCycles: 5})
		for i := int64(0); i < 20; i++ {
			if _, err := e.Insert("a", map[string]Value{"x": Int(i)}); err != nil {
				t.Fatal(err)
			}
			if _, err := e.Insert("a", map[string]Value{"x": Sym(fmt.Sprintf("s%d", i))}); err != nil {
				t.Fatal(err)
			}
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Cycles != 1 || res.Firings != 40 {
			t.Errorf("%d rules: %+v, want 40 firings in one cycle", len(prog.Rules()), res)
		}
		var xs []string
		for _, w := range e.Facts("out") {
			xs = append(xs, w.Fields[0].String())
		}
		slices.Sort(xs)
		return xs
	}
	if got, want := outs(split), outs(decls+"(rule hot (a ^x <v>) --> (make out ^x <v>))\n"); !slices.Equal(got, want) {
		t.Errorf("split outs %v, original %v", got, want)
	}
}

func TestFacadeSourceRoundTrip(t *testing.T) {
	prog, err := Parse(facadeProgram)
	if err != nil {
		t.Fatal(err)
	}
	re, err := Parse(prog.Source())
	if err != nil {
		t.Fatalf("printed source does not reparse: %v\n%s", err, prog.Source())
	}
	if len(re.Rules()) != len(prog.Rules()) {
		t.Error("round trip lost rules")
	}
}

func TestFacadeKindParsing(t *testing.T) {
	for s, want := range map[string]EngineKind{
		"parulel": Parulel, "ops5": OPS5LEX, "ops5-lex": OPS5LEX,
		"lex": OPS5LEX, "ops5-mea": OPS5MEA, "mea": OPS5MEA,
	} {
		got, err := ParseEngineKind(s)
		if err != nil || got != want {
			t.Errorf("ParseEngineKind(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseEngineKind("bogus"); err == nil {
		t.Error("bogus engine kind accepted")
	}
	for s, want := range map[string]MatcherKind{"rete": RETE, "treat": TREAT} {
		got, err := ParseMatcherKind(s)
		if err != nil || got != want {
			t.Errorf("ParseMatcherKind(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseMatcherKind("bogus"); err == nil {
		t.Error("bogus matcher kind accepted")
	}
	if Parulel.String() != "parulel" || OPS5LEX.String() != "ops5-lex" || OPS5MEA.String() != "ops5-mea" {
		t.Error("EngineKind.String wrong")
	}
	if RETE.String() != "rete" || TREAT.String() != "treat" {
		t.Error("MatcherKind.String wrong")
	}
}

func TestFacadeSnapshot(t *testing.T) {
	prog, err := Parse(facadeProgram)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(prog, Config{MaxCycles: 10})
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := eng.DumpWM(&snap); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(snap.String(), "(job ^id 1 ^state finished)") {
		t.Errorf("snapshot content: %s", snap.String())
	}
	// Restore into a fresh engine without the (wm …) block firing again:
	// a fresh program would re-run the rules, so check fact counts only.
	prog2, err := Parse(strings.ReplaceAll(facadeProgram, `(wm (job ^id 1 ^state ready) (job ^id 2 ^state ready))`, ""))
	if err != nil {
		t.Fatal(err)
	}
	restored := NewEngine(prog2, Config{MaxCycles: 10})
	n, err := restored.LoadWM(&snap)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Errorf("loaded %d facts, want 4", n)
	}
	res, err := restored.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Firings != 0 {
		t.Errorf("restored quiescent state fired %d times", res.Firings)
	}
}

func TestFacadeOptimize(t *testing.T) {
	prog, err := Parse(`
(literalize item   g)
(literalize anchor id g)
(literalize hit    g)
(rule cross
  (item ^g <x>)
  (item ^g (<> <x>))
  (anchor ^id 7 ^g <x>)
-->
  (make hit ^g <x>))
`)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := prog.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(opt.Source(), "(anchor ^id 7 ^g <x>)\n  (item") {
		t.Errorf("anchor should be hoisted first:\n%s", opt.Source())
	}
	// Behaviour preserved.
	run := func(p *Program) int {
		e := NewEngine(p, Config{MaxCycles: 10})
		for i := int64(0); i < 5; i++ {
			if _, err := e.Insert("item", map[string]Value{"g": Int(i % 2)}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := e.Insert("anchor", map[string]Value{"id": Int(7), "g": Int(1)}); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return e.FactCount("hit")
	}
	if a, b := run(prog), run(opt); a != b {
		t.Errorf("optimize changed behaviour: %d vs %d items", a, b)
	}
}

// TestFacadeTraceAndTracerCompose: Config.Trace's text log and
// Config.Tracer's structured events describe the same cycles.
func TestFacadeTraceAndTracerCompose(t *testing.T) {
	prog, err := Parse(facadeProgram)
	if err != nil {
		t.Fatal(err)
	}
	var text bytes.Buffer
	ring := obs.NewRing(8)
	res, err := NewEngine(prog, Config{Trace: &text, Tracer: ring}).Run()
	if err != nil {
		t.Fatal(err)
	}
	want := "cycle 1: eligible=2 redacted=1 fired=1 delta=3 conflicts=0\ncycle 2: eligible=1 redacted=0 fired=1 delta=3 conflicts=0\n"
	if text.String() != want {
		t.Errorf("text trace:\n got %q\nwant %q", text.String(), want)
	}
	if evs := ring.Events(0); len(evs) != res.Cycles || evs[0].Redacted != 1 || evs[1].RuleFirings["finish"] != 1 {
		t.Errorf("tracer saw %+v of %d cycles", evs, res.Cycles)
	}
}
