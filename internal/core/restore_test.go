package core

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"parulel/internal/compile"
	"parulel/internal/match/treat"
	"parulel/internal/programs"
	"parulel/internal/snapshot"
	"parulel/internal/wm"
	"parulel/internal/workload"
)

// restoreSrc exercises everything restore must preserve: multi-CE joins
// (refraction state), gensym (derived from time tags), and meta-rule
// serialization (tag-order dependent).
const restoreSrc = `
(literalize item  n mark)
(literalize seen  n id)
(rule tag-item
  (item ^n <n> ^mark nil)
-->
  (bind <g>)
  (make seen ^n <n> ^id <g>))
(rule mark-item
  <i> <- (item ^n <n> ^mark nil)
  (seen ^n <n>)
-->
  (modify <i> ^mark done))
(rule note-done
  (item ^n <n> ^mark done)
-->
  (make seen ^n (- 0 1) ^id noted))
(metarule serialize
  [<i> (mark-item)]
  [<j> (mark-item)]
  (test (precedes <i> <j>))
-->
  (redact <j>))
`

func compileRestore(t *testing.T) *compile.Program {
	t.Helper()
	prog, err := compile.CompileSource(restoreSrc)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func insertItems(t *testing.T, e *Engine, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		if _, err := e.Insert("item", map[string]wm.Value{"n": wm.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
}

// transplant rebuilds an engine from another's replayable state, the way
// checkpoint recovery does: fresh engine without initial facts, WMEs
// restored under their original tags, then refraction keys and counters.
func transplant(t *testing.T, src *Engine, prog *compile.Program) *Engine {
	t.Helper()
	return transplantWith(t, src, prog, Options{})
}

func transplantWith(t *testing.T, src *Engine, prog *compile.Program, opts Options) *Engine {
	t.Helper()
	opts.NoInitialFacts = true
	dst := New(prog, opts)
	for _, w := range src.Memory().Snapshot() {
		fields := make(map[string]wm.Value, len(w.Fields))
		for i, attr := range w.Tmpl.Attrs {
			if !w.Fields[i].IsNil() {
				fields[attr] = w.Fields[i]
			}
		}
		if _, err := dst.RestoreWME(w.Tmpl.Name, fields, w.Time); err != nil {
			t.Fatal(err)
		}
	}
	dst.RestoreFired(src.FiredKeys())
	dst.RestoreCounters(src.Counters())
	return dst
}

// sameRefraction steps orig and restored, a transplant of it, once each
// and requires them to hold the same refraction set before and after: the
// restored set stands in for the one the checkpoint named until the first
// match phase, and that phase leaves exactly what the uninterrupted
// engine's leaves.
func sameRefraction(t *testing.T, orig, restored *Engine) {
	t.Helper()
	same := func(when string) {
		t.Helper()
		if a, b := orig.FiredKeys(), restored.FiredKeys(); !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: original refracts %v, restored %v", when, a, b)
		}
	}
	same("after the transplant")
	for _, e := range []*Engine{orig, restored} {
		if _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	same("after one step")
}

func snapshotText(t *testing.T, e *Engine) string {
	t.Helper()
	var b bytes.Buffer
	if err := snapshot.Write(&b, e.Memory()); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestRestoreMidRunDeterministic pauses an engine between cycles,
// transplants its state, and requires both copies to finish with
// byte-identical snapshots and equal counters — including the gensym
// values baked into `seen` facts, which only match if time tags and
// refraction state were restored exactly.
func TestRestoreMidRunDeterministic(t *testing.T) {
	prog := compileRestore(t)
	for _, pause := range []int{0, 1, 2, 3} {
		orig := New(prog, Options{})
		insertItems(t, orig, 0, 6)
		for i := 0; i < pause; i++ {
			if _, err := orig.Step(); err != nil {
				t.Fatal(err)
			}
		}
		restored := transplant(t, orig, prog)
		sameRefraction(t, orig, restored)

		if _, err := orig.Run(); err != nil {
			t.Fatal(err)
		}
		if _, err := restored.Run(); err != nil {
			t.Fatal(err)
		}
		if a, b := snapshotText(t, orig), snapshotText(t, restored); a != b {
			t.Fatalf("pause=%d: snapshots differ\n-- original --\n%s\n-- restored --\n%s", pause, a, b)
		}
		if a, b := orig.Counters(), restored.Counters(); a != b {
			t.Fatalf("pause=%d: counters differ: %+v vs %+v", pause, a, b)
		}
	}
}

// TestRestoreRefractionPreventsRefire: without the restored fired set, a
// quiescent engine would re-fire still-present instantiations after
// recovery and diverge.
func TestRestoreRefractionPreventsRefire(t *testing.T) {
	prog := compileRestore(t)
	orig := New(prog, Options{})
	insertItems(t, orig, 0, 3)
	res, err := orig.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Firings == 0 {
		t.Fatal("workload fired nothing")
	}

	restored := transplant(t, orig, prog)
	res2, err := restored.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res2.Cycles != res.Cycles || res2.Firings != res.Firings {
		t.Fatalf("restored engine did extra work: %+v vs %+v", res2, res)
	}

	// Dropping the refraction set must be observable (the test would be
	// vacuous if nothing in the conflict set had fired).
	bad := New(prog, Options{NoInitialFacts: true})
	for _, w := range orig.Memory().Snapshot() {
		fields := make(map[string]wm.Value, len(w.Fields))
		for i, attr := range w.Tmpl.Attrs {
			if !w.Fields[i].IsNil() {
				fields[attr] = w.Fields[i]
			}
		}
		if _, err := bad.RestoreWME(w.Tmpl.Name, fields, w.Time); err != nil {
			t.Fatal(err)
		}
	}
	bad.RestoreCounters(orig.Counters())
	res3, err := bad.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res3.Firings == res.Firings {
		t.Fatal("conflict set held no fired instantiations at quiescence; refraction restore untested")
	}
}

// TestRestoreForgetsRefractionItDoesNotFind: a checkpoint taken right
// after `block` fired names its instantiation as refracted, but the `b` it
// made is already in the restored working memory, so the first match phase
// finds that instantiation blocked. The uninterrupted engine drops its
// refraction in the same match phase, and when `unblock` removes `b` the
// instantiation returns, eligible, and fires again. A restored engine that
// kept the key would refract it there and stop.
func TestRestoreForgetsRefractionItDoesNotFind(t *testing.T) {
	prog := compileOK(t, `
(literalize a n)
(literalize b n)
(rule block (a ^n <n>) - (b ^n <n>) --> (make b ^n <n>))
(rule unblock (b ^n <n>) --> (remove 1))
(wm (a ^n 1))
`)
	orig := New(prog, Options{})
	if _, err := orig.Step(); err != nil {
		t.Fatal(err)
	}
	if len(orig.FiredKeys()) != 1 {
		t.Fatalf("after the first cycle the refraction set is %v, want block's one instantiation", orig.FiredKeys())
	}
	restored := transplant(t, orig, prog)
	for i := 0; i < 4; i++ {
		for _, e := range []*Engine{orig, restored} {
			if _, err := e.Step(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if a, b := orig.Counters(), restored.Counters(); a != b || a.Firings != 5 {
		t.Fatalf("after five cycles: original %+v, restored %+v, want five firings each", a, b)
	}
}

// TestReplayStepsVerifiesCycleCount: ReplaySteps must notice when the
// engine cannot commit as many cycles as the log recorded.
func TestReplayStepsVerifiesCycleCount(t *testing.T) {
	prog := compileRestore(t)
	e := New(prog, Options{})
	insertItems(t, e, 0, 2)
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}

	replayed := New(prog, Options{})
	insertItems(t, replayed, 0, 2)
	if err := replayed.ReplaySteps(res.Cycles); err != nil {
		t.Fatalf("faithful replay failed: %v", err)
	}
	// The engine is quiescent now; demanding one more cycle must error.
	if err := replayed.ReplaySteps(1); err == nil {
		t.Fatal("over-replay should report divergence")
	}
}

// cycleLog records, per committed cycle, what redaction did and what
// fired: "cycle: redacted=n survivors=m rule×count …".
type cycleLog struct {
	cur   string
	lines []string
}

func (l *cycleLog) CycleStart(n int)              { l.cur = fmt.Sprintf("%d:", n) }
func (l *cycleLog) PhaseEnd(Phase, time.Duration) {}
func (l *cycleLog) InstantiationsFound(_, el int) { l.cur += fmt.Sprintf(" eligible=%d", el) }
func (l *cycleLog) Redacted(red, _, surv int) {
	l.cur += fmt.Sprintf(" redacted=%d survivors=%d", red, surv)
}
func (l *cycleLog) RuleFired(rule string, n int) { l.cur += fmt.Sprintf(" %s×%d", rule, n) }
func (l *cycleLog) Commit(int, int, bool)        { l.lines = append(l.lines, l.cur) }

// TestRestoreMidRunRebuildsRedactionState: the meta level — images and
// their witnesses — is never persisted; the first match phase
// after a restore rebuilds it from the restored working memory and
// refraction set. Pausing at every cycle boundary of a redaction-heavy run,
// transplanting the replayable state into a fresh engine (on the other
// matcher, with another worker count) and continuing must reproduce the
// uninterrupted run exactly: per-cycle eligible, redacted and fired counts,
// the counters, and the final snapshot byte for byte.
//
// The third program is the sharp case: its fired instantiations stay in
// the conflict set, refracted, and its meta-rule would let any of them
// redact everything after it — so a restore that reified refracted
// instantiations would stall the run.
func TestRestoreMidRunRebuildsRedactionState(t *testing.T) {
	persistent := compileOK(t, `
(literalize item n)
(literalize out n)
(rule emit (item ^n <n>) --> (make out ^n <n>))
(metarule one-at-a-time
  [<i> (emit ^n <a>)]
  [<j> (emit ^n <b>)]
  (test (< <a> <b>))
-->
  (redact <j>))
`)
	load := func(name string) *compile.Program {
		prog, err := programs.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}
	cases := []struct {
		name string
		prog *compile.Program
		load func(workload.Inserter) error
	}{
		{"alexsys", load(programs.Alexsys), func(i workload.Inserter) error { return workload.Alexsys(i, 20, 16, 1) }},
		{"manners", load(programs.Manners), func(i workload.Inserter) error { return workload.Manners(i, 10, 2, 4, 1) }},
		{"persistent", persistent, func(i workload.Inserter) error {
			for n := int64(0); n < 6; n++ {
				if _, err := i.Insert("item", map[string]wm.Value{"n": wm.Int(n)}); err != nil {
					return err
				}
			}
			return nil
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var whole cycleLog
			ref := New(tc.prog, Options{MaxCycles: 1 << 12, Tracer: &whole})
			if err := tc.load(ref); err != nil {
				t.Fatal(err)
			}
			want := runOK(t, ref)
			if want.Redactions == 0 || want.Cycles < 3 {
				t.Fatalf("run too tame to test anything: %+v", want)
			}
			refracted := 0
			for pause := 1; pause < want.Cycles; pause++ {
				var head, tail cycleLog
				orig := New(tc.prog, Options{MaxCycles: 1 << 12, Tracer: &head})
				if err := tc.load(orig); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < pause; i++ {
					if _, err := orig.Step(); err != nil {
						t.Fatal(err)
					}
				}
				refracted += len(orig.FiredKeys())
				restored := transplantWith(t, orig, tc.prog, Options{Matcher: treat.New, MaxCycles: 1 << 12, Tracer: &tail})
				sameRefraction(t, orig, restored)
				head.lines = head.lines[:pause] // the restored engine logs the step both took
				got := runOK(t, restored)
				if got.Cycles != want.Cycles || got.Firings != want.Firings || got.Redactions != want.Redactions || got.WriteConflicts != want.WriteConflicts {
					t.Fatalf("pause=%d: restored run ended at %+v, uninterrupted at %+v", pause, got, want)
				}
				if lines := append(head.lines, tail.lines...); !reflect.DeepEqual(lines, whole.lines) {
					t.Fatalf("pause=%d: cycle log diverged\n got: %q\nwant: %q", pause, lines, whole.lines)
				}
				if a, b := snapshotText(t, ref), snapshotText(t, restored); a != b {
					t.Fatalf("pause=%d: snapshots differ\n-- uninterrupted --\n%s\n-- restored --\n%s", pause, a, b)
				}
				if a, b := len(checkTable(t, restored)), len(checkTable(t, ref)); restored.meta == nil || a != b {
					t.Fatalf("pause=%d: restored engine ends with %d images, uninterrupted with %d", pause, a, b)
				}
			}
			if refracted == 0 {
				t.Fatal("no pause point had a non-empty refraction set")
			}
		})
	}
}
