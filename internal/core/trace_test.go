package core

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// recordingTracer logs the callback sequence as compact strings so tests
// can assert on both order and payloads.
type recordingTracer struct {
	log []string
}

func (r *recordingTracer) CycleStart(n int) { r.log = append(r.log, fmt.Sprintf("start:%d", n)) }
func (r *recordingTracer) PhaseEnd(p Phase, d time.Duration) {
	r.log = append(r.log, "phase:"+p.String())
}
func (r *recordingTracer) InstantiationsFound(cs, el int) {
	r.log = append(r.log, fmt.Sprintf("found:%d/%d", cs, el))
}
func (r *recordingTracer) Redacted(red, rounds, survivors int) {
	r.log = append(r.log, fmt.Sprintf("redact:%d/%d/%d", red, rounds, survivors))
}
func (r *recordingTracer) RuleFired(rule string, count int) {
	r.log = append(r.log, fmt.Sprintf("fired:%s:%d", rule, count))
}
func (r *recordingTracer) Commit(delta, conflicts int, halted bool) {
	r.log = append(r.log, fmt.Sprintf("commit:%d/%d/%v", delta, conflicts, halted))
}

func TestTracerCallbackOrder(t *testing.T) {
	prog := compileOK(t, `
(literalize src id)
(literalize sink id)
(rule expand
  (src ^id <i>)
-->
  (make sink ^id <i>)
  (remove 1))
(wm (src ^id 1) (src ^id 2))
`)
	tr := &recordingTracer{}
	e := New(prog, Options{Tracer: tr})
	res := runOK(t, e)
	if res.Cycles != 1 {
		t.Fatalf("cycles = %d, want 1", res.Cycles)
	}
	want := []string{
		"start:1",
		"phase:match", "found:2/2",
		"phase:redact", "redact:0/0/2",
		"phase:fire", "fired:expand:2",
		"phase:apply", "commit:4/0/false",
		// Quiescence probe: a CycleStart with no Commit.
		"start:2",
		"phase:match", "found:0/0",
	}
	if got := strings.Join(tr.log, " "); got != strings.Join(want, " ") {
		t.Errorf("callback sequence:\n got: %s\nwant: %s", got, strings.Join(want, " "))
	}
}

func TestTracerAllRedactedCycleCommits(t *testing.T) {
	// Mutual redaction kills every instantiation: the cycle still commits,
	// with zero fired rules and an empty delta.
	prog := compileOK(t, `
(literalize a x)
(literalize out x)
(rule r (a ^x <v>) --> (make out ^x <v>))
(metarule duel
  [<i> (r ^v <v1>)]
  [<j> (r ^v <v2>)]
  (test (<> <v1> <v2>))
-->
  (redact <j>))
(wm (a ^x 1) (a ^x 2))
`)
	tr := &recordingTracer{}
	e := New(prog, Options{MaxCycles: 10, Tracer: tr})
	res := runOK(t, e)
	if res.Redactions != 2 {
		t.Fatalf("redactions = %d, want 2", res.Redactions)
	}
	seq := strings.Join(tr.log, " ")
	if !strings.Contains(seq, "redact:2/1/0 phase:fire phase:apply commit:0/0/false") {
		t.Errorf("all-redacted cycle should commit empty, got:\n%s", seq)
	}
	if strings.Contains(seq, "fired:") {
		t.Errorf("no rule should fire, got:\n%s", seq)
	}
}

func TestTracerHaltAndRuleOrder(t *testing.T) {
	// Two rules fire in one cycle, one halts; RuleFired calls arrive in
	// lexicographic rule-name order.
	prog := compileOK(t, `
(literalize a x)
(literalize out x)
(rule zeta (a ^x <v>) --> (make out ^x <v>))
(rule alpha (a ^x <v>) --> (halt))
(wm (a ^x 1))
`)
	tr := &recordingTracer{}
	e := New(prog, Options{MaxCycles: 10, Tracer: tr})
	res := runOK(t, e)
	if !res.Halted {
		t.Fatal("should halt")
	}
	seq := strings.Join(tr.log, " ")
	if !strings.Contains(seq, "fired:alpha:1 fired:zeta:1") {
		t.Errorf("RuleFired not in name order:\n%s", seq)
	}
	if !strings.HasSuffix(seq, "commit:1/0/true") {
		t.Errorf("halting commit missing:\n%s", seq)
	}
}

func TestEngineRuleFiresAndProfiles(t *testing.T) {
	prog := compileOK(t, determinismProgram)
	e := New(prog, Options{MaxCycles: 50})
	runOK(t, e)
	fires := e.RuleFires()
	if len(fires) == 0 || fires["propose"] == 0 {
		t.Fatalf("RuleFires = %v, want propose > 0", fires)
	}
	profs := e.RuleProfiles()
	if len(profs) == 0 {
		t.Fatal("RuleProfiles empty; default matcher should implement match.RuleProfiler")
	}
	byName := map[string]bool{}
	for _, p := range profs {
		byName[p.Rule] = true
		if p.Rule == "propose" {
			if p.Insts == 0 {
				t.Errorf("propose insts = 0, want > 0")
			}
			if p.Fires != uint64(fires["propose"]) {
				t.Errorf("propose fires = %d, want %d", p.Fires, fires["propose"])
			}
		}
	}
	if !byName["propose"] || !byName["award"] {
		t.Fatalf("profiles missing rules: %v", profs)
	}
}
