// Package ops5 implements the sequential OPS5-style baseline engine the
// paper compares PARULEL against: the classic recognize–act cycle that
// matches all rules, selects exactly ONE instantiation with a built-in
// conflict-resolution strategy (LEX or MEA), fires it, and repeats.
//
// It shares the language front end, compiled representation and match
// networks with the PARULEL engine, so experiments isolate the semantics
// difference (fire-one vs fire-all) from match-cost differences.
// Meta-rules in the program are ignored: OPS5 conflict resolution is fixed
// by the strategy, which is exactly the limitation PARULEL's redaction
// meta-rules remove.
package ops5

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"parulel/internal/compile"
	"parulel/internal/match"
	"parulel/internal/match/rete"
	"parulel/internal/wm"
)

// Strategy selects the OPS5 conflict-resolution strategy.
type Strategy uint8

// The two classic OPS5 strategies.
const (
	// LEX orders by recency of the sorted time tags, then specificity.
	LEX Strategy = iota
	// MEA additionally gives absolute priority to the recency of the
	// first condition element (the "means-ends" control element).
	MEA
)

func (s Strategy) String() string {
	if s == MEA {
		return "MEA"
	}
	return "LEX"
}

// Options configures the baseline engine.
type Options struct {
	Strategy  Strategy
	Matcher   match.Factory // default rete.New
	Output    io.Writer     // default io.Discard
	MaxCycles int           // 0 = unlimited
}

// Result summarizes a run. In OPS5 one cycle fires one instantiation, so
// Cycles == Firings unless the run halted during selection.
type Result struct {
	Cycles  int
	Firings int
	Halted  bool
	// Phases is the wall-clock time of match, selection and firing summed
	// over the cycles, in the slots of core.Phase (selection in redact's;
	// firing applies its effects as it goes, so apply's stays zero).
	Phases [4]time.Duration
}

// ErrMaxCycles is returned when Options.MaxCycles is exceeded.
var ErrMaxCycles = errors.New("ops5: maximum cycle count exceeded")

// ErrCanceled is returned by RunContext when its context ends before the
// run reaches quiescence; it also wraps the context's own error.
var ErrCanceled = errors.New("ops5: run canceled")

// Engine is the sequential baseline interpreter.
type Engine struct {
	prog    *compile.Program
	mem     *wm.Memory
	opts    Options
	matcher match.Matcher

	conflictSet map[match.Key]*match.Instantiation
	fired       map[match.Key]bool
	pending     wm.Delta
	result      Result
	halted      bool
}

// New creates a baseline engine over the full rule set.
func New(prog *compile.Program, opts Options) *Engine {
	if opts.Matcher == nil {
		opts.Matcher = rete.New
	}
	if opts.Output == nil {
		opts.Output = io.Discard
	}
	e := &Engine{
		prog:        prog,
		mem:         wm.NewMemory(prog.Schema),
		opts:        opts,
		matcher:     opts.Matcher(prog.Rules),
		conflictSet: make(map[match.Key]*match.Instantiation),
		fired:       make(map[match.Key]bool),
	}
	for _, f := range prog.Facts {
		w := e.mem.InsertFields(f.Tmpl, append([]wm.Value(nil), f.Fields...))
		e.pending.Added = append(e.pending.Added, w)
	}
	return e
}

// Memory exposes the working memory.
func (e *Engine) Memory() *wm.Memory { return e.mem }

// Insert queues a fact programmatically.
func (e *Engine) Insert(template string, fields map[string]wm.Value) (*wm.WME, error) {
	w, err := e.mem.Insert(template, fields)
	if err != nil {
		return nil, err
	}
	e.pending.Added = append(e.pending.Added, w)
	return w, nil
}

// InsertFields queues a fact with a positional field vector.
func (e *Engine) InsertFields(t *wm.Template, fields []wm.Value) *wm.WME {
	w := e.mem.InsertFields(t, fields)
	e.pending.Added = append(e.pending.Added, w)
	return w
}

// Run executes recognize–act cycles to quiescence, halt, or the limit.
func (e *Engine) Run() (Result, error) { return e.RunContext(context.Background()) }

// RunContext is Run with cancellation, observed at cycle boundaries so
// working memory is always left in a consistent committed state.
func (e *Engine) RunContext(ctx context.Context) (Result, error) {
	for {
		if err := ctx.Err(); err != nil {
			return e.result, fmt.Errorf("%w: %w", ErrCanceled, err)
		}
		progress, err := e.Step()
		if err != nil {
			return e.result, err
		}
		if !progress {
			return e.result, nil
		}
		if e.opts.MaxCycles > 0 && e.result.Cycles >= e.opts.MaxCycles {
			return e.result, fmt.Errorf("%w (%d)", ErrMaxCycles, e.opts.MaxCycles)
		}
	}
}

// Step runs one recognize–act cycle (match, select one, fire it).
func (e *Engine) Step() (bool, error) {
	if e.halted {
		return false, nil
	}
	t0 := time.Now()
	ch := e.matcher.Apply(e.pending)
	e.pending = wm.Delta{}
	for _, in := range ch.Removed {
		delete(e.conflictSet, in.Key())
		delete(e.fired, in.Key())
	}
	for _, in := range ch.Added {
		e.conflictSet[in.Key()] = in
	}
	matched := time.Since(t0)

	t0 = time.Now()
	best := e.selectInstantiation()
	selected := time.Since(t0)
	if best == nil {
		return false, nil
	}

	t0 = time.Now()
	halted, err := e.fire(best)
	if err != nil {
		return false, err
	}
	e.result.Phases[0] += matched
	e.result.Phases[1] += selected
	e.result.Phases[2] += time.Since(t0)
	e.fired[best.Key()] = true
	e.result.Firings++
	e.result.Cycles++
	e.halted = halted
	e.result.Halted = halted
	return !halted, nil
}

// ExplainConflictSet writes a human-readable listing of the current
// conflict set (see match.Explain).
func (e *Engine) ExplainConflictSet(w io.Writer) error {
	ins := make([]*match.Instantiation, 0, len(e.conflictSet))
	for _, in := range e.conflictSet {
		ins = append(ins, in)
	}
	match.SortInstantiations(ins)
	return match.Explain(w, ins, func(in *match.Instantiation) bool { return e.fired[in.Key()] }, nil)
}

// selectInstantiation applies refraction and the configured strategy.
func (e *Engine) selectInstantiation() *match.Instantiation {
	var best *match.Instantiation
	for k, in := range e.conflictSet {
		if e.fired[k] {
			continue
		}
		if best == nil || e.prefer(in, best) {
			best = in
		}
	}
	return best
}

// prefer reports whether a should fire before b under the strategy.
func (e *Engine) prefer(a, b *match.Instantiation) bool {
	if e.opts.Strategy == MEA {
		at, bt := a.WMEs[0].Time, b.WMEs[0].Time
		if at != bt {
			return at > bt
		}
	}
	if c := compareRecency(a, b); c != 0 {
		return c > 0
	}
	if a.Rule.Specificity != b.Rule.Specificity {
		return a.Rule.Specificity > b.Rule.Specificity
	}
	// Deterministic final tie-break.
	return a.Compare(b) < 0
}

// compareRecency implements OPS5 LEX recency: compare the time tags of
// each instantiation sorted in descending order; the first difference
// decides; if one instantiation exhausts its tags first, the other (which
// still has tags) dominates.
func compareRecency(a, b *match.Instantiation) int {
	at, bt := sortedTagsDesc(a), sortedTagsDesc(b)
	n := len(at)
	if len(bt) < n {
		n = len(bt)
	}
	for i := 0; i < n; i++ {
		switch {
		case at[i] > bt[i]:
			return 1
		case at[i] < bt[i]:
			return -1
		}
	}
	switch {
	case len(at) > len(bt):
		return 1
	case len(at) < len(bt):
		return -1
	}
	return 0
}

func sortedTagsDesc(in *match.Instantiation) []int64 {
	tags := make([]int64, len(in.WMEs))
	for i, w := range in.WMEs {
		tags[i] = w.Time
	}
	sort.Slice(tags, func(i, j int) bool { return tags[i] > tags[j] })
	return tags
}

// env implements compile.Env for sequential RHS execution.
type env struct {
	inst   *match.Instantiation
	locals []wm.Value
}

func (v *env) Ref(r compile.VarRef) wm.Value { return v.inst.Binding(r) }
func (v *env) Local(i int) wm.Value          { return v.locals[i] }

// fire executes one instantiation's RHS, applying effects to working
// memory immediately (sequential semantics) and accumulating the WM delta
// for the next match phase.
func (e *Engine) fire(in *match.Instantiation) (bool, error) {
	ev := &env{inst: in}
	if n := in.Rule.NumLocals; n > 0 {
		ev.locals = make([]wm.Value, n)
	}
	var out bytes.Buffer
	halted := false
	for _, a := range in.Rule.Actions {
		switch a.Kind {
		case compile.ActMake:
			fields := make([]wm.Value, a.Tmpl.Arity())
			for _, s := range a.Slots {
				v, err := s.Expr.Eval(ev)
				if err != nil {
					return false, fmt.Errorf("ops5: firing %s: %w", in, err)
				}
				fields[s.Field] = v
			}
			w := e.mem.InsertFields(a.Tmpl, fields)
			e.pending.Added = append(e.pending.Added, w)
		case compile.ActModify:
			old := in.WMEs[a.Target]
			fields := append([]wm.Value(nil), old.Fields...)
			for _, s := range a.Slots {
				v, err := s.Expr.Eval(ev)
				if err != nil {
					return false, fmt.Errorf("ops5: firing %s: %w", in, err)
				}
				fields[s.Field] = v
			}
			if w, ok := e.mem.Remove(old.Time); ok {
				e.pending.Removed = append(e.pending.Removed, w)
			}
			nw := e.mem.InsertFields(old.Tmpl, fields)
			e.pending.Added = append(e.pending.Added, nw)
		case compile.ActRemove:
			for _, t := range a.Targets {
				if w, ok := e.mem.Remove(in.WMEs[t].Time); ok {
					e.pending.Removed = append(e.pending.Removed, w)
				}
			}
		case compile.ActBind:
			if len(a.Exprs) == 0 {
				ev.locals[a.Local] = wm.Sym(fmt.Sprintf("g%s/%d", in.KeyString(), a.Local))
				continue
			}
			v, err := a.Exprs[0].Eval(ev)
			if err != nil {
				return false, fmt.Errorf("ops5: firing %s: %w", in, err)
			}
			ev.locals[a.Local] = v
		case compile.ActWrite:
			for _, x := range a.Exprs {
				v, err := x.Eval(ev)
				if err != nil {
					return false, fmt.Errorf("ops5: firing %s: %w", in, err)
				}
				if v.Kind == wm.KindStr {
					out.WriteString(v.S)
				} else {
					out.WriteString(v.String())
				}
			}
		case compile.ActHalt:
			halted = true
		}
	}
	if out.Len() > 0 {
		if _, err := e.opts.Output.Write(out.Bytes()); err != nil {
			return false, fmt.Errorf("ops5: write action output: %w", err)
		}
	}
	return halted, nil
}
