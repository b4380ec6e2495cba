// Package parulel is a Go implementation of PARULEL, the parallel rule
// language of Stolfo et al. (Proc. ICPP 1991): an OPS5-style production
// system whose semantics expose parallelism in two ways — every
// instantiation surviving *redaction* fires in the same cycle, and
// conflict resolution is programmed declaratively as redaction meta-rules
// over the conflict set instead of being hard-wired.
//
// The package is a thin facade over the engine internals. A minimal
// session:
//
//	prog, err := parulel.Parse(src)           // PARULEL source text
//	eng := parulel.NewEngine(prog, parulel.Config{})
//	eng.Insert("pool", map[string]parulel.Value{"id": parulel.Int(1)})
//	result, err := eng.Run()
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// reproduced evaluation.
package parulel

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"parulel/internal/compile"
	"parulel/internal/core"
	"parulel/internal/lang"
	"parulel/internal/match"
	"parulel/internal/match/rete"
	"parulel/internal/match/treat"
	"parulel/internal/obs"
	"parulel/internal/ops5"
	"parulel/internal/programs"
	"parulel/internal/reorder"
	"parulel/internal/snapshot"
	"parulel/internal/stats"
	"parulel/internal/wm"
)

// Value is a rule-language scalar (nil, int, float, symbol or string).
type Value = wm.Value

// WME is a working-memory element.
type WME = wm.WME

// Value constructors, re-exported for callers of Insert and Facts.
var (
	Nil   = wm.Nil
	Int   = wm.Int
	Float = wm.Float
	Sym   = wm.Sym
	Str   = wm.Str
	Bool  = wm.Bool
)

// Program is a parsed and compiled PARULEL program.
type Program struct {
	ast      *lang.Program
	compiled *compile.Program
}

// Parse parses and compiles PARULEL source text.
func Parse(src string) (*Program, error) {
	ast, err := lang.Parse(src)
	if err != nil {
		return nil, err
	}
	compiled, err := compile.Compile(ast)
	if err != nil {
		return nil, err
	}
	return &Program{ast: ast, compiled: compiled}, nil
}

// Builtin program names shipped with the library.
const (
	Quickstart = programs.Quickstart
	Alexsys    = programs.Alexsys
	Waltz      = programs.Waltz
	Closure    = programs.Closure
	Manners    = programs.Manners
	Life       = programs.Life
	Circuit    = programs.Circuit
)

// Builtins lists the names accepted by LoadBuiltin.
func Builtins() []string { return programs.All() }

// LoadBuiltin loads one of the embedded example programs.
func LoadBuiltin(name string) (*Program, error) {
	src, err := programs.Source(name)
	if err != nil {
		return nil, err
	}
	return Parse(src)
}

// BuiltinSource returns the PARULEL source of an embedded program.
func BuiltinSource(name string) (string, error) { return programs.Source(name) }

// Source renders the program back to canonical PARULEL source.
func (p *Program) Source() string { return lang.Print(p.ast) }

// Rules returns the object-rule names in declaration order.
func (p *Program) Rules() []string {
	out := make([]string, len(p.compiled.Rules))
	for i, r := range p.compiled.Rules {
		out[i] = r.Name
	}
	return out
}

// MetaRules returns the meta-rule names in declaration order.
func (p *Program) MetaRules() []string {
	out := make([]string, len(p.compiled.MetaRules))
	for i, m := range p.compiled.MetaRules {
		out[i] = m.Name
	}
	return out
}

// WithoutMetaRules returns a copy of the program with every meta-rule
// removed (used to demonstrate unredacted parallel firing).
func (p *Program) WithoutMetaRules() (*Program, error) {
	stripped := *p.ast
	stripped.MetaRules = nil
	compiled, err := compile.Compile(&stripped)
	if err != nil {
		return nil, err
	}
	return &Program{ast: &stripped, compiled: compiled}, nil
}

// Optimize applies the join-ordering pass: each rule's condition
// elements are rearranged most-constrained-first (docs/LANGUAGE.md and
// internal/reorder describe the constraints and the tie-breaking
// caveat). BenchmarkReorder in internal/reorder measures the effect.
func (p *Program) Optimize() (*Program, error) {
	ast := reorder.Program(p.ast)
	compiled, err := compile.Compile(ast)
	if err != nil {
		return nil, err
	}
	return &Program{ast: ast, compiled: compiled}, nil
}

// EngineKind selects the execution semantics.
type EngineKind uint8

// Engine kinds.
const (
	// Parulel is the parallel-firing engine with meta-rule redaction.
	Parulel EngineKind = iota
	// OPS5LEX is the sequential baseline with LEX conflict resolution.
	OPS5LEX
	// OPS5MEA is the sequential baseline with MEA conflict resolution.
	OPS5MEA
)

// MatcherKind selects the incremental match algorithm for object rules.
// Meta-rules are matched by the PARULEL engine's own meta level whichever
// is chosen.
type MatcherKind uint8

// Matcher kinds.
const (
	RETE MatcherKind = iota
	TREAT
)

// Tracer receives structured per-cycle callbacks from the PARULEL
// engine (cycle boundaries, phase durations, redaction outcomes, rule
// firings, commits). The callback contract — ordering, the quiescence
// probe, threading — is documented on core.Tracer; docs/OBSERVABILITY.md
// has the narrative version. A nil Tracer costs nothing.
type Tracer = core.Tracer

// Config configures an Engine.
type Config struct {
	Engine    EngineKind
	Matcher   MatcherKind
	Output    io.Writer // destination of (write …); default discard
	MaxCycles int       // 0 = unlimited
	Trace     io.Writer // optional per-cycle trace (PARULEL only)
	// Tracer receives structured cycle events (PARULEL only); it composes
	// with Trace, which stays a human-readable text log.
	Tracer Tracer
}

func (c Config) factory() match.Factory {
	if c.Matcher == TREAT {
		return treat.New
	}
	return rete.New
}

// Result summarizes a run.
type Result struct {
	Cycles         int
	Firings        int
	Redactions     int
	WriteConflicts int
	Halted         bool
	// Phase shares of wall time, in percent (match, redact/select, fire,
	// apply).
	MatchPct, RedactPct, FirePct, ApplyPct float64
}

// Engine executes a Program under the configured semantics.
type Engine struct {
	par *core.Engine
	seq *ops5.Engine
}

// NewEngine builds an engine for the program.
func NewEngine(p *Program, cfg Config) *Engine {
	switch cfg.Engine {
	case OPS5LEX, OPS5MEA:
		strategy := ops5.LEX
		if cfg.Engine == OPS5MEA {
			strategy = ops5.MEA
		}
		return &Engine{seq: ops5.New(p.compiled, ops5.Options{
			Strategy:  strategy,
			Matcher:   cfg.factory(),
			Output:    cfg.Output,
			MaxCycles: cfg.MaxCycles,
		})}
	default:
		tracer := cfg.Tracer
		if cfg.Trace != nil {
			tracer = obs.NewTextWriter(cfg.Trace)
			if cfg.Tracer != nil {
				tracer = tee{tracer, cfg.Tracer}
			}
		}
		return &Engine{par: core.New(p.compiled, core.Options{
			Matcher:   cfg.factory(),
			Output:    cfg.Output,
			MaxCycles: cfg.MaxCycles,
			Tracer:    tracer,
		})}
	}
}

// tee feeds Config.Trace's text log and then Config.Tracer, the one place
// an engine has two tracers.
type tee [2]core.Tracer

func (t tee) CycleStart(n int)                       { t[0].CycleStart(n); t[1].CycleStart(n) }
func (t tee) PhaseEnd(p core.Phase, d time.Duration) { t[0].PhaseEnd(p, d); t[1].PhaseEnd(p, d) }
func (t tee) InstantiationsFound(cs, el int) {
	t[0].InstantiationsFound(cs, el)
	t[1].InstantiationsFound(cs, el)
}
func (t tee) Redacted(n, rounds, left int) {
	t[0].Redacted(n, rounds, left)
	t[1].Redacted(n, rounds, left)
}
func (t tee) RuleFired(rule string, n int) { t[0].RuleFired(rule, n); t[1].RuleFired(rule, n) }
func (t tee) Commit(delta, conflicts int, halted bool) {
	t[0].Commit(delta, conflicts, halted)
	t[1].Commit(delta, conflicts, halted)
}

// Insert adds a fact before (or between) runs.
func (e *Engine) Insert(template string, fields map[string]Value) (*WME, error) {
	if e.seq != nil {
		return e.seq.Insert(template, fields)
	}
	return e.par.Insert(template, fields)
}

// Run executes to quiescence, halt, or the cycle limit.
func (e *Engine) Run() (Result, error) { return e.RunContext(context.Background()) }

// RunContext is Run with cancellation: when ctx ends before quiescence the
// engine stops at the next cycle boundary, leaving working memory in a
// consistent committed state, and returns an error for which IsCanceled
// reports true (and which wraps ctx.Err()). The run may be resumed by
// calling Run or RunContext again.
func (e *Engine) RunContext(ctx context.Context) (Result, error) {
	if e.seq != nil {
		res, err := e.seq.RunContext(ctx)
		m, r, f, a := stats.Breakdown(res.Phases)
		return Result{
			Cycles: res.Cycles, Firings: res.Firings, Halted: res.Halted,
			MatchPct: m, RedactPct: r, FirePct: f, ApplyPct: a,
		}, err
	}
	res, err := e.par.RunContext(ctx)
	m, r, f, a := stats.Breakdown(res.Phases)
	return Result{
		Cycles: res.Cycles, Firings: res.Firings, Redactions: res.Redactions,
		WriteConflicts: res.WriteConflicts, Halted: res.Halted,
		MatchPct: m, RedactPct: r, FirePct: f, ApplyPct: a,
	}, err
}

// IsCanceled reports whether err came from a RunContext whose context
// ended before the run finished (as opposed to a rule-evaluation error or
// the cycle limit).
func IsCanceled(err error) bool {
	return errors.Is(err, core.ErrCanceled) || errors.Is(err, ops5.ErrCanceled)
}

// Explain writes a human-readable listing of the current conflict set
// (rules, matched elements, bindings, refraction status and, for the
// PARULEL engine, which meta-rules redacted an instantiation at the last
// redact phase and with which others).
func (e *Engine) Explain(w io.Writer) error {
	if e.seq != nil {
		return e.seq.ExplainConflictSet(w)
	}
	return e.par.ExplainConflictSet(w)
}

// DumpWM writes the current working memory as a PARULEL `(wm …)` block,
// loadable by LoadWM or runnable directly alongside a program file.
func (e *Engine) DumpWM(w io.Writer) error {
	if e.seq != nil {
		return snapshot.Write(w, e.seq.Memory())
	}
	return snapshot.Write(w, e.par.Memory())
}

// LoadWM reads `(wm …)` blocks and queues every fact for the next run.
// It returns the number of facts loaded.
func (e *Engine) LoadWM(r io.Reader) (int, error) {
	return snapshot.Read(r, e)
}

// Facts returns the live WMEs of a template, ordered by time tag.
func (e *Engine) Facts(template string) []*WME {
	if e.seq != nil {
		return e.seq.Memory().OfTemplate(template)
	}
	return e.par.Memory().OfTemplate(template)
}

// FactCount returns the number of live WMEs of a template.
func (e *Engine) FactCount(template string) int {
	if e.seq != nil {
		return e.seq.Memory().CountOf(template)
	}
	return e.par.Memory().CountOf(template)
}

// WMSize returns the total number of live WMEs.
func (e *Engine) WMSize() int {
	if e.seq != nil {
		return e.seq.Memory().Len()
	}
	return e.par.Memory().Len()
}

// String names the engine kind for logs.
func (k EngineKind) String() string {
	switch k {
	case OPS5LEX:
		return "ops5-lex"
	case OPS5MEA:
		return "ops5-mea"
	default:
		return "parulel"
	}
}

// String names the matcher kind for logs.
func (k MatcherKind) String() string {
	if k == TREAT {
		return "treat"
	}
	return "rete"
}

// ParseEngineKind converts a CLI flag value.
func ParseEngineKind(s string) (EngineKind, error) {
	switch s {
	case "parulel":
		return Parulel, nil
	case "ops5", "ops5-lex", "lex":
		return OPS5LEX, nil
	case "ops5-mea", "mea":
		return OPS5MEA, nil
	default:
		return 0, fmt.Errorf("parulel: unknown engine %q (want parulel, ops5-lex or ops5-mea)", s)
	}
}

// ParseMatcherKind converts a CLI flag value.
func ParseMatcherKind(s string) (MatcherKind, error) {
	switch s {
	case "rete":
		return RETE, nil
	case "treat":
		return TREAT, nil
	default:
		return 0, fmt.Errorf("parulel: unknown matcher %q (want rete or treat)", s)
	}
}
