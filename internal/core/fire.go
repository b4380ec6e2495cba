package core

import (
	"bytes"
	"fmt"
	"time"

	"parulel/internal/compile"
	"parulel/internal/match"
	"parulel/internal/wm"
)

// effect is the buffered outcome of firing one instantiation. Every
// survivor is evaluated against the cycle's starting state, so no firing
// sees another's effect; the effects are committed together, in survivor
// order, at the cycle's barrier.
type effect struct {
	makes    []pendingMake
	removes  []*wm.WME
	modifies []pendingModify
	output   []byte
	halt     bool
	err      error
}

type pendingMake struct {
	tmpl   *wm.Template
	fields []wm.Value
}

type pendingModify struct {
	old    *wm.WME
	fields []wm.Value
}

// ruleEnv implements compile.Env for RHS evaluation.
type ruleEnv struct {
	inst   *match.Instantiation
	locals []wm.Value
}

func (e *ruleEnv) Ref(r compile.VarRef) wm.Value { return e.inst.Binding(r) }
func (e *ruleEnv) Local(i int) wm.Value          { return e.locals[i] }

// fireFrame is the engine's evaluation state reused across firings: the
// binding environment, the locals buffer and the `(write …)` buffer are
// built once per engine and reset per firing, so the inner action loop
// never rebuilds the environment (and, under the bytecode backend,
// allocates nothing at all beyond the effects).
type fireFrame struct {
	env ruleEnv
	out bytes.Buffer
}

// reset points the frame at the next instantiation. Locals are cleared:
// stale values from the previous firing must not leak into a rule that
// reads a slot before binding it.
func (f *fireFrame) reset(in *match.Instantiation) {
	f.env.inst = in
	n := in.Rule.NumLocals
	if cap(f.env.locals) < n {
		f.env.locals = make([]wm.Value, n)
	} else {
		f.env.locals = f.env.locals[:n]
		for i := range f.env.locals {
			f.env.locals[i] = wm.Value{}
		}
	}
	f.out.Reset()
}

// fireAll evaluates every survivor's RHS into a buffered effect. The
// returned slice is indexed like survivors, so commit order is survivor
// order; it is the engine's scratch, for the caller to clear once
// committed.
func (e *Engine) fireAll(survivors []*match.Instantiation) ([]effect, error) {
	if cap(e.effects) < len(survivors) {
		e.effects = make([]effect, len(survivors))
	}
	effects := e.effects[:len(survivors)]
	t0 := time.Now()
	for i, in := range survivors {
		effects[i] = fireOne(in, &e.frame)
	}
	e.frame.env.inst = nil // hold no instantiation between cycles
	e.fireWork += time.Since(t0)
	for i := range effects {
		if err := effects[i].err; err != nil {
			clear(effects)
			return nil, fmt.Errorf("core: firing %s: %w", survivors[i], err)
		}
	}
	return effects, nil
}

// fireOne evaluates one instantiation's RHS into a buffered effect, using
// the engine's reusable frame for the environment and output buffer.
func fireOne(in *match.Instantiation, f *fireFrame) effect {
	var eff effect
	f.reset(in)
	env := &f.env
	for _, a := range in.Rule.Actions {
		switch a.Kind {
		case compile.ActMake:
			fields := make([]wm.Value, a.Tmpl.Arity())
			for _, s := range a.Slots {
				v, err := s.Expr.Eval(env)
				if err != nil {
					eff.err = err
					return eff
				}
				fields[s.Field] = v
			}
			eff.makes = append(eff.makes, pendingMake{tmpl: a.Tmpl, fields: fields})
		case compile.ActModify:
			old := in.WMEs[a.Target]
			fields := append([]wm.Value(nil), old.Fields...)
			for _, s := range a.Slots {
				v, err := s.Expr.Eval(env)
				if err != nil {
					eff.err = err
					return eff
				}
				fields[s.Field] = v
			}
			eff.modifies = append(eff.modifies, pendingModify{old: old, fields: fields})
		case compile.ActRemove:
			for _, t := range a.Targets {
				eff.removes = append(eff.removes, in.WMEs[t])
			}
		case compile.ActBind:
			if len(a.Exprs) == 0 {
				// Gensym: unique per (instantiation, bind slot), so
				// deterministic whatever else fires in the cycle.
				env.locals[a.Local] = wm.Sym(fmt.Sprintf("g%s/%d", in.KeyString(), a.Local))
				continue
			}
			v, err := a.Exprs[0].Eval(env)
			if err != nil {
				eff.err = err
				return eff
			}
			env.locals[a.Local] = v
		case compile.ActWrite:
			for _, x := range a.Exprs {
				v, err := x.Eval(env)
				if err != nil {
					eff.err = err
					return eff
				}
				if v.Kind == wm.KindStr {
					f.out.WriteString(v.S)
				} else {
					f.out.WriteString(v.String())
				}
			}
		case compile.ActHalt:
			eff.halt = true
		}
	}
	// The frame's buffer is reused across firings, so the effect takes a
	// copy; most firings write nothing and skip the allocation entirely.
	if f.out.Len() > 0 {
		eff.output = append([]byte(nil), f.out.Bytes()...)
	}
	return eff
}

// opKind tracks the first operation claimed on a WME during commit.
type opKind uint8

const (
	opRemove opKind = iota + 1
	opModify
)

// commit reconciles buffered effects into one working-memory delta.
//
// Reconciliation rules (deterministic, order = survivor order):
//   - a `remove` of a WME already removed this cycle is benign (removes
//     commute);
//   - any other second operation on the same WME — modify+modify,
//     modify+remove, remove+modify — is a *write conflict*: the first
//     operation wins, the later one is dropped and counted. PARULEL
//     programs are expected to redact such combinations away with
//     meta-rules; the count is the interference signal experiment E6
//     reports.
func (e *Engine) commit(effects []effect) (wm.Delta, int, bool, error) {
	var delta wm.Delta
	conflicts := 0
	halted := false
	// claimed records the first operation on each WME removed or modified
	// this cycle; a cycle that only makes needs none.
	var claimed map[int64]opKind
	claim := func(w *wm.WME, k opKind) {
		if claimed == nil {
			claimed = make(map[int64]opKind, len(effects))
		}
		claimed[w.Time] = k
	}

	for i := range effects {
		eff := &effects[i]
		if eff.halt {
			halted = true
		}
		for _, old := range eff.removes {
			if k, taken := claimed[old.Time]; taken {
				if k != opRemove {
					conflicts++
				}
				continue
			}
			claim(old, opRemove)
			if w, ok := e.mem.Remove(old.Time); ok {
				delta.Removed = append(delta.Removed, w)
			}
		}
		for _, m := range eff.modifies {
			if _, taken := claimed[m.old.Time]; taken {
				conflicts++
				continue
			}
			claim(m.old, opModify)
			if w, ok := e.mem.Remove(m.old.Time); ok {
				delta.Removed = append(delta.Removed, w)
			}
			nw := e.mem.InsertFields(m.old.Tmpl, m.fields)
			delta.Added = append(delta.Added, nw)
		}
		for _, mk := range eff.makes {
			nw := e.mem.InsertFields(mk.tmpl, mk.fields)
			delta.Added = append(delta.Added, nw)
		}
		if len(eff.output) > 0 {
			if _, err := e.opts.Output.Write(eff.output); err != nil {
				return delta, conflicts, halted, fmt.Errorf("core: write action output: %w", err)
			}
		}
	}
	return delta, conflicts, halted, nil
}
