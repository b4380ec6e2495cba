// Package core implements the PARULEL execution engine — the paper's
// primary contribution. Each cycle:
//
//  1. MATCH: the pending working-memory delta is applied to the engine's
//     one match network, producing the conflict set's changes.
//  2. REDACT: the programmer's meta-rules — rules over the conflict set,
//     matched incrementally by a matcher of their own that stores, per
//     redacted instantiation, one tuple that redacts it (redact.go) — delete
//     (redact) instantiations that must not fire together. This replaces
//     OPS5's built-in serial conflict resolution with programmable,
//     set-oriented conflict resolution.
//  3. FIRE: every surviving instantiation fires; each right-hand side is
//     evaluated against the cycle's starting state into a buffered effect.
//  4. APPLY: the buffered effects are reconciled deterministically into
//     one working-memory delta, write conflicts are counted, and the
//     cycle repeats until quiescence or halt.
//
// The engine is deterministic: for a fixed program and initial working
// memory, the result is identical on every run and under either matcher (a
// property the tests check), because time tags, conflict resolution and
// output ordering are all derived from the deterministic instantiation
// order, never from map iteration or scheduling. An engine starts no
// goroutine; a server runs many engines side by side, one per session.
package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"time"

	"parulel/internal/compile"
	"parulel/internal/match"
	"parulel/internal/match/rete"
	"parulel/internal/wm"
)

// Options configures an Engine.
type Options struct {
	// Deprecated: ignored. Every phase runs on the caller's goroutine.
	Workers int
	// Matcher builds the engine's match network over every object rule. It
	// reaches the object level only: meta-rules run on the one meta level
	// of redact.go whatever matches the object rules. Default: rete.New.
	Matcher match.Factory
	// Output receives `(write …)` text. Default: io.Discard.
	Output io.Writer
	// MaxCycles aborts runaway programs. 0 means no limit.
	MaxCycles int
	// Tracer, when non-nil, receives structured per-cycle events (see the
	// Tracer interface for the callback order) — the engine's only
	// per-cycle output; it keeps no record of a cycle itself. Every call
	// site is nil-checked, so leaving it nil costs one branch per event.
	Tracer Tracer
	// NoInitialFacts skips queueing the program's `(wm …)` facts. Set
	// during checkpoint recovery, where the restored working memory
	// already contains them (under their original time tags).
	NoInitialFacts bool
}

// Result summarizes a run.
type Result struct {
	Cycles          int
	Firings         int
	Redactions      int
	RedactionRounds int
	// WriteConflicts counts same-WME modify/remove collisions between
	// distinct instantiations within one cycle — PARULEL's signal that the
	// meta-rule program under-constrains parallel firing (experiment E6).
	WriteConflicts int
	Halted         bool
	// Phases is the wall-clock time of each phase, indexed by Phase,
	// summed over the committed cycles.
	Phases [4]time.Duration
}

// ErrMaxCycles is returned when Options.MaxCycles is exceeded.
var ErrMaxCycles = errors.New("core: maximum cycle count exceeded")

// ErrCanceled is returned by RunContext when its context ends before the
// run reaches quiescence. The returned error also wraps the context's own
// error, so errors.Is works against context.Canceled and
// context.DeadlineExceeded as well.
var ErrCanceled = errors.New("core: run canceled")

// Engine executes a compiled PARULEL program.
type Engine struct {
	prog    *compile.Program
	mem     *wm.Memory
	opts    Options
	matcher match.Matcher
	// matchWork and fireWork are the match and fire phases' busy time
	// across the run.
	matchWork, fireWork time.Duration
	// frame is the fire phase's evaluation state, reused by every firing.
	frame fireFrame

	// cs is the conflict set: one entry per instantiation at the index the
	// instantiation carries in its Slot. Entries are in no particular
	// order; a removal moves the last entry into the hole.
	cs []entry
	// refracted counts the entries that have fired.
	refracted int
	// restored is a checkpoint's refraction set (RestoreFired), consulted
	// as the first match phase after the restore finds its instantiations
	// again and dropped when that phase ends.
	restored map[match.Key]bool

	pending wm.Delta
	// pendingAddIdx indexes pending.Added by time tag for O(1) Retract of
	// not-yet-matched insertions. Built lazily on the first Retract after
	// pending grows (pendingIdxLen marks how far it has been built) and
	// reset when the pending delta is consumed. Retract replaces a pending
	// entry with a nil tombstone so indexed positions stay stable;
	// pendingTombs counts them, and once they are over half the slice
	// Retract drops them and the index (as the match phase does), so a
	// stream that never runs holds its live inserts only.
	pendingAddIdx map[int64]int
	pendingIdxLen int
	pendingTombs  int
	// fireable and effects are the scratch of one cycle's survivors and of
	// their firings, cleared once the cycle has committed.
	fireable []*match.Instantiation
	effects  []effect
	// meta is the redaction state; nil for a program without meta-rules.
	meta   *metaLevel
	result Result
	halted bool
	// fires counts firings per rule, by Rule.Index, across the run, feeding
	// RuleFires and RuleProfiles. traced is how many of them
	// Tracer.RuleFired has reported, and rulesByName the order it reports
	// in.
	fires, traced []int
	rulesByName   []*compile.Rule
}

// entry is one instantiation of the conflict set.
type entry struct {
	in *match.Instantiation
	// img is the instantiation's meta-level image while it is eligible;
	// nil for a rule no meta-pattern names, and once it has fired.
	img   *image
	fired bool
}

// New creates an engine. Initial facts declared in `(wm …)` blocks are
// queued for the first cycle.
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
		fires:       make([]int, len(prog.Rules)),
		traced:      make([]int, len(prog.Rules)),
		rulesByName: append([]*compile.Rule(nil), prog.Rules...),
	}
	sort.Slice(e.rulesByName, func(i, j int) bool { return e.rulesByName[i].Name < e.rulesByName[j].Name })
	e.meta = newMetaLevel(prog)
	if !opts.NoInitialFacts {
		for _, f := range prog.Facts {
			w := e.mem.InsertFields(f.Tmpl, append([]wm.Value(nil), f.Fields...))
			e.pending.Added = append(e.pending.Added, w)
		}
	}
	return e
}

// Memory exposes the working memory (e.g. for assertions after Run).
func (e *Engine) Memory() *wm.Memory { return e.mem }

// Insert queues a fact programmatically (workload generators use this
// instead of `(wm …)` blocks).
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

// Retract removes the live WME with the given time tag between runs and
// queues the removal for the matchers. A WME whose insertion is still
// pending (the matchers have not seen it yet) is simply dropped from the
// pending delta. It returns false when no live WME has that tag.
//
// Pending insertions are looked up through a lazily built time-tag index
// rather than a linear scan: the server retracts per request, and on large
// seeded working memories a scan per call made retract-heavy traffic
// quadratic.
func (e *Engine) Retract(timeTag int64) bool {
	if e.pendingAddIdx == nil {
		e.pendingAddIdx = make(map[int64]int, len(e.pending.Added))
		e.pendingIdxLen = 0
	}
	// Extend the index over entries appended since the last Retract.
	// Tombstoning (below) keeps already-indexed positions stable.
	for i := e.pendingIdxLen; i < len(e.pending.Added); i++ {
		e.pendingAddIdx[e.pending.Added[i].Time] = i
	}
	e.pendingIdxLen = len(e.pending.Added)
	if i, ok := e.pendingAddIdx[timeTag]; ok {
		e.pending.Added[i] = nil
		e.pendingTombs++
		delete(e.pendingAddIdx, timeTag)
		e.mem.Remove(timeTag)
		if 2*e.pendingTombs > len(e.pending.Added) {
			e.dropTombs()
			e.pendingAddIdx, e.pendingIdxLen = nil, 0
		}
		return true
	}
	if w, ok := e.mem.Remove(timeTag); ok {
		e.pending.Removed = append(e.pending.Removed, w)
		return true
	}
	return false
}

// RetractBatch retracts a set of time tags in ascending tag order —
// the expiry hook for the temporal clock. Expiry must be deterministic
// (the retract order feeds the matchers' delta order, and WAL replay
// re-executes it), so the batch is sorted here rather than trusting the
// caller. It returns the number of tags that named live WMEs.
func (e *Engine) RetractBatch(tags []int64) int {
	sort.Slice(tags, func(i, j int) bool { return tags[i] < tags[j] })
	n := 0
	for _, tag := range tags {
		if e.Retract(tag) {
			n++
		}
	}
	return n
}

// dropTombs removes Retract's tombstones from the pending inserts in
// place, keeping the survivors' order.
func (e *Engine) dropTombs() {
	live := e.pending.Added[:0]
	for _, w := range e.pending.Added {
		if w != nil {
			live = append(live, w)
		}
	}
	clear(e.pending.Added[len(live):])
	e.pending.Added, e.pendingTombs = live, 0
}

// takePending consumes the pending delta for the match phase, compacting
// out any tombstones Retract left and resetting the retract index.
func (e *Engine) takePending() wm.Delta {
	if e.pendingTombs > 0 {
		e.dropTombs()
	}
	delta := e.pending
	e.pending = wm.Delta{}
	e.pendingAddIdx = nil
	e.pendingIdxLen = 0
	return delta
}

// Run executes cycles until quiescence, halt, or the cycle limit.
func (e *Engine) Run() (Result, error) { return e.RunContext(context.Background()) }

// RunContext executes cycles until quiescence, halt, the cycle limit, or
// context cancellation. Cancellation is observed at cycle boundaries only:
// every cycle either commits fully or does not run, so a canceled engine's
// working memory is always in a consistent committed state and the run can
// be resumed with a fresh context.
func (e *Engine) RunContext(ctx context.Context) (Result, error) {
	res, _, err := e.RunBounded(ctx, 0)
	return res, err
}

// RunBounded is RunContext with a per-call cycle budget: it commits at
// most limit cycles (0 = unbounded) and then returns with more=true when
// the engine has neither quiesced nor halted — the caller may resume with
// another RunBounded call. The server's -run-slice scheduling is built on
// this: a long run is split into slices so one session cannot monopolize
// an engine slot.
func (e *Engine) RunBounded(ctx context.Context, limit int) (Result, bool, error) {
	stepped := 0
	for {
		if err := ctx.Err(); err != nil {
			return e.result, true, fmt.Errorf("%w: %w", ErrCanceled, err)
		}
		progress, err := e.Step()
		if err != nil {
			return e.result, false, err
		}
		if !progress {
			return e.result, false, nil
		}
		if e.opts.MaxCycles > 0 && e.result.Cycles >= e.opts.MaxCycles {
			return e.result, false, fmt.Errorf("%w (%d)", ErrMaxCycles, e.opts.MaxCycles)
		}
		stepped++
		if limit > 0 && stepped >= limit {
			return e.result, true, nil
		}
	}
}

// Step runs one full cycle. It returns false when the engine has reached
// quiescence (no eligible instantiations) or was halted.
func (e *Engine) Step() (bool, error) {
	if e.halted {
		return false, nil
	}
	// The cycle's phase times, indexed by Phase; they count into the
	// result only if the cycle commits.
	var took [4]time.Duration
	tr := e.opts.Tracer
	if tr != nil {
		tr.CycleStart(e.result.Cycles + 1)
	}

	// MATCH: apply the pending delta to the network.
	t0 := time.Now()
	e.applyDelta(e.takePending())
	took[PhaseMatch] = time.Since(t0)

	// Eligible = conflict set minus refraction.
	eligible := len(e.cs) - e.refracted
	if tr != nil {
		tr.PhaseEnd(PhaseMatch, took[PhaseMatch])
		tr.InstantiationsFound(len(e.cs), eligible)
	}
	if eligible == 0 {
		// Quiescent: nothing eligible entered, but what left still has
		// images to drop.
		e.meta.sync()
		return false, nil
	}

	// REDACT: feed the eligible set's delta to the meta level; whatever
	// no meta-match redacts survives. One round is the fixpoint.
	t0 = time.Now()
	survivors, redacted := e.survivors()
	took[PhaseRedact] = time.Since(t0)
	e.meta.charge(took[PhaseRedact])
	rounds := 0
	if redacted > 0 {
		rounds = 1
	}
	e.result.Redactions += redacted
	e.result.RedactionRounds += rounds
	if tr != nil {
		tr.PhaseEnd(PhaseRedact, took[PhaseRedact])
		tr.Redacted(redacted, rounds, len(survivors))
	}
	// Firing order fixes commit order, and with it time tags and output.
	match.SortInstantiations(survivors)

	if len(survivors) == 0 {
		// Everything was redacted: treat as quiescence to avoid spinning
		// (nothing will change WM, so the next cycle would redact the
		// same set again).
		e.committed(&took)
		if tr != nil {
			tr.PhaseEnd(PhaseFire, 0)
			tr.PhaseEnd(PhaseApply, 0)
			tr.Commit(0, 0, false)
		}
		return false, nil
	}

	// FIRE: evaluate every surviving RHS against the cycle's starting state.
	t0 = time.Now()
	effects, err := e.fireAll(survivors)
	took[PhaseFire] = time.Since(t0)
	if err != nil {
		return false, err
	}
	e.result.Firings += len(survivors)
	e.refracted += len(survivors)
	for _, in := range survivors {
		s := &e.cs[in.Slot]
		s.fired = true
		e.meta.leave(s.img)
		s.img = nil
		e.fires[in.Rule.Index]++
	}
	if tr != nil {
		tr.PhaseEnd(PhaseFire, took[PhaseFire])
		for _, r := range e.rulesByName {
			if n := e.fires[r.Index] - e.traced[r.Index]; n > 0 {
				tr.RuleFired(r.Name, n)
				e.traced[r.Index] += n
			}
		}
	}

	// APPLY: reconcile effects into one deterministic WM delta.
	t0 = time.Now()
	delta, conflicts, halted, err := e.commit(effects)
	took[PhaseApply] = time.Since(t0)
	clear(effects)
	clear(survivors)
	if err != nil {
		return false, err
	}
	e.result.WriteConflicts += conflicts
	e.pending = delta
	e.halted = halted

	e.committed(&took)
	e.result.Halted = halted
	if tr != nil {
		tr.PhaseEnd(PhaseApply, took[PhaseApply])
		tr.Commit(delta.Size(), conflicts, halted)
	}
	if halted {
		return false, nil
	}
	return true, nil
}

// committed counts one cycle and its phase times into the result.
func (e *Engine) committed(took *[4]time.Duration) {
	e.result.Cycles++
	for p, d := range took {
		e.result.Phases[p] += d
	}
}

// applyDelta feeds the delta to the network and files its conflict-set
// changes in the table.
func (e *Engine) applyDelta(delta wm.Delta) {
	t0 := time.Now()
	ch := e.matcher.Apply(delta)
	e.matchWork += time.Since(t0)
	// One growth of the table for the phase's net admissions: a fresh
	// engine's first phase admits the whole conflict set.
	e.cs = slices.Grow(e.cs, max(len(ch.Added)-len(ch.Removed), 0))
	for _, in := range ch.Removed {
		e.drop(in)
	}
	for _, in := range ch.Added {
		e.admit(in)
	}
	e.restored = nil
}

// admit files an instantiation that entered the conflict set. It is
// eligible, and has an image at the meta level, unless a restored
// refraction set names it.
func (e *Engine) admit(in *match.Instantiation) {
	in.Slot = len(e.cs)
	s := entry{in: in}
	if e.restored != nil && e.restored[in.Key()] {
		s.fired = true
		e.refracted++
	} else {
		s.img = e.meta.enter(in)
	}
	e.cs = append(e.cs, s)
}

// drop removes an instantiation that left the conflict set, and its image.
func (e *Engine) drop(in *match.Instantiation) {
	i := in.Slot
	if i >= len(e.cs) || e.cs[i].in != in {
		panic(fmt.Sprintf("core: matcher removed %v, which it never added", in))
	}
	s := &e.cs[i]
	if s.fired {
		e.refracted--
	}
	e.meta.leave(s.img)
	last := len(e.cs) - 1
	*s = e.cs[last]
	s.in.Slot = i
	e.cs[last] = entry{}
	e.cs = e.cs[:last]
}

// survivors syncs the meta level and returns the eligible instantiations
// no tuple or order redacts, in table order, with the number redacted. The
// slice is the engine's scratch, valid until the cycle commits.
func (e *Engine) survivors() ([]*match.Instantiation, int) {
	e.meta.sync()
	out := e.fireable[:0]
	for i := range e.cs {
		if s := &e.cs[i]; !s.fired && (s.img == nil || !s.img.redacted()) {
			out = append(out, s.in)
		}
	}
	e.fireable = out
	return out, len(e.cs) - e.refracted - len(out)
}

// RuleFires returns, per rule, how many instantiations fired over the run
// so far.
func (e *Engine) RuleFires() map[string]int {
	out := make(map[string]int, len(e.fires))
	for i, n := range e.fires {
		if n > 0 {
			out[e.prog.Rules[i].Name] = n
		}
	}
	return out
}

// RuleProfiles joins the per-rule match-layer profiles of the matcher (for
// matchers implementing match.RuleProfiler — RETE and TREAT both do) with
// the engine's own per-rule firing counts. Rules are returned sorted by
// attributed match time, then firings, then name, so the first entries
// are the rules the match phase spends its time on; after them comes one
// row per meta-rule, in declaration order, from the meta level: Probes
// are the candidates its joins tested, Insts the tuples found as
// instantiations became eligible, MatchNS its share by probes of the redact
// phases' time; it builds no tokens and meta-rules never fire. Object-level
// match time is only attributed when the matcher was built with profiling
// enabled (rete.Options.Profile / treat.Options.Profile); the activity
// counters (tokens, probes, instantiations) are always maintained.
func (e *Engine) RuleProfiles() []match.RuleProfile {
	var out []match.RuleProfile
	if rp, ok := e.matcher.(match.RuleProfiler); ok {
		// One row per rule, in declaration order: out[i] is Rules[i]'s.
		out = rp.RuleProfiles()
	}
	for i, n := range e.fires {
		switch {
		case i < len(out):
			out[i].Fires = uint64(n)
		case n > 0:
			out = append(out, match.RuleProfile{Rule: e.prog.Rules[i].Name, Fires: uint64(n)})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.MatchNS != b.MatchNS {
			return a.MatchNS > b.MatchNS
		}
		if a.Fires != b.Fires {
			return a.Fires > b.Fires
		}
		return a.Rule < b.Rule
	})
	if e.meta != nil {
		out = append(out, e.meta.ruleProfiles()...)
	}
	return out
}

// MemStats reports the match-state sizes of the object level's matcher
// and of the meta level. At the meta level AlphaItems counts the
// images of eligible instantiations, once per meta-pattern memory holding
// them. The meta level keeps neither partial nor complete meta-matches, so
// its BetaTokens and ConflictSet are zero and its size is linear in the
// eligible set whatever the meta-rules join on. Bytes is each side's own
// memory (match.MemStats): the matcher's records and tables, and the
// meta level's images and index tables.
func (e *Engine) MemStats() (object, meta match.MemStats) {
	object = e.matcher.MemStats()
	if e.meta != nil {
		meta = e.meta.memStats()
	}
	return object, meta
}

// WorkerWork returns the accumulated busy time of the match phases and of
// the fire phases, one entry each: the engine runs both on one goroutine.
func (e *Engine) WorkerWork() (matchWork, fireWork []time.Duration) {
	return []time.Duration{e.matchWork}, []time.Duration{e.fireWork}
}

// ConflictSet returns the current global conflict set in deterministic
// order (mainly for tests and tooling).
func (e *Engine) ConflictSet() []*match.Instantiation {
	out := make([]*match.Instantiation, len(e.cs))
	for i := range e.cs {
		out[i] = e.cs[i].in
	}
	match.SortInstantiations(out)
	return out
}
