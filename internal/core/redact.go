package core

import (
	"slices"
	"time"

	"parulel/internal/compile"
	"parulel/internal/match"
	"parulel/internal/match/seeded"
)

// metaLevel runs the program's meta-rules as a lazy match that keeps, for
// each image some tuple redacts, one such tuple: its witness.
//
// PARULEL's meta-rules are rules whose working memory is the conflict set.
// compile.MetaLevel lowers each one to condition elements over per-rule
// image templates and compiles a join plan per pattern; here every
// *eligible* instantiation (in the conflict set, not refracted) of a rule
// some meta-pattern names has one image, held in the memory of each pattern
// whose alpha tests it passes. An instantiation fires unless some tuple
// redacts it, and whether one does is all that matters: a redacted image
// keeps the first tuple found that redacts it, filed among the dependents
// of every other image in it, and a survivor keeps nothing. No partial
// match and no other meta-match is stored. The memories and the joins are
// internal/match/seeded's, which TREAT runs too: this is that engine plus
// witnesses, as TREAT is that engine plus a conflict set.
//
// The engine feeds the eligible set's delta each cycle, and sync takes it
// in two passes. The leavers go first: they leave their memories, and each
// image whose witness held one searches again among the images that stay,
// seeded at the patterns where a match redacts it, up to the first tuple
// that does. Then the entrants join one by one, each seeded at every
// pattern it fits — first where a match redacts it, up to the first tuple
// that does; then elsewhere, for the tuples that redact an image still
// without a witness, skipping untested a candidate already redacted at the
// last step that binds one a match redacts (compile.Step.LastVictim).
//
// Semantics (synchronous): all redactions justified by matches against
// the full eligible set apply at once, so the outcome is independent of
// meta-rule and enumeration order, and two instantiations that each
// justify redacting the other both die — meta-rule programs break such
// ties with `(tag …)` or `(precedes …)`. The survivors are therefore the
// eligible instantiations without a witness. Which tuple an image keeps
// depends on the order images arrive in; whether it keeps one does not.
//
// One round is the fixpoint: meta patterns have no negation, so matching
// is monotone in the eligible set. Any tuple matching among the survivors
// also matched in the full set, and its target was already redacted.
//
// All of this state is derived from the conflict set and the refraction
// set: it is rebuilt by the first match phase after a restore and never
// persisted.
//
// The meta level keeps no index of its images: enter hands an entrant's
// image to the caller, which holds it (the engine in the instantiation's
// conflict-set entry) and hands it back to leave. Nothing here hashes an
// instantiation.
type metaLevel struct {
	prog *compile.MetaLevel
	// rules[i].Redacts lists the patterns of prog.Rules[i] whose matched
	// images a match of that rule redacts.
	rules []*compile.MetaRule
	// order lists, by object-rule index, the patterns over that rule's
	// image: those where a match redacts it first, then the others.
	order [][]*compile.Pattern
	// w runs the joins over the memories of prog.Patterns.
	w seeded.Walker
	// redacted counts images with a witness, and bytes what the filed
	// images take.
	redacted, bytes int
	// entered and left queue the eligible set's changes between redact
	// phases: the images of instantiations that became eligible, and of
	// ones that left the conflict set or fired.
	entered, left []*image
	profs         []metaProf
}

// metaProf accumulates one meta-rule's activity. paid is how many of its
// probes matchNS has been charged for.
type metaProf struct {
	seeded.Counts
	matchNS     int64
	insts, paid uint64
}

// image is the meta-level state of one reified instantiation: a member of
// the pattern memories holding the instantiation, its witness and the WME
// the sync after enter reifies it into.
type image = seeded.Member

func newMetaLevel(prog *compile.Program) *metaLevel {
	if prog.Meta == nil {
		return nil
	}
	m := &metaLevel{prog: prog.Meta, rules: prog.MetaRules, order: make([][]*compile.Pattern, len(prog.Meta.Images)),
		profs: make([]metaProf, len(prog.Meta.Rules))}
	for i, im := range prog.Meta.Images {
		if im == nil {
			continue
		}
		for _, victim := range []bool{true, false} {
			for _, p := range im.Patterns {
				if p.Victim == victim {
					m.order[i] = append(m.order[i], p)
				}
			}
		}
	}
	m.w = seeded.New(prog.Meta.Patterns, m.found)
	return m
}

// reifies reports whether instantiations of in's rule have images. A nil
// metaLevel (a program without meta-rules) reifies nothing.
func (m *metaLevel) reifies(in *match.Instantiation) bool {
	return m != nil && m.prog.Images[in.Rule.Index] != nil
}

// enter queues in, which has become eligible, to be reified and joined at
// the next sync, and returns its image; nil when no meta-pattern names
// in's rule.
func (m *metaLevel) enter(in *match.Instantiation) *image {
	if !m.reifies(in) {
		return nil
	}
	img := seeded.NewImage(in)
	m.entered = append(m.entered, img)
	return img
}

// leave queues img, which a sync has filed, to be retracted at the next
// one, because its instantiation left the conflict set or fired. A nil
// image is skipped; one queued twice leaves once.
func (m *metaLevel) leave(img *image) {
	if img != nil {
		m.left = append(m.left, img)
	}
}

// sync brings the meta level up to date with the queued changes, in the
// two passes metaLevel describes. All leavers are out of their memories and
// without a witness before any search, so none is found in a tuple, and
// the dependents left to search again are images that stay; an entrant
// joins before it is filed, so a tuple holding several entrants is found at
// the last of them to join.
func (m *metaLevel) sync() {
	if m == nil || len(m.left)+len(m.entered) == 0 {
		return
	}
	for _, img := range m.left {
		if !img.Laid() {
			continue // queued twice
		}
		m.bytes -= img.Bytes()
		for _, p := range m.patterns(img) {
			if img.Held(p) {
				m.w.Mems[p.ID].Remove(img)
			}
		}
		img.Unlay()
		m.unwitness(img)
	}
	for _, img := range m.left {
		for v := img.Dependent(); v != nil; v = img.Dependent() {
			m.unwitness(v)
			for _, p := range m.order[v.In.Rule.Index] {
				if !p.Victim || v.Redacted() {
					break
				}
				if v.Held(p) {
					m.join(p, v, true)
				}
			}
		}
	}
	for _, img := range m.entered {
		im := m.prog.Images[img.In.Rule.Index]
		img.W = im.Reify(img.In.WMEs)
		img.Lay(&im.Layout)
		m.bytes += img.Bytes()
		for _, p := range m.order[img.In.Rule.Index] {
			if p.CE.MatchesAlpha(&img.W) {
				m.join(p, img, p.Victim && !img.Redacted())
				m.w.Mems[p.ID].Add(img)
			}
		}
	}
	clear(m.left)
	clear(m.entered)
	m.left, m.entered = m.left[:0], m.entered[:0]
}

// patterns returns the patterns over img's template.
func (m *metaLevel) patterns(img *image) []*compile.Pattern {
	return m.prog.Images[img.In.Rule.Index].Patterns
}

// join runs the join of p's meta-rule seeded at img; need says that img is
// redacted at p and has no witness yet (seeded.Walker.Join).
func (m *metaLevel) join(p *compile.Pattern, img *image, need bool) {
	m.w.Join(p, img, &m.profs[p.Rule].Counts, need)
}

// found makes the tuple just completed the witness of every image it
// redacts that has none, which settles it.
func (m *metaLevel) found() bool {
	rule := m.w.Seed.Rule
	m.profs[rule].insts++
	tuple := m.w.Tuple[:len(m.prog.Rules[rule].CEs)]
	for _, v := range m.rules[rule].Redacts {
		if img := tuple[v]; !img.Redacted() {
			m.bytes += img.Witness(tuple)
			m.redacted++
		}
	}
	return true
}

// unwitness drops img's witness, if it has one.
func (m *metaLevel) unwitness(img *image) {
	if img.Redacted() {
		img.Unwitness()
		m.redacted--
	}
}

// charge attributes d, the time of a redact phase, to the meta-rules in
// proportion to the candidates each has tested since the last charge — the
// way the match network splits a lap over its rules, and for the same
// reason: a clock read costs more than a probe.
func (m *metaLevel) charge(d time.Duration) {
	if m == nil {
		return
	}
	var total uint64
	for i := range m.profs {
		total += m.profs[i].Probes - m.profs[i].paid
	}
	if total == 0 {
		return
	}
	for i := range m.profs {
		p := &m.profs[i]
		p.matchNS += int64(float64(d) * float64(p.Probes-p.paid) / float64(total))
		p.paid = p.Probes
	}
}

// ruleProfiles returns one row per meta-rule, in declaration order. Insts
// counts the tuples found and kept as witnesses; nothing is built for
// them, so Tokens stays zero.
func (m *metaLevel) ruleProfiles() []match.RuleProfile {
	out := make([]match.RuleProfile, len(m.profs))
	for i, p := range m.profs {
		out[i] = match.RuleProfile{Rule: m.rules[i].Name, MatchNS: p.matchNS, Probes: p.Probes, Insts: p.insts}
	}
	return out
}

// memStats reports the images held, once per pattern memory holding them,
// and the bytes the images, their witnesses and the index tables take.
// That is all the state there is: linear in the eligible set whatever the
// meta-rules join on, since a witness is a fixed number of links an image
// owns and a dependent is one of them.
func (m *metaLevel) memStats() match.MemStats {
	ms := match.MemStats{Bytes: m.bytes}
	for i := range m.w.Mems {
		ms.AlphaItems += m.w.Mems[i].N
		ms.Bytes += m.w.Mems[i].Bytes()
	}
	return ms
}

// redaction is one meta-rule's case against an instantiation.
type redaction struct {
	rule string
	// with is the rest of the first tuple that redacts it — first in the
	// instantiation order, pattern by pattern — and tuples how many do.
	with   []*match.Instantiation
	tuples int
}

// explain returns, per meta-rule in declaration order, the tuples that
// redact img's instantiation, found by running the image's joins again:
// the meta level keeps one witness, not every tuple.
func (m *metaLevel) explain(img *image) []redaction {
	if img == nil || !img.Redacted() {
		return nil
	}
	var out []redaction
	var c seeded.Counts // the joins run here are no part of the run's profile
	defer func() { m.w.Found = m.found }()
	for _, p := range m.patterns(img) {
		if !p.Victim || !img.Held(p) {
			continue
		}
		name := m.rules[p.Rule].Name
		width := len(m.prog.Rules[p.Rule].CEs)
		m.w.Found = func() bool {
			if len(out) == 0 || out[len(out)-1].rule != name {
				out = append(out, redaction{rule: name})
			}
			r := &out[len(out)-1]
			r.tuples++
			var with []*match.Instantiation
			for i, other := range m.w.Tuple[:width] {
				if i != p.Pat {
					with = append(with, other.In)
				}
			}
			if r.with == nil || slices.CompareFunc(with, r.with, (*match.Instantiation).Compare) < 0 {
				r.with = with
			}
			return false // every tuple, not the first
		}
		m.w.Join(p, img, &c, true)
	}
	return out
}
