package core

import (
	"slices"
	"time"

	"parulel/internal/compile"
	"parulel/internal/match"
	"parulel/internal/match/seeded"
)

// metaLevel runs the program's meta-rules as a lazy, counting match.
//
// PARULEL's meta-rules are rules whose working memory is the conflict set.
// compile.MetaLevel lowers each one to condition elements over per-rule
// image templates and compiles a join plan per pattern; here every
// *eligible* instantiation (in the conflict set, not refracted) of a rule
// some meta-pattern names has one image, held in the memory of each pattern
// whose alpha tests it passes. Nothing else is stored: no partial match, no
// meta-match. An image that enters is joined, seeded at each pattern it
// fits, against the other patterns' memories, and every tuple found adds
// one to the kill count of each image the tuple redacts; an image that
// leaves runs the same joins and takes those kills back. The engine feeds
// the eligible set's delta each cycle. The memories and the joins are
// internal/match/seeded's, which TREAT runs too: this is that engine plus
// kill counts, as TREAT is that engine plus a conflict set.
//
// Semantics (synchronous): all redactions justified by matches against
// the full eligible set apply at once, so the outcome is independent of
// meta-rule and enumeration order, and two instantiations that each
// justify redacting the other both die — meta-rule programs break such
// ties with `(tag …)` or `(precedes …)`. The survivors are therefore the
// eligible instantiations with a count of zero.
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
	// w runs the joins over the memories of prog.Patterns, and sign is what
	// the join in progress adds to the counts: +1 for an image entering, -1
	// for one leaving.
	w    seeded.Walker
	sign int32
	// redacted counts images with a non-zero kill count, and bytes what
	// the filed images take.
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
// the pattern memories holding the instantiation, its kill count, its
// leaving flag and the WME the sync after enter reifies it into.
type image = seeded.Member

func newMetaLevel(prog *compile.Program) *metaLevel {
	if prog.Meta == nil {
		return nil
	}
	m := &metaLevel{prog: prog.Meta, rules: prog.MetaRules, profs: make([]metaProf, len(prog.Meta.Rules))}
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
	img := &image{In: in}
	m.entered = append(m.entered, img)
	return img
}

// leave queues img, which a sync has filed, to be retracted at the next
// one, because its instantiation left the conflict set or fired. A nil
// image is skipped, and so is one already queued, which a second retraction
// would take out of its memories twice.
func (m *metaLevel) leave(img *image) {
	if img == nil || img.Leaving {
		return
	}
	img.Leaving = true
	m.left = append(m.left, img)
}

// sync brings the meta level up to date with the queued changes. The
// images of departed instantiations, flagged when queued, are taken out of
// their memories one by one, each giving back the kills it justified on
// images that stay; entrants are reified, joined and filed. One image at a
// time on both sides, so a tuple holding two images of a batch is found at
// the first to leave, or the last to enter, and nowhere else.
func (m *metaLevel) sync() {
	if m == nil || len(m.left)+len(m.entered) == 0 {
		return
	}
	for _, img := range m.left {
		if img.Kills > 0 {
			m.redacted--
		}
		m.bytes -= img.Bytes()
		for _, p := range m.patterns(img) {
			if img.Held(p) {
				m.w.Mems[p.ID].Leaving++
			}
		}
	}
	for _, img := range m.left {
		for _, p := range m.patterns(img) {
			if img.Held(p) {
				mem := &m.w.Mems[p.ID]
				mem.Remove(img)
				mem.Leaving--
				m.join(p, img, -1)
			}
		}
	}
	for _, img := range m.entered {
		im := m.prog.Images[img.In.Rule.Index]
		img.W = im.Reify(img.In.WMEs)
		img.Lay(&im.Layout)
		m.bytes += img.Bytes()
		for _, p := range im.Patterns {
			if p.CE.MatchesAlpha(&img.W) {
				m.join(p, img, +1)
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

// join enumerates the tuples of p's meta-rule that hold img at p and adds
// sign to the kill count of every image they redact. A leaving image's own
// count is dropped with it, so the join is skipped when no other image it
// could redact stays.
func (m *metaLevel) join(p *compile.Pattern, img *image, sign int32) {
	if sign < 0 && !m.victimStays(&p.Seed) {
		return
	}
	m.sign = sign
	m.w.Join(p, img, &m.profs[p.Rule].Counts, sign > 0)
}

// victimStays reports whether some memory a step of j takes a redacted
// image from holds an image that is not leaving.
func (m *metaLevel) victimStays(j *compile.Join) bool {
	for i := range j.Steps {
		if st := &j.Steps[i]; st.Victim {
			if mem := &m.w.Mems[st.Pat.ID]; mem.N > mem.Leaving {
				return true
			}
		}
	}
	return false
}

// found applies the tuple just completed: sign on the count of every image
// it redacts that is not leaving.
func (m *metaLevel) found() {
	rule := m.w.Seed.Rule
	if m.sign > 0 {
		m.profs[rule].insts++
	}
	for _, v := range m.rules[rule].Redacts {
		img := m.w.Tuple[v]
		if img.Leaving {
			continue
		}
		img.Kills += m.sign
		switch {
		case m.sign > 0 && img.Kills == 1:
			m.redacted++
		case m.sign < 0 && img.Kills == 0:
			m.redacted--
		}
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
// counts the tuples found as images entered; nothing is built for them, so
// Tokens stays zero.
func (m *metaLevel) ruleProfiles() []match.RuleProfile {
	out := make([]match.RuleProfile, len(m.profs))
	for i, p := range m.profs {
		out[i] = match.RuleProfile{Rule: m.rules[i].Name, MatchNS: p.matchNS, Probes: p.Probes, Insts: p.insts}
	}
	return out
}

// memStats reports the images held, once per pattern memory holding them,
// and the bytes the images and the index tables take. That is all the state
// there is: linear in the eligible set whatever the meta-rules join on.
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
// redacted img's instantiation at the last sync, found by running the
// image's joins again. Nothing is kept for this during a run.
func (m *metaLevel) explain(img *image) []redaction {
	if img == nil || img.Kills == 0 {
		return nil
	}
	var out []redaction
	// The joins run here are no part of the run's profile.
	profs := slices.Clone(m.profs)
	defer func() { m.w.Found, m.profs = m.found, profs }()
	for _, p := range m.patterns(img) {
		if !img.Held(p) || !slices.Contains(m.rules[p.Rule].Redacts, p.Pat) {
			continue
		}
		name := m.rules[p.Rule].Name
		width := len(m.prog.Rules[p.Rule].CEs)
		m.w.Found = func() {
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
		}
		m.join(p, img, +1)
	}
	return out
}
