package core

import (
	"slices"
	"time"
	"unsafe"

	"parulel/internal/compile"
	"parulel/internal/match"
	"parulel/internal/match/seeded"
)

// metaLevel runs the program's meta-rules: each dominance meta-rule as an
// order (order.go), every other one as a lazy match that keeps, for each
// image some tuple redacts, one such tuple: its witness.
//
// PARULEL's meta-rules are rules whose working memory is the conflict set.
// Every *eligible* instantiation (in the conflict set, not refracted) of a
// rule some meta-pattern names has one image. compile.MetaLevel compiles a
// dominance meta-rule — two instantiations of one rule, equal on some
// variables, one redacting the other by a lexicographic test — to an
// order, whose state here is the rule's images in groups, each with its
// minimum class: the order redacts the images above it. It lowers every
// other meta-rule to condition elements over per-rule image templates and
// compiles a join plan per pattern; here an image of a rule such a
// join-form meta-rule names is reified, and held in the memory of each
// pattern whose alpha tests it passes. An instantiation fires unless some
// tuple
// redacts it, and whether one does is all that matters: a redacted image
// keeps the first tuple found that redacts it, filed among the dependents
// of every other image in it, and a survivor keeps nothing. No partial
// match and no other meta-match is stored. The memories and the joins are
// internal/match/seeded's, which TREAT runs too: this is that engine plus
// witnesses, as TREAT is that engine plus a conflict set.
//
// The engine feeds the eligible set's delta each cycle, and sync takes it
// in two passes. The leavers go first: they leave their memories and
// groups, a group whose class they emptied takes the next, and each image
// whose witness held one searches again among the images that stay, seeded
// at the patterns where a match redacts it, up to the first tuple that
// does. Then the entrants take their places in their groups and join one
// by one, each seeded at every pattern it fits — first where a match
// redacts it, unless it is redacted already, up to the first tuple that
// does; then elsewhere, for the tuples that redact an image not redacted,
// skipping untested a candidate already redacted at the last step that
// binds one a match redacts (compile.Step.LastVictim). An image counts as
// redacted with a witness or above an order's class, and needs no witness
// in either case; last, an image no order redacts any more searches for
// one.
//
// Semantics (synchronous): all redactions justified by matches against
// the full eligible set apply at once, so the outcome is independent of
// meta-rule and enumeration order, and two instantiations that each
// justify redacting the other both die — meta-rule programs break such
// ties with `(tag …)` or `(precedes …)`. The survivors are therefore the
// eligible instantiations without a witness and in the class of every
// group they are in. Which tuple an image keeps depends on the order images
// arrive in; whether it is redacted does not.
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
	// pats lists, by object-rule index, the join-form patterns over that
	// rule's image: those where a match redacts it first, then the others.
	pats [][]*compile.Pattern
	// orders holds, by object-rule index, the state of the dominance
	// meta-rules over that rule, in its Image.Orders order.
	orders [][]*ranking
	// w runs the joins over the memories of prog.Patterns.
	w seeded.Walker
	// bytes counts what the images take.
	bytes int
	// entered and left queue the eligible set's changes between redact
	// phases: the images of instantiations that became eligible, and of
	// ones that left the conflict set or fired. lifted holds, during a
	// sync, the images an order stopped redacting that a join-form
	// meta-rule may redact.
	entered, left, lifted []*image
	profs                 []metaProf
}

// metaProf accumulates one meta-rule's activity. paid is how much of it
// matchNS has been charged for.
type metaProf struct {
	seeded.Counts
	matchNS     int64
	insts, paid uint64
}

// image is the meta-level state of one eligible instantiation: its member
// of the join-form memories, for a rule some join-form meta-rule names,
// which holds the WME the sync after enter reifies it into and its
// witness; its place under each order over its rule; and how many of
// those redact it. filed says a sync has filed it and none has retracted
// it since.
type image struct {
	in      *match.Instantiation
	mb      *seeded.Member
	ranks   []rank
	above   int32
	filed   bool
	rankBuf [2]rank
}

// redacted reports whether the image has a witness or an order redacts it.
func (img *image) redacted() bool {
	return img.above != 0 || img.mb != nil && img.mb.Witnessed()
}

func newMetaLevel(prog *compile.Program) *metaLevel {
	if prog.Meta == nil {
		return nil
	}
	m := &metaLevel{prog: prog.Meta, rules: prog.MetaRules, pats: make([][]*compile.Pattern, len(prog.Meta.Images)),
		orders: make([][]*ranking, len(prog.Meta.Images)), profs: make([]metaProf, len(prog.Meta.Rules))}
	for i, im := range prog.Meta.Images {
		if im == nil {
			continue
		}
		for _, victim := range []bool{true, false} {
			for _, p := range im.Patterns {
				if p.Victim == victim {
					m.pats[i] = append(m.pats[i], p)
				}
			}
		}
	}
	for _, o := range prog.Meta.Orders {
		r := &ranking{o: o, groups: make(map[uint64]*group), prof: &m.profs[o.Meta]}
		m.orders[o.Rule.Index] = append(m.orders[o.Rule.Index], r)
	}
	m.w = seeded.New(prog.Meta.Patterns, m.found)
	return m
}

// reifies reports whether instantiations of in's rule have images. A nil
// metaLevel (a program without meta-rules) reifies nothing.
func (m *metaLevel) reifies(in *match.Instantiation) bool {
	return m != nil && m.prog.Images[in.Rule.Index] != nil
}

// enter queues in, which has become eligible, to be filed at the next
// sync, and returns its image; nil when no meta-pattern names in's rule.
func (m *metaLevel) enter(in *match.Instantiation) *image {
	if !m.reifies(in) {
		return nil
	}
	var img *image
	if len(m.pats[in.Rule.Index]) > 0 {
		// One allocation for the image and its member.
		both := &struct {
			image
			mb seeded.Image
		}{}
		img, both.image.mb = &both.image, both.mb.Init(in)
	} else {
		img = &image{}
	}
	img.in = in
	if n := len(m.orders[in.Rule.Index]); n <= len(img.rankBuf) {
		img.ranks = img.rankBuf[:n]
	} else {
		img.ranks = make([]rank, n)
	}
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
// two passes metaLevel describes. All leavers are out of their memories
// and groups, and without a witness, before any search, so none is found
// in a tuple, and the dependents left to search again are images that
// stay; an entrant takes its place under the orders, then joins, then is
// filed, so a tuple holding several entrants is found at the last of them
// to join, and an entrant an order redacts looks for no witness. Last, an
// image no order redacts any more, which an order kept from looking for a
// witness, looks for one.
func (m *metaLevel) sync() {
	if m == nil || len(m.left)+len(m.entered) == 0 {
		return
	}
	for _, img := range m.left {
		if !img.filed {
			continue // queued twice
		}
		img.filed = false
		m.bytes -= img.size()
		for _, r := range m.orders[img.in.Rule.Index] {
			m.remove(r, img)
		}
		if mb := img.mb; mb != nil {
			for _, p := range m.prog.Images[img.in.Rule.Index].Patterns {
				if mb.Held(p) {
					m.w.Mems[p.ID].Remove(mb)
				}
			}
			mb.Unlay()
			mb.Unwitness()
		}
	}
	for _, rs := range m.orders {
		for _, r := range rs {
			m.promote(r)
		}
	}
	for _, img := range m.left {
		if img.mb == nil {
			continue
		}
		for v := img.mb.Dependent(); v != nil; v = img.mb.Dependent() {
			v.Unwitness()
			m.search(v)
		}
	}
	for _, img := range m.entered {
		img.filed = true
		for _, r := range m.orders[img.in.Rule.Index] {
			m.add(r, img)
		}
		mb := img.mb
		if mb != nil {
			im := m.prog.Images[img.in.Rule.Index]
			mb.W = im.Reify(img.in.WMEs)
			mb.Lay(&im.Layout)
		}
		m.bytes += img.size()
		if mb == nil {
			continue
		}
		for _, p := range m.pats[img.in.Rule.Index] {
			if p.CE.MatchesAlpha(&mb.W) {
				m.join(p, mb, p.Victim && !mb.Redacted())
				m.w.Mems[p.ID].Add(mb)
			}
		}
	}
	for _, img := range m.lifted {
		if img.filed {
			m.search(img.mb)
		}
	}
	clear(m.left)
	clear(m.entered)
	clear(m.lifted)
	m.left, m.entered, m.lifted = m.left[:0], m.entered[:0], m.lifted[:0]
}

// size returns the memory an image takes: itself, ranks kept beside it and
// its member, which counts the witness link allocated with it.
func (img *image) size() int {
	n := int(unsafe.Sizeof(*img))
	if len(img.ranks) > len(img.rankBuf) {
		n += len(img.ranks) * int(unsafe.Sizeof(rank{}))
	}
	if img.mb != nil {
		n += img.mb.Bytes()
	}
	return n
}

// search runs the joins of v's image at the patterns where a match
// redacts it, up to the first tuple that does.
func (m *metaLevel) search(v *seeded.Member) {
	for _, p := range m.pats[v.In.Rule.Index] {
		if !p.Victim || v.Redacted() {
			break
		}
		if v.Held(p) {
			m.join(p, v, true)
		}
	}
}

// join runs the join of p's meta-rule seeded at mb; need says that mb is
// redacted at p and is not redacted yet (seeded.Walker.Join).
func (m *metaLevel) join(p *compile.Pattern, mb *seeded.Member, need bool) {
	m.w.Join(p, mb, &m.profs[p.Rule].Counts, need)
}

// found makes the tuple just completed the witness of every member it
// redacts that is not redacted, which settles it.
func (m *metaLevel) found() bool {
	rule := m.w.Seed.Rule
	m.profs[rule].insts++
	tuple := m.w.Tuple[:len(m.prog.Rules[rule].CEs)]
	for _, v := range m.rules[rule].Redacts {
		if mb := tuple[v]; !mb.Redacted() {
			m.bytes += mb.Witness(tuple)
		}
	}
	return true
}

// charge attributes d, the time of a redact phase, to the meta-rules in
// proportion to the work each has done since the last charge — the
// candidates its joins tested or the comparisons its order made, and the
// tuples it found or the minimum changes it made — the way the match
// network splits a lap over its rules, and for the same reason: a clock
// read costs more than a probe.
func (m *metaLevel) charge(d time.Duration) {
	if m == nil {
		return
	}
	var total uint64
	for i := range m.profs {
		total += m.profs[i].work() - m.profs[i].paid
	}
	if total == 0 {
		return
	}
	for i := range m.profs {
		p := &m.profs[i]
		p.matchNS += int64(float64(d) * float64(p.work()-p.paid) / float64(total))
		p.paid = p.work()
	}
}

func (p *metaProf) work() uint64 { return p.Probes + p.insts }

// ruleProfiles returns one row per meta-rule, in declaration order. For a
// join-form meta-rule Probes counts the candidates its joins tested and
// Insts the tuples found and kept as witnesses; for an order, the
// comparisons it made and the times a group's minimum class changed.
// Nothing is built for either, so Tokens stays zero.
func (m *metaLevel) ruleProfiles() []match.RuleProfile {
	out := make([]match.RuleProfile, len(m.profs))
	for i, p := range m.profs {
		out[i] = match.RuleProfile{Rule: m.rules[i].Name, MatchNS: p.matchNS, Probes: p.Probes, Insts: p.insts}
	}
	return out
}

// memStats reports the images held, once per pattern memory and once per
// order holding them, and the bytes the images, their witnesses, the index
// tables and the groups take. That is all the state there is: linear in
// the eligible set whatever the meta-rules join on, since a witness is a
// fixed number of links an image owns and a dependent is one of them.
func (m *metaLevel) memStats() match.MemStats {
	ms := match.MemStats{Bytes: m.bytes}
	for i := range m.w.Mems {
		ms.AlphaItems += m.w.Mems[i].N
		ms.Bytes += m.w.Mems[i].Bytes()
	}
	for _, rs := range m.orders {
		for _, r := range rs {
			ms.Bytes += r.bytes()
			r.each(func(*group, *image) { ms.AlphaItems++ })
		}
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
// redact img's instantiation, found again — by running the image's joins,
// or by scanning its group under an order — since the meta level keeps one
// witness, not every tuple.
func (m *metaLevel) explain(img *image) []redaction {
	if img == nil || !img.redacted() {
		return nil
	}
	var out []redaction
	var c seeded.Counts // the joins run here are no part of the run's profile
	defer func() { m.w.Found = m.found }()
	rule := img.in.Rule.Index
	for meta, mr := range m.rules {
		for _, r := range m.orders[rule] {
			if r.o.Meta == meta {
				if red := r.explain(img); red.tuples > 0 {
					red.rule = mr.Name
					out = append(out, red)
				}
			}
		}
		for _, p := range m.pats[rule] {
			if p.Rule != meta || !p.Victim || !img.mb.Held(p) {
				continue
			}
			width := len(m.prog.Rules[p.Rule].CEs)
			m.w.Found = func() bool {
				if len(out) == 0 || out[len(out)-1].rule != mr.Name {
					out = append(out, redaction{rule: mr.Name})
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
			m.w.Join(p, img.mb, &c, true)
		}
	}
	return out
}
