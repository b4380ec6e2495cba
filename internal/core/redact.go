package core

import (
	"parulel/internal/compile"
	"parulel/internal/match"
	"parulel/internal/wm"
)

// metaLevel runs the program's meta-rules as ordinary incremental match.
//
// PARULEL's meta-rules are rules whose working memory is the conflict set.
// compile.MetaLevel lowers each one to an ordinary rule over per-rule
// image templates; here every *eligible* instantiation (in the conflict
// set, not refracted) of a rule some meta-pattern names has one image WME
// in a match network of its own, built by the same factory as the object
// level's. The engine feeds that network the eligible set's delta each
// cycle, and the network's conflict set is the set of live meta-matches.
// Each image counts the live meta-matches that redact it.
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
type metaLevel struct {
	prog *compile.MetaLevel
	// rules[i].Redacts lists the condition elements of prog.Rules[i] whose
	// matched images a match of that rule redacts.
	rules   []*compile.MetaRule
	matcher match.Matcher
	// fired is the engine's refraction set, read to keep restored, already
	// refracted instantiations out of the meta level.
	fired  map[match.Key]bool
	lastID int64
	images map[match.Key]*image
	byWME  map[*wm.WME]*image
	// redacted counts images with a non-zero kill count.
	redacted int
	// entered and left queue the eligible set's changes between redact
	// phases: instantiations that entered the conflict set, and ones that
	// left it or fired.
	entered, left []*match.Instantiation
}

// image is the meta-level state of one reified instantiation.
type image struct {
	wme   *wm.WME
	kills int
}

func newMetaLevel(prog *compile.Program, factory match.Factory, fired map[match.Key]bool) *metaLevel {
	if prog.Meta == nil {
		return nil
	}
	return &metaLevel{
		prog:    prog.Meta,
		rules:   prog.MetaRules,
		matcher: factory(prog.Meta.Rules),
		fired:   fired,
		images:  make(map[match.Key]*image),
		byWME:   make(map[*wm.WME]*image),
	}
}

// reifies reports whether instantiations of in's rule have images. A nil
// metaLevel (a program without meta-rules) reifies nothing.
func (m *metaLevel) reifies(in *match.Instantiation) bool {
	return m != nil && m.prog.Images[in.Rule.Index] != nil
}

func (m *metaLevel) enter(in *match.Instantiation) {
	if m.reifies(in) {
		m.entered = append(m.entered, in)
	}
}

func (m *metaLevel) leave(in *match.Instantiation) {
	if m.reifies(in) {
		m.left = append(m.left, in)
	}
}

// sync brings the meta level up to date with the queued changes: images
// of departed instantiations are retracted, entrants are reified unless
// refracted (only a restored refraction set can name an entrant), and the
// resulting meta-match changes adjust the kill counts.
func (m *metaLevel) sync() {
	if m == nil || len(m.left)+len(m.entered) == 0 {
		return
	}
	var delta wm.Delta
	for _, in := range m.left {
		// An instantiation that fired and then left was queued twice.
		if img := m.images[in.Key()]; img != nil {
			delta.Removed = append(delta.Removed, img.wme)
			delete(m.images, in.Key())
		}
	}
	for _, in := range m.entered {
		if m.fired[in.Key()] {
			continue
		}
		m.lastID++
		img := &image{wme: m.prog.Images[in.Rule.Index].Reify(m.lastID, in.WMEs)}
		m.images[in.Key()] = img
		m.byWME[img.wme] = img
		delta.Added = append(delta.Added, img.wme)
	}
	m.left, m.entered = m.left[:0], m.entered[:0]

	ch := m.matcher.Apply(delta)
	for _, mm := range ch.Removed {
		for _, ce := range m.rules[mm.Rule.Index].Redacts {
			img := m.byWME[mm.WMEs[ce]]
			if img.kills--; img.kills == 0 {
				m.redacted--
			}
		}
	}
	for _, mm := range ch.Added {
		for _, ce := range m.rules[mm.Rule.Index].Redacts {
			img := m.byWME[mm.WMEs[ce]]
			if img.kills++; img.kills == 1 {
				m.redacted++
			}
		}
	}
	// Retracting an image retracted every meta-match on it, so its count
	// is back to zero by now.
	for _, w := range delta.Removed {
		delete(m.byWME, w)
	}
}

// survivors syncs the meta level and returns the eligible instantiations
// no live meta-match redacts, with the number redacted.
func (m *metaLevel) survivors(eligible []*match.Instantiation) ([]*match.Instantiation, int) {
	m.sync()
	if m == nil || m.redacted == 0 {
		return eligible, 0
	}
	out := make([]*match.Instantiation, 0, len(eligible)-m.redacted)
	for _, in := range eligible {
		if m.reifies(in) && m.images[in.Key()].kills > 0 {
			continue
		}
		out = append(out, in)
	}
	return out, m.redacted
}
