package core

import (
	"slices"
	"time"

	"parulel/internal/compile"
	"parulel/internal/match"
	"parulel/internal/valueindex"
	"parulel/internal/wm"
)

// metaLevel runs the program's meta-rules as a lazy, counting match.
//
// PARULEL's meta-rules are rules whose working memory is the conflict set.
// compile.MetaLevel lowers each one to condition elements over per-rule
// image templates and compiles a join plan per pattern; here every
// *eligible* instantiation (in the conflict set, not refracted) of a rule
// some meta-pattern names has one image, held in the memory of each pattern
// whose alpha tests it passes. A memory is hash-indexed on the fields its
// equality join tests read, and its list and buckets are threaded through
// the images. Nothing else is stored: no partial match, no meta-match. An
// image that enters is joined, seeded at each pattern it fits, against
// the other patterns' memories, and every tuple found adds
// one to the kill count of each image the tuple redacts; an image that
// leaves runs the same joins and takes those kills back. The engine feeds
// the eligible set's delta each cycle. This is how a CHR constraint store
// executes an active constraint — partners are found through the store's
// indexes and forgotten — and TREAT without its conflict set.
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
	// mems[p.ID] is the memory of pattern p.
	mems []imageMem
	// redacted counts images with a non-zero kill count.
	redacted int
	// entered and left queue the eligible set's changes between redact
	// phases: the images of instantiations that became eligible, and of
	// ones that left the conflict set or fired.
	entered, left []*image
	// tuple is the tuple a join is enumerating, indexed by pattern, and
	// env.Vec the same tuple as image WMEs, for the filters.
	tuple []*image
	env   compile.VecEnv
	// visit, when set, receives each tuple a join completes in place of
	// the kill counts (explain).
	visit func()
	profs []metaProf
}

// metaProf accumulates one meta-rule's activity. paid is how many of its
// probes matchNS has been charged for.
type metaProf struct {
	matchNS             int64
	probes, insts, paid uint64
}

// image is the meta-level state of one reified instantiation. enter makes
// it; the sync after reifies it into wme and files it.
type image struct {
	wme wm.WME
	in  *match.Instantiation
	// kills counts the tuples that redact the image, once per mention in
	// their rule's redact list.
	kills int32
	// leaving flags an image queued to leave: its count no longer matters,
	// and a tuple all of whose victims are leaving is not worth
	// enumerating.
	leaving bool
	// at holds the image's neighbours in each chain that may list it,
	// laid out by compile.MetaPattern.Pos: at[p.Pos] in the list of p's
	// memory, at[p.Pos+1+k] in its bucket of the memory's k-th index. An
	// image that fails p's alpha tests is its own at[p.Pos].prev. atBuf
	// backs it, in the image's allocation, for an image one indexed
	// pattern names, which most are.
	at    []imageLinks
	atBuf [2]imageLinks
}

type imageLinks struct{ next, prev *image }

// held reports whether p's memory holds the image.
func (img *image) held(p *compile.MetaPattern) bool { return img.at[p.Pos].prev != img }

// imageMem is the memory of one pattern: the images that pass its alpha
// tests, in arrival order, and one value index per field in pat.Indexed.
type imageMem struct {
	pat  *compile.MetaPattern
	list valueindex.Chain[*image]
	n    int
	idx  []valueindex.Index[*image]
	// leaving counts the members flagged as leaving.
	leaving int
}

// imageField is the owner of an index over that field of the images.
type imageField int

func (f imageField) Key(img *image) wm.Value { return img.wme.Fields[f] }

func (mem *imageMem) add(img *image) {
	mem.n++
	for k := 0; k <= len(mem.idx); k++ {
		prev := mem.list.Tail
		if k == 0 {
			mem.list.Push(img)
		} else {
			prev = mem.idx[k-1].Add(imageField(mem.pat.Indexed[k-1]), img)
		}
		if prev != nil {
			img.at[mem.pat.Pos+k].prev, prev.at[mem.pat.Pos+k].next = prev, img
		}
	}
}

func (mem *imageMem) remove(img *image) {
	mem.n--
	for k := 0; k <= len(mem.idx); k++ {
		l := &img.at[mem.pat.Pos+k]
		if k == 0 {
			mem.list.Drop(l.prev, l.next)
		} else {
			mem.idx[k-1].Remove(imageField(mem.pat.Indexed[k-1]), img, l.prev, l.next)
		}
		if l.prev != nil {
			l.prev.at[mem.pat.Pos+k].next = l.next
		}
		if l.next != nil {
			l.next.at[mem.pat.Pos+k].prev = l.prev
		}
	}
}

func newMetaLevel(prog *compile.Program) *metaLevel {
	if prog.Meta == nil {
		return nil
	}
	m := &metaLevel{
		prog:  prog.Meta,
		rules: prog.MetaRules,
		mems:  make([]imageMem, len(prog.Meta.Patterns)),
		profs: make([]metaProf, len(prog.Meta.Rules)),
	}
	width := 0
	for i, p := range prog.Meta.Patterns {
		m.mems[i].pat = p
		if len(p.Indexed) > 0 {
			m.mems[i].idx = make([]valueindex.Index[*image], len(p.Indexed))
		}
		width = max(width, p.Pat+1)
	}
	m.tuple = make([]*image, width)
	m.env.Vec = make([]*wm.WME, width)
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
	img := &image{in: in}
	m.entered = append(m.entered, img)
	return img
}

// leave queues img, which a sync has filed, to be retracted at the next
// one, because its instantiation left the conflict set or fired. A nil
// image is skipped, and so is one already queued, which a second retraction
// would take out of its memories twice.
func (m *metaLevel) leave(img *image) {
	if img == nil || img.leaving {
		return
	}
	img.leaving = true
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
		if img.kills > 0 {
			m.redacted--
		}
		for _, p := range m.patterns(img) {
			if img.held(p) {
				m.mems[p.ID].leaving++
			}
		}
	}
	for _, img := range m.left {
		for _, p := range m.patterns(img) {
			if img.held(p) {
				mem := &m.mems[p.ID]
				mem.remove(img)
				mem.leaving--
				m.join(p, img, -1)
			}
		}
	}
	for _, img := range m.entered {
		im := m.prog.Images[img.in.Rule.Index]
		img.wme = im.Reify(img.in.WMEs)
		if img.at = img.atBuf[:]; im.NumPos > len(img.atBuf) {
			img.at = make([]imageLinks, im.NumPos)
		}
		for _, p := range im.Patterns {
			if !p.CE.MatchesAlpha(&img.wme) {
				img.at[p.Pos].prev = img
				continue
			}
			m.join(p, img, +1)
			m.mems[p.ID].add(img)
		}
	}
	clear(m.left)
	clear(m.entered)
	m.left, m.entered = m.left[:0], m.entered[:0]
}

// patterns returns the patterns over img's template.
func (m *metaLevel) patterns(img *image) []*compile.MetaPattern {
	return m.prog.Images[img.in.Rule.Index].Patterns
}

// join enumerates the tuples of p's meta-rule that hold img at p and adds
// sign to the kill count of every image they redact: +1 for an image
// entering, -1 for one leaving. A leaving image's own count is dropped with
// it, so the join is skipped when no other image it could redact stays.
func (m *metaLevel) join(p *compile.MetaPattern, img *image, sign int32) {
	if sign < 0 && !m.victimStays(&p.Seed) {
		return
	}
	m.tuple[p.Pat], m.env.Vec[p.Pat] = img, &img.wme
	for _, ce := range p.Seed.Filters {
		if !match.EvalFilters(ce, &m.env) {
			return
		}
	}
	m.extend(p.Rule, p.Seed.Steps, sign > 0, sign)
}

// victimStays reports whether some memory a step of j takes a redacted
// image from holds an image that is not leaving.
func (m *metaLevel) victimStays(j *compile.MetaJoin) bool {
	for i := range j.Steps {
		if st := &j.Steps[i]; st.Victim {
			if mem := &m.mems[st.Pat.ID]; mem.n > mem.leaving {
				return true
			}
		}
	}
	return false
}

// extend binds the patterns of steps, one a level, to every combination of
// images that passes the tests. stay says that some image the tuple so far
// redacts is not leaving; while none is, a candidate after which none can
// be is skipped untested.
func (m *metaLevel) extend(rule int, steps []compile.MetaStep, stay bool, sign int32) {
	if len(steps) == 0 {
		m.found(rule, sign)
		return
	}
	st := &steps[0]
	mem := &m.mems[st.Pat.ID]
	vec := m.env.Vec
	// The candidates are the memory's list or, when the step has an
	// equality test to probe with, one bucket; at is where an image keeps
	// its successor in either.
	c, at := mem.list.Head, st.Pat.Pos
	if st.Index >= 0 {
		c, at = mem.idx[st.Index].Get(imageField(st.Pat.Indexed[st.Index]), vec[st.From.CE].Fields[st.From.Field]), at+1+st.Index
	}
	prof := &m.profs[rule]
	q := st.Pat.Pat
cand:
	for ; c != nil; c = c.at[at].next {
		stays := stay || st.Victim && !c.leaving
		if !stays && st.LastVictim {
			continue
		}
		for _, d := range st.Distinct {
			if m.tuple[d] == c {
				continue cand
			}
		}
		prof.probes++
		m.tuple[q], vec[q] = c, &c.wme
		for i := range st.Tests {
			t := &st.Tests[i]
			if !t.Op.Apply(vec[t.Ref.CE].Fields[t.Ref.Field], vec[t.Other.CE].Fields[t.Other.Field]) {
				continue cand
			}
		}
		for _, ce := range st.Filters {
			if !match.EvalFilters(ce, &m.env) {
				continue cand
			}
		}
		m.extend(rule, steps[1:], stays, sign)
	}
}

// found applies the tuple just completed: sign on the count of every image
// it redacts that is not leaving.
func (m *metaLevel) found(rule int, sign int32) {
	if m.visit != nil {
		m.visit()
		return
	}
	if sign > 0 {
		m.profs[rule].insts++
	}
	for _, v := range m.rules[rule].Redacts {
		img := m.tuple[v]
		if img.leaving {
			continue
		}
		img.kills += sign
		switch {
		case sign > 0 && img.kills == 1:
			m.redacted++
		case sign < 0 && img.kills == 0:
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
		total += m.profs[i].probes - m.profs[i].paid
	}
	if total == 0 {
		return
	}
	for i := range m.profs {
		p := &m.profs[i]
		p.matchNS += int64(float64(d) * float64(p.probes-p.paid) / float64(total))
		p.paid = p.probes
	}
}

// ruleProfiles returns one row per meta-rule, in declaration order. Insts
// counts the tuples found as images entered; nothing is built for them, so
// Tokens stays zero.
func (m *metaLevel) ruleProfiles() []match.RuleProfile {
	out := make([]match.RuleProfile, len(m.profs))
	for i, p := range m.profs {
		out[i] = match.RuleProfile{Rule: m.rules[i].Name, MatchNS: p.matchNS, Probes: p.probes, Insts: p.insts}
	}
	return out
}

// memStats reports the images held, once per pattern memory holding them.
// That is all the state there is: linear in the eligible set whatever the
// meta-rules join on.
func (m *metaLevel) memStats() match.MemStats {
	var ms match.MemStats
	for i := range m.mems {
		ms.AlphaItems += m.mems[i].n
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
	if img == nil || img.kills == 0 {
		return nil
	}
	var out []redaction
	// The joins run here are no part of the run's profile.
	profs := slices.Clone(m.profs)
	defer func() { m.visit, m.profs = nil, profs }()
	for _, p := range m.patterns(img) {
		if !img.held(p) || !slices.Contains(m.rules[p.Rule].Redacts, p.Pat) {
			continue
		}
		name := m.rules[p.Rule].Name
		width := len(m.prog.Rules[p.Rule].CEs)
		m.visit = func() {
			if len(out) == 0 || out[len(out)-1].rule != name {
				out = append(out, redaction{rule: name})
			}
			r := &out[len(out)-1]
			r.tuples++
			var with []*match.Instantiation
			for i, other := range m.tuple[:width] {
				if i != p.Pat {
					with = append(with, other.in)
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
