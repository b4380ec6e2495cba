package core

import (
	"math"
	"unsafe"

	"parulel/internal/compile"
	"parulel/internal/match"
	"parulel/internal/valueindex"
	"parulel/internal/wm"
)

// ranking is the meta level's state for one dominance meta-rule, which
// compile.Order states as an order: the images of its rule's eligible
// instantiations in groups, one per value of the order's group variables.
// A group keeps its minimum class — the members nothing comes before — and
// the rest, both unordered. An entrant compares with one member of the
// class: it joins the class, displaces it into the rest, or joins the rest.
// When the class empties, once every leaver of a sync is out, one scan of
// the rest finds the next. No join, filter or witness is involved: the
// order redacts every member of the rest, and under a non-strict order the
// members of a class of more than one too — the exact survivors of
// one-round semantics, since a minimum comes before or ties with every
// member. Each image knows which orders redact it (rank.redacted) and how
// many do (image.above).
//
// A group that holds a NaN at a key field is no preorder: NaN ties with
// every number under the relational operators and equals none under `=`.
// While it holds one it keeps every member in the rest and settles them by
// evaluating the test on every pair (compile.Order.Redacts).
type ranking struct {
	o *compile.Order
	// groups files the groups by a hash of their group values; groups whose
	// values hash alike are chained through group.next.
	groups map[uint64]*group
	// emptied lists the groups whose class a sync's leavers emptied;
	// scratch is promote's.
	emptied []*group
	scratch []*image
	prof    *metaProf
}

type group struct {
	next      *group
	hash      uint64
	min, rest []*image
	// nan counts the members holding a NaN at a key field.
	nan int
}

// rank is an image's place under one order: its group, nil when a group
// value of it is a NaN, which equals nothing, so that no pair redacts it;
// its index in the group's class or rest; and whether the order redacts it.
type rank struct {
	g               *group
	at              int32
	inMin, redacted bool
}

// add files img, an entrant, in its group.
func (m *metaLevel) add(r *ranking, img *image) {
	vec := img.in.WMEs
	h, ok := r.key(vec)
	if !ok {
		return
	}
	g := r.find(h, vec)
	if g == nil {
		g = &group{hash: h, next: r.groups[h]}
		r.groups[h] = g
	}
	regular := r.o.Regular(vec)
	if regular && g.nan == 0 {
		m.insert(r, g, img)
		return
	}
	if g.nan == 0 {
		// img is the group's first NaN: its class joins the rest.
		for _, x := range g.min {
			r.place(g, x)
		}
		clear(g.min)
		g.min = g.min[:0]
	}
	if !regular {
		g.nan++
	}
	r.place(g, img)
	m.settle(r, g)
}

// insert files img in g, which is ordered and has a class unless it is
// new.
func (m *metaLevel) insert(r *ranking, g *group, img *image) {
	if len(g.min) == 0 {
		r.joinMin(g, img)
		m.set(r, img, false)
		r.prof.insts++
		return
	}
	switch c := r.cmp(img, g.min[0]); {
	case c < 0:
		// A new minimum: the class it displaces joins the rest.
		for _, x := range g.min {
			r.place(g, x)
			m.set(r, x, true)
		}
		clear(g.min)
		g.min = g.min[:0]
		r.joinMin(g, img)
		m.set(r, img, false)
		r.prof.insts++
	case c == 0:
		r.joinMin(g, img)
		tie := !r.o.Strict
		if tie && len(g.min) == 2 {
			m.set(r, g.min[0], true)
		}
		m.set(r, img, tie && len(g.min) > 1)
	default:
		r.place(g, img)
		m.set(r, img, true)
	}
}

// remove takes img, a leaver, out of its group. A class it leaves empty is
// refilled by promote once every leaver is out.
func (m *metaLevel) remove(r *ranking, img *image) {
	rk := &img.ranks[r.o.Rank]
	g := rk.g
	if g == nil {
		return
	}
	if rk.inMin {
		r.cut(&g.min, int(rk.at))
		switch {
		case len(g.min) == 1 && !r.o.Strict:
			m.set(r, g.min[0], false) // the tie is broken
		case len(g.min) == 0 && len(g.rest) > 0:
			r.emptied = append(r.emptied, g)
		}
	} else {
		r.cut(&g.rest, int(rk.at))
	}
	*rk = rank{}
	if !r.o.Regular(img.in.WMEs) {
		if g.nan--; g.nan == 0 && len(g.rest) > 0 {
			r.emptied = append(r.emptied, g) // ordered again
		}
	}
	switch {
	case len(g.min)+len(g.rest) == 0:
		r.release(g)
	case g.nan > 0:
		m.settle(r, g)
	}
}

// promote gives each group whose class the leavers emptied its next one:
// the members of the rest nothing comes before. A group that holds no NaN
// any more is ordered again the same way. The rest was redacted before, as
// above a class or by the test on every pair, and what stays in it still is,
// by the new class.
func (m *metaLevel) promote(r *ranking) {
	for _, g := range r.emptied {
		if len(g.min) > 0 || len(g.rest) == 0 || g.nan > 0 {
			continue // listed twice, released, or unordered again
		}
		// One pass: best holds the members tied for least so far.
		best := append(r.scratch[:0], g.rest[0])
		for _, x := range g.rest[1:] {
			switch c := r.cmp(x, best[0]); {
			case c < 0:
				best = append(best[:0], x)
			case c == 0:
				best = append(best, x)
			}
		}
		for _, x := range best {
			r.cut(&g.rest, int(x.ranks[r.o.Rank].at))
			r.joinMin(g, x)
		}
		clear(best)
		r.scratch = best[:0]
		tie := !r.o.Strict && len(g.min) > 1
		for _, x := range g.min {
			m.set(r, x, tie)
		}
		r.prof.insts++
	}
	clear(r.emptied)
	r.emptied = r.emptied[:0]
}

// settle evaluates the order's test on every pair of g's members, g being
// unordered, and marks redacted each member some other redacts.
func (m *metaLevel) settle(r *ranking, g *group) {
	for _, v := range g.rest {
		redacted := false
		for _, w := range g.rest {
			if w != v {
				r.prof.Probes++
				if redacted = r.o.Redacts(w.in.WMEs, v.in.WMEs); redacted {
					break
				}
			}
		}
		m.set(r, v, redacted)
	}
}

// set records whether r redacts img. An image with a member that stops
// being redacted by any order, and has no witness, must look for one if a
// join-form meta-rule can redact it: it is queued for the end of the sync.
func (m *metaLevel) set(r *ranking, img *image, redacted bool) {
	rk := &img.ranks[r.o.Rank]
	if rk.redacted == redacted {
		return
	}
	if rk.redacted = redacted; redacted {
		img.above++
	} else {
		img.above--
	}
	if img.mb != nil {
		img.mb.Above = img.above
		if img.above == 0 && m.pats[img.in.Rule.Index][0].Victim {
			m.lifted = append(m.lifted, img)
		}
	}
}

// key returns the hash of the instantiation's group values; false when
// one is a NaN.
func (r *ranking) key(vec []*wm.WME) (uint64, bool) {
	h := uint64(len(r.o.Group))
	for _, ref := range r.o.Group {
		v := vec[ref.CE].Fields[ref.Field]
		if v.Kind == wm.KindFloat && math.IsNaN(v.F) {
			return 0, false
		}
		h = (h ^ valueindex.Hash(v)) * 0x100000001b3
	}
	return h, true
}

// find returns the group of the instantiation whose group values hash to
// h, nil when it has none yet.
func (r *ranking) find(h uint64, vec []*wm.WME) *group {
next:
	for g := r.groups[h]; g != nil; g = g.next {
		other := g.member().in.WMEs
		for _, ref := range r.o.Group {
			if vec[ref.CE].Fields[ref.Field] != other[ref.CE].Fields[ref.Field] {
				continue next
			}
		}
		return g
	}
	return nil
}

// member returns one of g's members.
func (g *group) member() *image {
	if len(g.min) > 0 {
		return g.min[0]
	}
	return g.rest[0]
}

// release unchains g, which is empty.
func (r *ranking) release(g *group) {
	p := r.groups[g.hash]
	switch {
	case p == g && g.next == nil:
		delete(r.groups, g.hash)
	case p == g:
		r.groups[g.hash] = g.next
	default:
		for p.next != g {
			p = p.next
		}
		p.next = g.next
	}
}

// each calls f for every member of every group.
func (r *ranking) each(f func(g *group, img *image)) {
	for _, g := range r.groups {
		for ; g != nil; g = g.next {
			for _, x := range g.min {
				f(g, x)
			}
			for _, x := range g.rest {
				f(g, x)
			}
		}
	}
}

// cmp compares two members by the order, counting the probe.
func (r *ranking) cmp(a, b *image) int {
	r.prof.Probes++
	return r.o.Compare(a.in.WMEs, b.in.WMEs)
}

// joinMin appends img to g's class, and place to its rest.
func (r *ranking) joinMin(g *group, img *image) {
	rk := &img.ranks[r.o.Rank]
	rk.g, rk.at, rk.inMin = g, int32(len(g.min)), true
	g.min = append(g.min, img)
}

func (r *ranking) place(g *group, img *image) {
	rk := &img.ranks[r.o.Rank]
	rk.g, rk.at, rk.inMin = g, int32(len(g.rest)), false
	g.rest = append(g.rest, img)
}

// cut takes the member at i out of *s, the last one taking its place.
func (r *ranking) cut(s *[]*image, i int) {
	last := len(*s) - 1
	(*s)[i] = (*s)[last]
	(*s)[i].ranks[r.o.Rank].at = int32(i)
	(*s)[last] = nil
	*s = (*s)[:last]
}

// explain returns r's case against img: the members of its group that
// redact it, by the test evaluated pair by pair.
func (r *ranking) explain(img *image) redaction {
	var red redaction
	g := img.ranks[r.o.Rank].g
	if g == nil {
		return red
	}
	for _, part := range [][]*image{g.min, g.rest} {
		for _, w := range part {
			if w != img && r.o.Redacts(w.in.WMEs, img.in.WMEs) {
				red.tuples++
				if red.with == nil || w.in.Compare(red.with[0]) < 0 {
					red.with = []*match.Instantiation{w.in}
				}
			}
		}
	}
	return red
}

// bytes returns the memory the groups take.
func (r *ranking) bytes() (n int) {
	for _, g := range r.groups {
		for ; g != nil; g = g.next {
			n += int(unsafe.Sizeof(*g)) + (cap(g.min)+cap(g.rest))*int(unsafe.Sizeof(g))
		}
	}
	return n
}
