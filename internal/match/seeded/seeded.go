// Package seeded is the tree's one seeded-join engine, run the way a CHR
// store runs an active constraint (Frühwirth's survey, PAPERS.md): a member
// entering or leaving a memory is joined against the other memories through
// their indexes, along the plan compiled for that memory's pattern
// (compile.Pattern.Seed), and no partial match is stored. TREAT is this
// engine plus a conflict set, the meta level (internal/core/redact.go) this
// engine plus witnesses: for each member some tuple redacts, one such tuple.
// A memory lists, in arrival order, the members passing one pattern's alpha
// tests, bucketed by a valueindex.Index per field its plans probe; lists and
// buckets are linked through the members.
package seeded

import (
	"unsafe"

	"parulel/internal/compile"
	"parulel/internal/match"
	"parulel/internal/valueindex"
	"parulel/internal/wm"
)

// Member is what the memories hold: TREAT's record of a working-memory
// element, or the meta level's image of an eligible instantiation.
type Member struct {
	// W is the WME the tests read, held by value so a probe reads its
	// fields without following a pointer: a copy of the element Ref for a
	// TREAT record, the reified instantiation for an image (Ref nil).
	W   wm.WME
	Ref *wm.WME
	// In is the instantiation an image reifies, and wit and deps are the
	// meta level's too. wit is the image's witness, a tuple that redacts
	// it: a link for each other member of the tuple, in slot order, or
	// for a tuple of the image alone one link no chain holds; empty while
	// it has none. Its array is kept for the next witness.
	In  *match.Instantiation
	wit []link
	// Above counts the orders (internal/core/order.go) that redact the
	// image: a member so redacted needs no witness, as one with a witness
	// needs no other.
	Above int32
	// deps chains the links, in other members' witnesses, that hold this
	// one: the members that lose their witness when it leaves.
	deps *link
	// at holds the member's neighbours in each chain that may list it, laid
	// out by compile.Pattern.Pos: at[p.Pos] in the list of p's memory,
	// at[p.Pos+1+k] in its bucket of the memory's k-th index. A member p's
	// memory does not hold is its own at[p.Pos].prev. atBuf backs at when
	// it needs no more. at is nil until Lay and after Unlay.
	at    []links
	atBuf [2]links
}

type links struct{ next, prev *Member }

// link is the place of a witness's owner in the chain of dependents of
// the member at one slot of it; pprev points at whatever points at the
// link, and is nil in a link no chain holds.
type link struct {
	owner *Member
	next  *link
	pprev **link
}

// Image is the meta level's member with the link of a witness of two
// members — every builtin join-form meta-rule's — beside it, so that its
// witnesses allocate nothing: on the builtin programs nearly every image
// is redacted at some point, and a link allocated by its first witness
// would be one allocation more for each. The meta level allocates it
// within its own record of the image.
type Image struct {
	Member
	one [1]link
}

// Init makes the image's member the member for in, with no witness, and
// returns it.
func (img *Image) Init(in *match.Instantiation) *Member {
	img.Member = Member{In: in}
	img.wit = img.one[:0]
	return &img.Member
}

// Lay sizes the member's link vector for the memories of l and marks it
// held by none of them.
func (mb *Member) Lay(l *compile.Layout) {
	if mb.at = mb.atBuf[:]; l.NumPos > len(mb.atBuf) {
		mb.at = make([]links, l.NumPos)
	}
	for _, p := range l.Patterns {
		mb.at[p.Pos].prev = mb
	}
}

// Unlay drops the link vector of a member no memory holds any more.
func (mb *Member) Unlay() { mb.at = nil }

// Laid reports whether the member has a link vector: Lay ran, Unlay did not.
func (mb *Member) Laid() bool { return mb.at != nil }

// Held reports whether p's memory holds the member.
func (mb *Member) Held(p *compile.Pattern) bool { return mb.at[p.Pos].prev != mb }

// Bytes returns the memory the member takes: its links, the links kept for
// its witness and, for an image, whose WME copies no element's, the field
// vector.
func (mb *Member) Bytes() int {
	n := int(unsafe.Sizeof(*mb)) + cap(mb.wit)*int(unsafe.Sizeof(link{}))
	if len(mb.at) > len(mb.atBuf) {
		n += len(mb.at) * int(unsafe.Sizeof(links{}))
	}
	if mb.Ref == nil {
		n += cap(mb.W.Fields) * int(unsafe.Sizeof(wm.Value{}))
	}
	return n
}

// Redacted reports whether the member has a witness or an order redacts
// it.
func (mb *Member) Redacted() bool { return len(mb.wit) != 0 || mb.Above != 0 }

// Witnessed reports whether the member has a witness.
func (mb *Member) Witnessed() bool { return len(mb.wit) != 0 }

// Witness makes tuple, a tuple of distinct members holding mb, mb's
// witness, and files mb among the dependents of every other member of it.
// mb is not redacted. It returns how many bytes mb grew by.
func (mb *Member) Witness(tuple []*Member) (grew int) {
	n := max(len(tuple)-1, 1)
	if cap(mb.wit) < n {
		grew = (n - cap(mb.wit)) * int(unsafe.Sizeof(link{}))
		mb.wit = make([]link, n)
	}
	mb.wit = mb.wit[:n]
	mb.wit[0].owner = mb // all a tuple of mb alone sets
	ls := mb.wit
	for _, x := range tuple {
		if x == mb {
			continue
		}
		l := &ls[0]
		ls = ls[1:]
		if l.owner, l.next, l.pprev = mb, x.deps, &x.deps; l.next != nil {
			l.next.pprev = &l.next
		}
		x.deps = l
	}
	return grew
}

// Unwitness drops mb's witness, if it has one, taking mb out of the
// dependents of the members it held.
func (mb *Member) Unwitness() {
	for i := range mb.wit {
		if l := &mb.wit[i]; l.pprev != nil {
			if *l.pprev = l.next; l.next != nil {
				l.next.pprev = l.pprev
			}
		}
	}
	clear(mb.wit)
	mb.wit = mb.wit[:0]
}

// Dependent returns a member whose witness holds mb; nil when none does.
func (mb *Member) Dependent() *Member {
	if mb.deps == nil {
		return nil
	}
	return mb.deps.owner
}

// Dependents calls f for each member whose witness holds mb, with mb's
// place among the other members of that witness, in slot order.
func (mb *Member) Dependents(f func(dep *Member, at int)) {
	for l := mb.deps; l != nil; l = l.next {
		dep := l.owner
		at := 0
		for &dep.wit[at] != l {
			at++
		}
		f(dep, at)
	}
}

// Mem is the memory of one pattern.
type Mem struct {
	pat  *compile.Pattern
	list valueindex.Chain[*Member]
	idx  []valueindex.Index[*Member]
	// N counts the members.
	N int
}

// field is the owner of an index over that field of the members.
type field int

func (f field) Key(mb *Member) wm.Value { return mb.W.Fields[f] }

// Add files mb last in the memory's list and in its bucket of each index.
func (mem *Mem) Add(mb *Member) {
	mem.N++
	for k := 0; k <= len(mem.idx); k++ {
		var prev *Member
		if k == 0 {
			prev = mem.list.Push(mb)
		} else {
			prev = mem.idx[k-1].Add(field(mem.pat.Indexed[k-1]), mb)
		}
		if mb.at[mem.pat.Pos+k].prev = prev; prev != nil {
			prev.at[mem.pat.Pos+k].next = mb
		}
	}
}

// Remove takes mb out of the memory, which then no longer holds it.
func (mem *Mem) Remove(mb *Member) {
	mem.N--
	for k := 0; k <= len(mem.idx); k++ {
		l := &mb.at[mem.pat.Pos+k]
		if k == 0 {
			mem.list.Drop(l.prev, l.next)
		} else {
			mem.idx[k-1].Remove(field(mem.pat.Indexed[k-1]), mb, l.prev, l.next)
		}
		if l.prev != nil {
			l.prev.at[mem.pat.Pos+k].next = l.next
		}
		if l.next != nil {
			l.next.at[mem.pat.Pos+k].prev = l.prev
		}
	}
	mb.at[mem.pat.Pos] = links{prev: mb}
}

// Bytes returns the memory the index tables take.
func (mem *Mem) Bytes() (n int) {
	for i := range mem.idx {
		n += mem.idx[i].Bytes()
	}
	return n
}

// Counts is one rule's join activity: the candidates its joins tested, at
// steps and absence checks, and the partial tuples they extended.
type Counts struct{ Probes, Tokens uint64 }

// Walker runs seeded joins over the memories of a set of patterns, Mems by
// Pattern.ID. No memory may change while a join runs.
type Walker struct {
	Mems []Mem
	// Tuple is the tuple a join is enumerating, by slot, and Env.Vec the
	// same tuple as WMEs, for the tests and filters.
	Tuple []*Member
	Env   compile.VecEnv
	// Seed is the pattern the join in progress is seeded at, and Found
	// receives each tuple it completes and reports whether it settled it:
	// left every member the tuple redacts with a witness.
	Seed   *compile.Pattern
	Found  func() (settled bool)
	seed   *Member
	counts *Counts
}

// New returns a walker over empty memories of pats, reporting to found.
func New(pats []*compile.Pattern, found func() bool) Walker {
	w := Walker{Mems: make([]Mem, len(pats)), Found: found}
	width := 0
	for i, p := range pats {
		w.Mems[i].pat = p
		if len(p.Indexed) > 0 {
			w.Mems[i].idx = make([]valueindex.Index[*Member], len(p.Indexed))
		}
		width = max(width, p.Pat+1)
	}
	w.Tuple, w.Env.Vec = make([]*Member, width), make([]*wm.WME, width)
	return w
}

// Join enumerates the tuples of p's rule that hold seed at p, passing each
// to Found, and counts the work in c. need is extend's: for a join of an
// object rule, whose plans bind nothing a match redacts, it is true.
func (w *Walker) Join(p *compile.Pattern, seed *Member, c *Counts, need bool) {
	w.Seed, w.seed, w.counts = p, seed, c
	w.Tuple[p.Pat], w.Env.Vec[p.Pat] = seed, &seed.W
	for _, ce := range p.Seed.Filters {
		if !match.EvalFilters(ce, &w.Env) {
			return
		}
	}
	if len(p.Seed.Absent) == 0 || w.absent(p.Seed.Absent) {
		w.extend(p.Seed.Steps, need)
	}
}

// extend binds the patterns of steps, one a level, to every combination of
// members that passes the tests, filters and absence checks, and reports
// whether Found settled a tuple. need says that a member the tuple so far
// redacts has no witness. While none has, no tuple is completed unless a
// later step binds one that has not: a candidate at the last step binding
// a member a match redacts is skipped untested unless it is such a one, and
// the steps after that step are not walked. Once Found settles a tuple,
// every member it redacts has a witness, those bound so far among them.
func (w *Walker) extend(steps []compile.Step, need bool) (settled bool) {
	if !need && (len(steps) == 0 || steps[0].LastVictim && !steps[0].Victim) {
		return false
	}
	if len(steps) == 0 {
		return w.Found()
	}
	st := &steps[0]
	var notSeed *Member
	if st.NotSeed {
		notSeed = w.seed
	}
	vec, q, counts := w.Env.Vec, st.Pat.Pat, w.counts
	// The candidates are the memory's list or, when the step has an
	// equality test to probe with, one bucket; at is where a candidate
	// keeps its successor in either.
	mem := &w.Mems[st.Pat.ID]
	c, at := mem.list.Head, st.Pat.Pos
	if st.Index >= 0 {
		c, at = mem.idx[st.Index].Get(field(st.Pat.Indexed[st.Index]), vec[st.From.CE].Fields[st.From.Field]), at+1+st.Index
	}
cand:
	for ; c != nil; c = c.at[at].next {
		needs := need || st.Victim && !c.Redacted()
		if !needs && st.LastVictim || c == notSeed {
			continue
		}
		for _, d := range st.Distinct {
			if w.Tuple[d] == c {
				continue cand
			}
		}
		counts.Probes++
		w.Tuple[q], vec[q] = c, &c.W
		for i := range st.Tests {
			t := &st.Tests[i]
			if !t.Op.Apply(vec[t.Ref.CE].Fields[t.Ref.Field], vec[t.Other.CE].Fields[t.Other.Field]) {
				continue cand
			}
		}
		for _, ce := range st.Filters {
			if !match.EvalFilters(ce, &w.Env) {
				continue cand
			}
		}
		if len(st.Absent) == 0 || w.absent(st.Absent) {
			counts.Tokens++
			if w.extend(steps[1:], needs) {
				settled, need = true, false
				if st.LastVictim && !st.Victim {
					break
				}
			}
		}
	}
	return settled
}

// absent reports whether, for each check, no member of its negated
// pattern's memory passes its tests against the tuple so far.
func (w *Walker) absent(checks []compile.Step) bool {
	vec := w.Env.Vec
	for i := range checks {
		st := &checks[i]
		q, mem := st.Pat.Pat, &w.Mems[st.Pat.ID]
		keep := vec[q] // the seed, when the check is on its own pattern
		c, at := mem.list.Head, st.Pat.Pos
		if st.Index >= 0 {
			c, at = mem.idx[st.Index].Get(field(st.Pat.Indexed[st.Index]), vec[st.From.CE].Fields[st.From.Field]), at+1+st.Index
		}
	cand:
		for ; c != nil; c = c.at[at].next {
			w.counts.Probes++
			vec[q] = &c.W
			for _, t := range st.Tests {
				if !t.Op.Apply(vec[t.Ref.CE].Fields[t.Ref.Field], vec[t.Other.CE].Fields[t.Other.Field]) {
					continue cand
				}
			}
			vec[q] = keep
			return false
		}
		vec[q] = keep
	}
	return true
}
