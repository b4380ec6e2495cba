// Package seeded is the tree's one seeded-join engine, run the way a CHR
// store runs an active constraint (Frühwirth's survey, PAPERS.md): a member
// entering or leaving a memory is joined against the other memories through
// their indexes, along the plan compiled for that memory's pattern
// (compile.Pattern.Seed), and no partial match is stored. TREAT is this
// engine plus a conflict set, the meta level (internal/core/redact.go) this
// engine plus kill counts. A memory lists, in arrival order, the members
// passing one pattern's alpha tests, bucketed by a valueindex.Index per
// field its plans probe; lists and buckets are linked through the members.
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
	// In, Kills and Leaving are the meta level's: the instantiation an image
	// reifies, how many tuples redact it (once per mention in their rule's
	// redact list), and that it is queued to leave, so a tuple all of whose
	// victims are leaving is not worth enumerating.
	In      *match.Instantiation
	Kills   int32
	Leaving bool
	// at holds the member's neighbours in each chain that may list it, laid
	// out by compile.Pattern.Pos: at[p.Pos] in the list of p's memory,
	// at[p.Pos+1+k] in its bucket of the memory's k-th index. A member p's
	// memory does not hold is its own at[p.Pos].prev. atBuf backs at when
	// it needs no more.
	at    []links
	atBuf [2]links
}

type links struct{ next, prev *Member }

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

// Held reports whether p's memory holds the member.
func (mb *Member) Held(p *compile.Pattern) bool { return mb.at[p.Pos].prev != mb }

// Bytes returns the memory the member takes: its links and, for an image,
// whose WME copies no element's, the field vector.
func (mb *Member) Bytes() int {
	n := int(unsafe.Sizeof(*mb))
	if len(mb.at) > len(mb.atBuf) {
		n += len(mb.at) * int(unsafe.Sizeof(links{}))
	}
	if mb.Ref == nil {
		n += cap(mb.W.Fields) * int(unsafe.Sizeof(wm.Value{}))
	}
	return n
}

// Mem is the memory of one pattern.
type Mem struct {
	pat  *compile.Pattern
	list valueindex.Chain[*Member]
	idx  []valueindex.Index[*Member]
	// N counts the members, and Leaving those flagged as leaving.
	N, Leaving int
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
	// receives each tuple it completes.
	Seed   *compile.Pattern
	Found  func()
	seed   *Member
	counts *Counts
}

// New returns a walker over empty memories of pats, reporting to found.
func New(pats []*compile.Pattern, found func()) Walker {
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
// to Found, and counts the work in c. stay is extend's.
func (w *Walker) Join(p *compile.Pattern, seed *Member, c *Counts, stay bool) {
	w.Seed, w.seed, w.counts = p, seed, c
	w.Tuple[p.Pat], w.Env.Vec[p.Pat] = seed, &seed.W
	for _, ce := range p.Seed.Filters {
		if !match.EvalFilters(ce, &w.Env) {
			return
		}
	}
	if len(p.Seed.Absent) == 0 || w.absent(p.Seed.Absent) {
		w.extend(p.Seed.Steps, stay)
	}
}

// extend binds the patterns of steps, one a level, to every combination of
// members that passes the tests, filters and absence checks. stay says that
// some member the tuple so far redacts is not leaving; while none is, a
// candidate after which none can be is skipped untested.
func (w *Walker) extend(steps []compile.Step, stay bool) {
	if len(steps) == 0 {
		w.Found()
		return
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
		stays := stay || st.Victim && !c.Leaving
		if !stays && st.LastVictim || c == notSeed {
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
			w.extend(steps[1:], stays)
		}
	}
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
