package rete

import (
	"math/bits"
	"unsafe"

	"parulel/internal/wm"
)

// record is what an arena holds: a struct of integers — handles into this
// and the network's other arenas, node ids, nothing the collector would
// have to follow — one of whose fields is never negative while the record
// is in use.
type record[T any] interface {
	*T
	// stamp returns that field. A freed record keeps its place in the free
	// list there, as -1 minus the handle of the next one, and so reads as
	// dead to whoever still holds its handle.
	stamp() *int32
}

// deadHandle is the panic of a network that followed a handle to a freed
// record: its links have gone wrong, and going on would match against
// whatever the slot is reused for.
const deadHandle = "rete: handle to a freed record"

// arena is a network's store of one kind of record. A record is named by
// its handle, a small positive integer (zero is no record), and lives in a
// chunk that never moves: a reference taken before an activation is good
// after it, whatever the activation allocated, and growing copies nothing.
// Chunks double from 8 records to 512 and stay there, so a network of a
// few records owns a few hundred bytes and a large one wastes at most a
// chunk — 20 KiB of tokens, a size the allocator has a class for. An arena owns nothing until its first record, recycles freed
// records before it grows, and gives everything back with its last one.
type arena[T any, P record[T]] struct {
	chunks [][]T
	next   int32 // the lowest handle never handed out
	free   int32 // head of the free list
	live   int32
}

const (
	smallShift = 3 // the first chunk is 8 records
	bigShift   = 9 // no chunk is more than 512
	nsmall     = bigShift - smallShift + 1
)

// at returns the record h names. Handles below 1<<bigShift are in the
// chunks of 8, 8, 16, … 256 records, the rest in chunks of 1<<bigShift.
func (a *arena[T, P]) at(h int32) *T {
	if h >= 1<<bigShift {
		return &a.chunks[nsmall-1+h>>bigShift][h&(1<<bigShift-1)]
	}
	c := bits.Len32(uint32(h) >> smallShift)
	return &a.chunks[c][int(h)&(max(1<<smallShift, 1<<smallShift<<c>>1)-1)]
}

// alloc returns a zeroed record and its handle.
func (a *arena[T, P]) alloc() (int32, *T) {
	a.live++
	if h := a.free; h != 0 {
		r := a.at(h)
		a.free = -1 - *P(r).stamp()
		var zero T
		*r = zero
		return h, r
	}
	if a.next == 0 {
		a.next = 1
	}
	h := a.next
	if a.next++; int(h) >= a.cap() {
		size := 1 << bigShift
		if c := len(a.chunks); c < nsmall {
			size = max(1<<smallShift, 1<<smallShift<<c>>1)
		}
		a.chunks = append(a.chunks, make([]T, size))
	}
	return h, a.at(h)
}

// release frees the record h names.
func (a *arena[T, P]) release(h int32) {
	*P(a.at(h)).stamp() = -1 - a.free
	a.free = h
	if a.live--; a.live == 0 {
		*a = arena[T, P]{}
	}
}

// cap returns how many handles the chunks cover, handle zero included.
func (a *arena[T, P]) cap() int {
	if c := len(a.chunks); c <= nsmall {
		return 1 << smallShift << c >> 1 &^ (1<<smallShift - 1)
	}
	return (len(a.chunks) - nsmall + 1) << bigShift
}

func (a *arena[T, P]) bytes() int {
	var zero T
	return a.cap() * int(unsafe.Sizeof(zero))
}

// wmeTable finds a WME's record: an open-addressed table of record
// handles, hashed by the WME's time tag. WMEs are shared, read-only, by
// the networks of different workers, so what a network knows about one
// cannot live on it.
type wmeTable struct {
	slots []int32 // zero is empty; length zero or a power of two
	n     int
}

const minTable = 16

func (tb *wmeTable) home(w *wm.WME) int {
	return int(uint64(w.Time)*0x9e3779b97f4a7c15>>32) & (len(tb.slots) - 1)
}

// find returns the slot holding w's record, or the empty slot it would go
// in. wmes is the network's WME of every record.
func (tb *wmeTable) find(w *wm.WME, wmes []*wm.WME) int {
	for i := tb.home(w); ; i = (i + 1) & (len(tb.slots) - 1) {
		if h := tb.slots[i]; h == 0 || wmes[h] == w {
			return i
		}
	}
}

// get returns w's record, or zero.
func (tb *wmeTable) get(w *wm.WME, wmes []*wm.WME) int32 {
	if tb.n == 0 {
		return 0
	}
	return tb.slots[tb.find(w, wmes)]
}

// put enters h, the record of a WME not in the table. The table is kept
// at most half full.
func (tb *wmeTable) put(h int32, wmes []*wm.WME) {
	if tb.n++; 2*tb.n > len(tb.slots) {
		old := tb.slots
		tb.slots = make([]int32, max(minTable, 2*len(old)))
		for _, o := range old {
			if o != 0 {
				tb.slots[tb.find(wmes[o], wmes)] = o
			}
		}
	}
	tb.slots[tb.find(wmes[h], wmes)] = h
}

// remove takes out w's record and returns it, or zero. The entries after
// it that probed past its slot move up, so the table holds no tombstones;
// the last record out releases it.
func (tb *wmeTable) remove(w *wm.WME, wmes []*wm.WME) int32 {
	if tb.n == 0 {
		return 0
	}
	i := tb.find(w, wmes)
	h := tb.slots[i]
	if h == 0 {
		return 0
	}
	if tb.n--; tb.n == 0 {
		tb.slots = nil
		return h
	}
	mask := len(tb.slots) - 1
	for j := (i + 1) & mask; tb.slots[j] != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole at i unless its home lies
		// cyclically in (i, j].
		if k := tb.home(wmes[tb.slots[j]]); (j-k)&mask >= (j-i)&mask {
			tb.slots[i] = tb.slots[j]
			i = j
		}
	}
	tb.slots[i] = 0
	return h
}
