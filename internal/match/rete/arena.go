package rete

import (
	"math/bits"
	"unsafe"
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
