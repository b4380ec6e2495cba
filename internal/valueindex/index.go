// Package valueindex is the one hash-join index of the tree: the members
// of a memory bucketed by a wm.Value each of them carries. It has three
// users: the RETE network indexes its alpha memories and token memories
// with it (internal/match/rete), and the seeded-join engine
// (internal/match/seeded) the memories of TREAT's records and of the meta
// level's images (internal/match/treat, internal/core/redact.go). Its
// Hash also files the meta level's order groups (internal/core/order.go).
package valueindex

import (
	"hash/maphash"
	"math"
	"unsafe"

	"parulel/internal/wm"
)

// Chain is the two ends of a list of members in arrival order. The list
// is linked through the members themselves: the owner keeps each member's
// neighbours (a token's bnext and bprev, a membership's, a seeded-join
// member's links) and a chain only ever hears about its ends, so it stores
// one member's worth of state however many it lists. The zero T is no
// member.
type Chain[T comparable] struct {
	Head, Tail T
}

// Push makes x the last member and returns the one it now follows, for the
// owner to link the two; the zero T when x is alone.
func (c *Chain[T]) Push(x T) (prev T) {
	var zero T
	prev, c.Tail = c.Tail, x
	if prev == zero {
		c.Head = x
	}
	return prev
}

// Drop takes out the member whose neighbours are prev and next. A member
// between two others leaves the ends as they are.
func (c *Chain[T]) Drop(prev, next T) {
	var zero T
	if prev == zero {
		c.Head = next
	}
	if next == zero {
		c.Tail = prev
	}
}

// Keyer is the owner of an index, which says what value a member is filed
// under: every operation is handed it, so an index holds no reference to
// its owner and an owner need allocate nothing to be one.
type Keyer[T any] interface {
	Key(x T) wm.Value
}

// Index is a hash-join index: the members of a memory in one chain per
// value of a key. It is an open-addressed table with linear probing whose
// slots hold a 64-bit hash and a bucket's two ends, and nothing else: no
// key — the owner says what a member's key is, and a bucket's is read back
// from its first member — and no member storage, so a table of handles is
// memory the collector never scans. The zero value is an empty index and
// owns no memory; a nil *Index reads as one.
//
// Nothing is looked up by member. Add returns the member the new one
// follows; Remove is told the leaver's neighbours and touches the table
// only when one of them is missing.
//
// A bucket must not change while it is being walked. The owners'
// structure guarantees it: RETE's alpha memories change only between
// activations, and a node's activation adds and removes tokens only in
// memories downstream of the one it is reading; the seeded-join engine's
// users change no memory while a join runs.
type Index[T comparable] struct {
	slots []bucket[T] // length zero or a power of two
	live  int32       // buckets in use
	dead  int32       // tombstones
}

type bucket[T comparable] struct {
	hash uint64 // hashEmpty, hashTomb, or Hash of the members' key
	Chain[T]
}

// Slot states. Hash never returns either.
const (
	hashEmpty = 0
	hashTomb  = 1
	hashMin   = 2
)

const minSlots = 8

var hashSeed = maphash.MakeSeed()

// Hash hashes v consistently with ==, the equality of an OpEq join
// test: +0.0 and -0.0 are equal and hash alike; values of different kinds
// are never equal, whatever their payloads, and the kind is mixed in so
// that Int 3, Float 3.0, Sym "3" and Str "3" do not pile up in one chain.
// NaN is unequal to itself, so what it hashes to does not matter.
func Hash(v wm.Value) uint64 {
	var h uint64
	switch v.Kind {
	case wm.KindInt:
		h = uint64(v.I)
	case wm.KindFloat:
		if v.F != 0 {
			h = math.Float64bits(v.F)
		}
	case wm.KindSym, wm.KindStr:
		h = maphash.String(hashSeed, v.S)
	}
	h = (h + uint64(v.Kind)) * 0x9e3779b97f4a7c15
	h ^= h >> 32
	if h < hashMin {
		h += hashMin
	}
	return h
}

// Slots returns the size of the table, which is zero for an empty index,
// and Bytes the memory it takes.
func (ix *Index[T]) Slots() int {
	if ix == nil {
		return 0
	}
	return len(ix.slots)
}

func (ix *Index[T]) Bytes() int { return ix.Slots() * int(unsafe.Sizeof(bucket[T]{})) }

// Get returns the first of the members whose key equals v, or the zero T.
func (ix *Index[T]) Get(o Keyer[T], v wm.Value) (head T) {
	if ix == nil || ix.live == 0 {
		return head
	}
	h := Hash(v)
	mask := len(ix.slots) - 1
	for i := int(h) & mask; ; i = (i + 1) & mask {
		b := &ix.slots[i]
		if b.hash == h && o.Key(b.Head) == v {
			return b.Head
		}
		if b.hash == hashEmpty {
			return head
		}
	}
}

// Add files x last under its key and returns the member it follows there,
// or the zero T.
func (ix *Index[T]) Add(o Keyer[T], x T) (prev T) {
	if int(ix.live+ix.dead+1)*4 > len(ix.slots)*3 {
		ix.rehash()
	}
	v := o.Key(x)
	h := Hash(v)
	mask := len(ix.slots) - 1
	tomb := -1
	for i := int(h) & mask; ; i = (i + 1) & mask {
		b := &ix.slots[i]
		switch {
		case b.hash == h && o.Key(b.Head) == v:
			return b.Push(x)
		case b.hash == hashTomb && tomb < 0:
			tomb = i
		case b.hash == hashEmpty:
			if tomb >= 0 {
				b = &ix.slots[tomb]
				ix.dead--
			}
			b.hash = h
			ix.live++
			return b.Push(x)
		}
	}
}

// Remove takes out x, whose neighbours in its bucket are prev and next. At
// an end of the bucket — it is found by hash and identity, not by key
// equality, so a member keyed by NaN, which no probe can reach, is still
// removable — the end moves; removing a bucket's last member leaves a
// tombstone, and removing the index's last member releases the table.
func (ix *Index[T]) Remove(o Keyer[T], x, prev, next T) {
	var zero T
	if prev != zero && next != zero {
		return
	}
	h := Hash(o.Key(x))
	mask := len(ix.slots) - 1
	for i := int(h) & mask; ; i = (i + 1) & mask {
		if ix.live == 0 || ix.slots[i].hash == hashEmpty {
			panic("valueindex: remove of a non-member")
		}
		b := &ix.slots[i]
		if b.hash != h || b.Head != x && b.Tail != x {
			continue
		}
		if b.Drop(prev, next); b.Head != zero {
			return
		}
		b.hash = hashTomb
		ix.dead++
		if ix.live--; ix.live == 0 {
			ix.slots, ix.dead = nil, 0
		}
		return
	}
}

// rehash rebuilds the table at a size fitted to the live buckets, which
// drops every tombstone: the table doubles when it is full of buckets and
// stays or shrinks when it is full of tombstones.
func (ix *Index[T]) rehash() {
	size := minSlots
	for size < 2*int(ix.live+1) {
		size *= 2
	}
	old := ix.slots
	ix.slots, ix.dead = make([]bucket[T], size), 0
	mask := size - 1
	for _, b := range old {
		if b.hash < hashMin {
			continue
		}
		i := int(b.hash) & mask
		for ix.slots[i].hash != hashEmpty {
			i = (i + 1) & mask
		}
		ix.slots[i] = b
	}
}
