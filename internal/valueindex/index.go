// Package valueindex is the one hash-join index of the tree: the members
// of a memory bucketed by a wm.Value each of them carries. The RETE network
// indexes its alpha memories and token memories with it (internal/match/rete)
// and the meta level its image memories (internal/core/redact.go).
package valueindex

import (
	"hash/maphash"
	"math"

	"parulel/internal/wm"
)

// Keyed is what an index holds: tokens, WME records, conflict-set images.
// A member can say which value it carries at an index's position, so the
// index stores no keys of its own.
type Keyed interface {
	comparable
	// KeyAt returns the member's value at (positive CE, field); members
	// that are one WME ignore the CE.
	KeyAt(ce, field int) wm.Value
}

// Index is a hash-join index: the members of a memory bucketed by the
// value each carries at (CE, Field). It is an open-addressed table with
// linear probing whose slots hold a 64-bit hash and the bucket's members;
// a bucket's key is read back from its first member. The zero value with
// CE and Field set is an empty index and owns no memory.
//
// Members are stored densely in each bucket and removed by position: Add
// returns where the member went, the owner keeps that (token.slot, a WME
// record's membership, an image's positions), and Remove reports which
// member it moved into the hole so the owner can update that one's
// position. Nothing is looked up by member, so there is no position map.
//
// A bucket must not change while it is being ranged over. The owners'
// structure guarantees it: RETE's alpha memories change only between
// activations, and a node's activation adds and removes tokens only in
// memories downstream of the one it is reading; the meta level joins an
// image against its memories before it adds it and after it removes it.
type Index[T Keyed] struct {
	CE, Field int
	slots     []bucket[T] // length zero or a power of two
	live      int         // buckets in use
	dead      int         // tombstones
	n         int         // members over all buckets
}

type bucket[T Keyed] struct {
	hash  uint64 // hashEmpty, hashTomb, or hashValue of the members' key
	items []T
}

// Slot states. hashValue never returns either.
const (
	hashEmpty = 0
	hashTomb  = 1
	hashMin   = 2
)

const minSlots = 8

var hashSeed = maphash.MakeSeed()

// hashValue hashes v consistently with ==, the equality of an OpEq join
// test: +0.0 and -0.0 are equal and hash alike; values of different kinds
// are never equal, whatever their payloads, and the kind is mixed in so
// that Int 3, Float 3.0, Sym "3" and Str "3" do not pile up in one chain.
// NaN is unequal to itself, so what it hashes to does not matter.
func hashValue(v wm.Value) uint64 {
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

// Len returns the number of members over all buckets.
func (ix *Index[T]) Len() int { return ix.n }

// Slots returns the size of the table, which is zero for an empty index.
func (ix *Index[T]) Slots() int { return len(ix.slots) }

// Get returns the members whose key equals v; the slice aliases the bucket.
func (ix *Index[T]) Get(v wm.Value) []T {
	if ix.live == 0 {
		return nil
	}
	h := hashValue(v)
	mask := len(ix.slots) - 1
	for i := int(h) & mask; ; i = (i + 1) & mask {
		b := &ix.slots[i]
		if b.hash == h && b.items[0].KeyAt(ix.CE, ix.Field) == v {
			return b.items
		}
		if b.hash == hashEmpty {
			return nil
		}
	}
}

// Add files x under its key and returns its position in the bucket.
func (ix *Index[T]) Add(x T) int {
	if (ix.live+ix.dead+1)*4 > len(ix.slots)*3 {
		ix.rehash()
	}
	v := x.KeyAt(ix.CE, ix.Field)
	h := hashValue(v)
	mask := len(ix.slots) - 1
	tomb := -1
	ix.n++
	for i := int(h) & mask; ; i = (i + 1) & mask {
		b := &ix.slots[i]
		switch {
		case b.hash == h && b.items[0].KeyAt(ix.CE, ix.Field) == v:
			b.items = append(b.items, x)
			return len(b.items) - 1
		case b.hash == hashTomb && tomb < 0:
			tomb = i
		case b.hash == hashEmpty:
			if tomb >= 0 {
				b = &ix.slots[tomb]
				ix.dead--
			}
			b.hash, b.items = h, []T{x}
			ix.live++
			return 0
		}
	}
}

// Remove takes x out of position pos of its bucket, moving the bucket's
// last member into the hole; moved is that member when there was one to
// move. The bucket is found by hash and identity, not by key equality, so
// a member keyed by NaN — which no probe can reach — is still removable.
// Removing the last member leaves a tombstone; removing the index's last
// member releases the table.
func (ix *Index[T]) Remove(x T, pos int) (moved T, ok bool) {
	h := hashValue(x.KeyAt(ix.CE, ix.Field))
	mask := len(ix.slots) - 1
	for i := int(h) & mask; ; i = (i + 1) & mask {
		if ix.live == 0 || ix.slots[i].hash == hashEmpty {
			panic("valueindex: remove of a non-member")
		}
		b := &ix.slots[i]
		if b.hash != h || pos >= len(b.items) || b.items[pos] != x {
			continue
		}
		ix.n--
		var zero T
		last := len(b.items) - 1
		if last == 0 {
			b.hash, b.items = hashTomb, nil
			ix.live--
			ix.dead++
			if ix.live == 0 {
				ix.slots, ix.dead = nil, 0
			}
			return zero, false
		}
		moved = b.items[last]
		b.items[pos] = moved
		b.items[last] = zero
		b.items = b.items[:last]
		return moved, pos != last
	}
}

// rehash rebuilds the table at a size fitted to the live buckets, which
// drops every tombstone: the table doubles when it is full of buckets and
// stays or shrinks when it is full of tombstones.
func (ix *Index[T]) rehash() {
	size := minSlots
	for size < 2*(ix.live+1) {
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
