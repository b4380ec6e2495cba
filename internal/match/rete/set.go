package rete

import "parulel/internal/wm"

// set is an unordered set with dense storage. Members sit in a slice —
// one append to add, a plain loop to range over — and, once there are
// enough of them that scanning for the one to remove would show, in a
// position index as well. Nearly every set in a network is small (one
// bucket of a hash-join index), and the large ones (a whole memory under a
// join with no equality test) are ranged over far more than they are
// edited.
//
// A set must not change while it is being ranged over. The network's
// structure guarantees it: alpha memories change only between
// activations, and a node's activation adds and removes tokens only in
// memories downstream of the one it is reading.
type set[T comparable] struct {
	items []T
	pos   map[T]int // nil until len(items) exceeds setScan
}

// setScan is the size up to which removal scans the slice.
const setScan = 16

// all returns the members; nil-safe, so an absent bucket ranges as empty.
func (s *set[T]) all() []T {
	if s == nil {
		return nil
	}
	return s.items
}

func (s *set[T]) len() int { return len(s.all()) }

// add inserts x, which must not be a member already.
func (s *set[T]) add(x T) {
	s.items = append(s.items, x)
	if s.pos != nil {
		s.pos[x] = len(s.items) - 1
	} else if len(s.items) > setScan {
		s.pos = make(map[T]int, 2*len(s.items))
		for i, y := range s.items {
			s.pos[y] = i
		}
	}
}

// remove deletes x if it is a member, moving the last member into its
// place.
func (s *set[T]) remove(x T) {
	i := -1
	if s.pos != nil {
		p, ok := s.pos[x]
		if !ok {
			return
		}
		i = p
		delete(s.pos, x)
	} else {
		for j, y := range s.items {
			if y == x {
				i = j
				break
			}
		}
		if i < 0 {
			return
		}
	}
	last := len(s.items) - 1
	if i != last {
		s.items[i] = s.items[last]
		if s.pos != nil {
			s.pos[s.items[i]] = i
		}
	}
	var zero T
	s.items[last] = zero
	s.items = s.items[:last]
	if last == 0 {
		s.pos = nil
	}
}

// valueIndex is a hash-join index: the members of a memory bucketed by the
// value each carries at the indexed position. Empty buckets are dropped.
type valueIndex[T comparable] map[wm.Value]*set[T]

func (ix valueIndex[T]) add(v wm.Value, x T) {
	b := ix[v]
	if b == nil {
		b = &set[T]{}
		ix[v] = b
	}
	b.add(x)
}

func (ix valueIndex[T]) remove(v wm.Value, x T) {
	if b := ix[v]; b != nil {
		if b.remove(x); len(b.items) == 0 {
			delete(ix, v)
		}
	}
}
