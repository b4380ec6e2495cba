package cluster

import (
	"hash/fnv"
	"sort"
)

// Ring is a consistent-hash ring with virtual nodes. Each member owns
// VNodes points on a 64-bit circle; a key belongs to the member owning
// the first point at or after the key's hash. The useful property for
// failover is the *preference order*: walking the circle from the key's
// point yields every member exactly once, and removing a member from
// consideration reassigns only its keys — each to the next distinct
// member in its order, which is exactly where that key's replica is
// placed (see internal/server's replica targeting).
//
// A Ring is immutable after New; liveness is layered on top by filtering
// the preference order through Membership, never by rebuilding the ring,
// so two nodes with the same member list always agree on the order.
type Ring struct {
	points  []uint64 // sorted vnode hash points
	owners  []string // owners[i] owns points[i]
	members []string // distinct member names, sorted
}

// NewRing builds the ring over the given member names.
func NewRing(members []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = 64
	}
	r := &Ring{members: append([]string(nil), members...)}
	sort.Strings(r.members)
	type pt struct {
		h     uint64
		owner string
	}
	pts := make([]pt, 0, len(members)*vnodes)
	var buf [8]byte
	for _, m := range r.members {
		for i := 0; i < vnodes; i++ {
			h := fnv.New64a()
			h.Write([]byte(m))
			buf[0] = '#'
			buf[1] = byte(i)
			buf[2] = byte(i >> 8)
			h.Write(buf[:3])
			pts = append(pts, pt{h.Sum64(), m})
		}
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].h != pts[j].h {
			return pts[i].h < pts[j].h
		}
		return pts[i].owner < pts[j].owner
	})
	r.points = make([]uint64, len(pts))
	r.owners = make([]string, len(pts))
	for i, p := range pts {
		r.points[i] = p.h
		r.owners[i] = p.owner
	}
	return r
}

func hashKey(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return h.Sum64()
}

// Owner returns the member owning key with every member considered live.
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i] >= hashKey(key) })
	if i == len(r.points) {
		i = 0
	}
	return r.owners[i]
}

// Order returns every member exactly once, in the key's ring-walk
// preference order: Order(key)[0] is the owner, and if the first k
// members are all unavailable, Order(key)[k] is the deterministic
// fallback every node agrees on.
func (r *Ring) Order(key string) []string {
	out := make([]string, 0, len(r.members))
	if len(r.points) == 0 {
		return out
	}
	seen := make(map[string]bool, len(r.members))
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i] >= hashKey(key) })
	for i := 0; i < len(r.points) && len(out) < len(r.members); i++ {
		owner := r.owners[(start+i)%len(r.points)]
		if !seen[owner] {
			seen[owner] = true
			out = append(out, owner)
		}
	}
	return out
}
