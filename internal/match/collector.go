package match

// ChangeCollector accumulates conflict-set additions and removals during
// one delta application and nets out instantiations that were both added
// and removed (e.g. created by one WME of the delta and retracted by a
// later one).
//
// Events for one key alternate — an instantiation is in the conflict set
// or it is not — so netting only ever concerns keys with events on both
// sides. Most deltas have none: a working memory loaded or a session torn
// down has one side only, and a meta level fed one cycle's changes removes
// one set of matches and adds another. Those cost one append per event and,
// when both sides are present, one probe of a table of 64-bit key hashes.
type ChangeCollector struct {
	added, removed []*Instantiation
}

// NewChangeCollector returns an empty collector.
func NewChangeCollector() *ChangeCollector { return &ChangeCollector{} }

// Add records an instantiation addition.
func (c *ChangeCollector) Add(in *Instantiation) { c.added = append(c.added, in) }

// Remove records an instantiation removal.
func (c *ChangeCollector) Remove(in *Instantiation) { c.removed = append(c.removed, in) }

// Take returns the netted changes, in no particular order, and resets the
// collector. The engines fold them into keyed sets and impose the
// deterministic instantiation order themselves where they need it.
func (c *ChangeCollector) Take() Changes {
	ch := Changes{Added: c.added, Removed: c.removed}
	c.added, c.removed = nil, nil
	if len(ch.Added) == 0 || len(ch.Removed) == 0 || disjoint(ch.Added, ch.Removed) {
		return ch
	}
	net := make(map[Key]int, len(ch.Removed))
	for _, in := range ch.Added {
		net[in.Key()]++
	}
	for _, in := range ch.Removed {
		net[in.Key()]--
	}
	// A key's surviving event is its last one: walk backwards and let the
	// first hit claim it.
	last := func(events []*Instantiation, sign int) []*Instantiation {
		var out []*Instantiation
		for i := len(events) - 1; i >= 0; i-- {
			if k := events[i].Key(); net[k]*sign > 0 {
				net[k] = 0
				out = append(out, events[i])
			}
		}
		return out
	}
	return Changes{Added: last(ch.Added, +1), Removed: last(ch.Removed, -1)}
}

// disjoint reports whether no key occurs in both lists, judging by the
// 64-bit hash every key carries: a false alarm only costs the exact pass.
func disjoint(a, b []*Instantiation) bool {
	if len(a) > len(b) {
		a, b = b, a
	}
	hash := func(in *Instantiation) uint64 { return in.key.Hash + uint64(in.key.Rule)*fnvPrime64 }
	seen := make(map[uint64]struct{}, len(a))
	for _, in := range a {
		seen[hash(in)] = struct{}{}
	}
	for _, in := range b {
		if _, hit := seen[hash(in)]; hit {
			return false
		}
	}
	return true
}
