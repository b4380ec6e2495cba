package wm

// Delta is an immutable batch of working-memory changes, produced by one
// engine cycle and consumed by the engine's matcher. Removals are listed
// before additions because `modify` is remove+make and matchers must see
// the removal of the old element before the addition of its replacement.
type Delta struct {
	Removed []*WME
	Added   []*WME
}

// Empty reports whether the delta carries no changes.
func (d Delta) Empty() bool { return len(d.Removed) == 0 && len(d.Added) == 0 }

// Size returns the total number of changes.
func (d Delta) Size() int { return len(d.Removed) + len(d.Added) }
