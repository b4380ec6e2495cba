package wm

import (
	"cmp"
	"fmt"
	"slices"
)

// Memory is the working memory: the authoritative set of live WMEs. The
// engines mutate it only between match phases (at the cycle barrier), so it
// needs no internal locking; matchers receive immutable Delta values
// instead of touching Memory.
type Memory struct {
	schema   *Schema
	nextTime int64
	byTime   map[int64]*WME
	byTmpl   map[*Template]map[int64]*WME
}

// NewMemory returns an empty working memory over the given schema.
func NewMemory(schema *Schema) *Memory {
	return &Memory{
		schema: schema,
		byTime: make(map[int64]*WME),
		byTmpl: make(map[*Template]map[int64]*WME),
	}
}

// Schema returns the schema this memory was created with.
func (m *Memory) Schema() *Schema { return m.schema }

// Insert creates a WME of the named template and adds it to the memory.
// fields maps attribute names to values; unmentioned attributes are nil.
func (m *Memory) Insert(template string, fields map[string]Value) (*WME, error) {
	t, ok := m.schema.Lookup(template)
	if !ok {
		return nil, fmt.Errorf("wm: make of undeclared template %q", template)
	}
	vals := make([]Value, t.Arity())
	for attr, v := range fields {
		i, ok := t.AttrIndex(attr)
		if !ok {
			return nil, fmt.Errorf("wm: template %q has no attribute %q", template, attr)
		}
		vals[i] = v
	}
	return m.InsertFields(t, vals), nil
}

// InsertFields adds a WME with a pre-built positional field vector. The
// vector is owned by the memory after the call. It panics if the vector
// length does not match the template arity; that is a compiler bug, not a
// user error.
func (m *Memory) InsertFields(t *Template, fields []Value) *WME {
	if len(fields) != t.Arity() {
		panic(fmt.Sprintf("wm: template %q arity %d, got %d fields", t.Name, t.Arity(), len(fields)))
	}
	m.nextTime++
	w := &WME{Time: m.nextTime, Tmpl: t, Fields: fields}
	m.byTime[w.Time] = w
	class := m.byTmpl[t]
	if class == nil {
		class = make(map[int64]*WME)
		m.byTmpl[t] = class
	}
	class[w.Time] = w
	return w
}

// Remove deletes the WME with the given time tag and returns it. Removing
// an absent tag returns (nil, false); parallel firing makes double-removes
// legitimate (two instantiations may remove the same element), so this is
// not an error.
func (m *Memory) Remove(time int64) (*WME, bool) {
	w, ok := m.byTime[time]
	if !ok {
		return nil, false
	}
	delete(m.byTime, time)
	delete(m.byTmpl[w.Tmpl], time)
	return w, true
}

// Get returns the live WME with the given time tag.
func (m *Memory) Get(time int64) (*WME, bool) {
	w, ok := m.byTime[time]
	return w, ok
}

// Len returns the number of live WMEs.
func (m *Memory) Len() int { return len(m.byTime) }

// CountOf returns the number of live WMEs of the named template.
func (m *Memory) CountOf(template string) int {
	t, ok := m.schema.Lookup(template)
	if !ok {
		return 0
	}
	return len(m.byTmpl[t])
}

// Snapshot returns all live WMEs ordered by time tag. The slice is fresh;
// the WMEs are shared (immutable).
func (m *Memory) Snapshot() []*WME {
	out := make([]*WME, 0, len(m.byTime))
	for _, w := range m.byTime {
		out = append(out, w)
	}
	slices.SortFunc(out, byTime)
	return out
}

func byTime(a, b *WME) int { return cmp.Compare(a.Time, b.Time) }

// OfTemplate returns the live WMEs of the named template ordered by time
// tag.
func (m *Memory) OfTemplate(template string) []*WME {
	t, ok := m.schema.Lookup(template)
	if !ok {
		return nil
	}
	out := make([]*WME, 0, len(m.byTmpl[t]))
	for _, w := range m.byTmpl[t] {
		out = append(out, w)
	}
	slices.SortFunc(out, byTime)
	return out
}

// NextTime reports the time tag the next inserted WME will receive minus
// one, i.e. the highest tag handed out so far.
func (m *Memory) NextTime() int64 { return m.nextTime }

// CheckTagInvariant verifies the time-tag monotonicity invariant: every
// live tag is positive and at or below the high water mark (the counter
// never rewound past a handed-out tag), and the per-template index
// agrees exactly with the primary index. The engines maintain this
// implicitly; rehydration and temporal expiry splice tags in and out
// explicitly, so checkpointing asserts it before trusting a snapshot.
func (m *Memory) CheckTagInvariant() error {
	count := 0
	for tag, w := range m.byTime {
		if tag <= 0 || tag > m.nextTime {
			return fmt.Errorf("wm: live tag %d outside (0, high water %d]", tag, m.nextTime)
		}
		if w.Time != tag {
			return fmt.Errorf("wm: WME indexed at %d carries tag %d", tag, w.Time)
		}
		if m.byTmpl[w.Tmpl][tag] != w {
			return fmt.Errorf("wm: tag %d missing from template index %q", tag, w.Tmpl.Name)
		}
	}
	for _, class := range m.byTmpl {
		count += len(class)
	}
	if count != len(m.byTime) {
		return fmt.Errorf("wm: template indexes hold %d WMEs, primary index %d", count, len(m.byTime))
	}
	return nil
}

// SetNextTime advances the time-tag counter so the next insertion
// receives tag n+1. It only moves forward: recovery restores the
// counter a checkpoint recorded, and rewinding would mint duplicate
// tags. Moving backward is a no-op.
func (m *Memory) SetNextTime(n int64) {
	if n > m.nextTime {
		m.nextTime = n
	}
}

// InsertAt restores a WME under an explicit time tag. It is the
// checkpoint-recovery counterpart of Insert: tags are normally minted
// monotonically, but a recovered working memory must reproduce the exact
// tags the crashed process assigned (meta-rules observe them via `(tag
// <i>)`, and gensym values derive from them). The counter advances past
// the restored tag.
//
// Restored tags must themselves arrive in strictly increasing order: a
// tag at or below the high water mark — even one whose WME has since
// been removed or expired — would re-enter the memory out of recency
// order and silently corrupt refraction keys and conflict resolution,
// so it is rejected rather than trusted.
func (m *Memory) InsertAt(template string, fields map[string]Value, time int64) (*WME, error) {
	if time <= 0 {
		return nil, fmt.Errorf("wm: restore with non-positive time tag %d", time)
	}
	if time <= m.nextTime {
		return nil, fmt.Errorf("wm: restore time tag %d violates monotonicity (high water %d)", time, m.nextTime)
	}
	if _, dup := m.byTime[time]; dup {
		return nil, fmt.Errorf("wm: restore reuses live time tag %d", time)
	}
	t, ok := m.schema.Lookup(template)
	if !ok {
		return nil, fmt.Errorf("wm: restore of undeclared template %q", template)
	}
	vals := make([]Value, t.Arity())
	for attr, v := range fields {
		i, ok := t.AttrIndex(attr)
		if !ok {
			return nil, fmt.Errorf("wm: template %q has no attribute %q", template, attr)
		}
		vals[i] = v
	}
	w := &WME{Time: time, Tmpl: t, Fields: vals}
	m.byTime[time] = w
	class := m.byTmpl[t]
	if class == nil {
		class = make(map[int64]*WME)
		m.byTmpl[t] = class
	}
	class[time] = w
	m.SetNextTime(time)
	return w, nil
}
