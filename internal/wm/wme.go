package wm

import (
	"fmt"
	"strings"
)

// WME is a working-memory element: an immutable instance of a template with
// one value per attribute and a recency time tag. WMEs are identified by
// their time tag (as in OPS5, where the time tag doubles as the identifier);
// a `modify` is remove + make and therefore produces a *new* WME with a
// fresh tag.
//
// WMEs are never mutated after insertion, so they may be shared freely
// between matchers and between goroutines.
type WME struct {
	// Time is the recency time tag, unique per WME and monotonically
	// increasing across the life of a Memory.
	Time int64
	// Tmpl is the template this element instantiates.
	Tmpl *Template
	// Fields holds one value per template attribute.
	Fields []Value
}

// Field returns the value at attribute position i.
func (w *WME) Field(i int) Value { return w.Fields[i] }

// FieldByName returns the value of the named attribute.
func (w *WME) FieldByName(attr string) (Value, bool) {
	i, ok := w.Tmpl.AttrIndex(attr)
	if !ok {
		return Value{}, false
	}
	return w.Fields[i], true
}

// String renders the WME in make-form with its time tag, e.g.
// `12: (pool ^id 3 ^amount 250)`. Nil-valued attributes are elided.
func (w *WME) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d: (%s", w.Time, w.Tmpl.Name)
	for i, a := range w.Tmpl.Attrs {
		if w.Fields[i].IsNil() {
			continue
		}
		fmt.Fprintf(&b, " ^%s %s", a, w.Fields[i])
	}
	b.WriteString(")")
	return b.String()
}
