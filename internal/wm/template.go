package wm

import (
	"fmt"
	"sort"
)

// Template is a declared WME class (OPS5 `literalize`): a name plus an
// ordered list of attribute names. Attribute positions are fixed at
// declaration time; patterns and actions address fields by attribute name,
// which the compiler resolves to positions.
type Template struct {
	Name   string
	Attrs  []string
	index  map[string]int
	byName []int
}

// ByName returns the attribute positions in attribute-name order — the
// order the sorted keys of a JSON object put them in — resolved once at
// declaration like the positions themselves. Callers must not modify it.
func (t *Template) ByName() []int { return t.byName }

// AttrIndex returns the field position of the named attribute.
func (t *Template) AttrIndex(attr string) (int, bool) {
	i, ok := t.index[attr]
	return i, ok
}

// Arity returns the number of attributes.
func (t *Template) Arity() int { return len(t.Attrs) }

// Schema is the set of templates declared by a program. It is immutable
// after program compilation, so it is safe for concurrent readers.
type Schema struct {
	templates map[string]*Template
}

// NewSchema returns an empty schema.
func NewSchema() *Schema {
	return &Schema{templates: make(map[string]*Template)}
}

// Declare adds a template. It is an error to redeclare a template name or
// to repeat an attribute within one template.
func (s *Schema) Declare(name string, attrs ...string) (*Template, error) {
	if name == "" {
		return nil, fmt.Errorf("wm: template name must not be empty")
	}
	if _, dup := s.templates[name]; dup {
		return nil, fmt.Errorf("wm: template %q redeclared", name)
	}
	t := &Template{
		Name:  name,
		Attrs: append([]string(nil), attrs...),
		index: make(map[string]int, len(attrs)),
	}
	for i, a := range attrs {
		if a == "" {
			return nil, fmt.Errorf("wm: template %q: empty attribute name", name)
		}
		if _, dup := t.index[a]; dup {
			return nil, fmt.Errorf("wm: template %q: duplicate attribute %q", name, a)
		}
		t.index[a] = i
		t.byName = append(t.byName, i)
	}
	sort.Slice(t.byName, func(i, j int) bool { return t.Attrs[t.byName[i]] < t.Attrs[t.byName[j]] })
	s.templates[name] = t
	return t, nil
}

// Lookup returns the named template.
func (s *Schema) Lookup(name string) (*Template, bool) {
	t, ok := s.templates[name]
	return t, ok
}

// MustLookup returns the named template and panics if it is absent. It is
// intended for generated code and tests where absence is a programming
// error.
func (s *Schema) MustLookup(name string) *Template {
	t, ok := s.templates[name]
	if !ok {
		panic(fmt.Sprintf("wm: unknown template %q", name))
	}
	return t
}

// Names returns the declared template names in sorted order.
func (s *Schema) Names() []string {
	names := make([]string, 0, len(s.templates))
	for n := range s.templates {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Len returns the number of declared templates.
func (s *Schema) Len() int { return len(s.templates) }
