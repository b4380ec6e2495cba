package match

import (
	"fmt"
	"io"
	"sort"
)

// Explain writes a human-readable listing of a conflict set: each
// instantiation's rule, refraction status, matched elements and variable
// bindings, and whatever lines notes — when not nil — has to add about it.
// fired reports an instantiation's refraction status.
func Explain(w io.Writer, ins []*Instantiation, fired func(*Instantiation) bool, notes func(*Instantiation) []string) error {
	if _, err := fmt.Fprintf(w, "conflict set: %d instantiation(s)\n", len(ins)); err != nil {
		return err
	}
	for _, in := range ins {
		status := "eligible"
		if fired(in) {
			status = "fired (refracted)"
		}
		if _, err := fmt.Fprintf(w, "%s  [%s]\n", in, status); err != nil {
			return err
		}
		if notes != nil {
			for _, note := range notes(in) {
				if _, err := fmt.Fprintf(w, "  %s\n", note); err != nil {
					return err
				}
			}
		}
		for i, wme := range in.WMEs {
			if _, err := fmt.Fprintf(w, "  %d: %s\n", i+1, wme); err != nil {
				return err
			}
		}
		names := make([]string, 0, len(in.Rule.Bindings))
		for name := range in.Rule.Bindings {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if _, err := fmt.Fprintf(w, "  <%s> = %s\n", name, in.Binding(in.Rule.Bindings[name])); err != nil {
				return err
			}
		}
	}
	return nil
}
