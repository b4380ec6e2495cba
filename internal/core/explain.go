package core

import (
	"fmt"
	"io"
	"strings"

	"parulel/internal/match"
)

// ExplainConflictSet writes a human-readable listing of the current
// conflict set: each instantiation's rule, refraction status, matched
// elements and variable bindings, and for an eligible instantiation the
// last redact phase redacted, which meta-rules did and with which other
// instantiations. Intended for debugging rule programs
// (`parulel run -explain`).
func (e *Engine) ExplainConflictSet(w io.Writer) error {
	return match.Explain(w, e.ConflictSet(), func(in *match.Instantiation) bool { return e.cs[in.Slot].fired }, e.explainRedaction)
}

// explainRedaction returns one line per meta-rule that redacted in at the
// last redact phase: the meta-rule, the rest of the first matching tuple,
// and how many tuples matched. The meta level keeps one tuple per redacted
// instantiation, not every one; they are found again here.
func (e *Engine) explainRedaction(in *match.Instantiation) []string {
	var out []string
	for _, r := range e.meta.explain(e.cs[in.Slot].img) {
		var b strings.Builder
		b.WriteString("redacted by " + r.rule)
		sep := " with "
		for _, other := range r.with {
			b.WriteString(sep + other.String())
			sep = ", "
		}
		if r.tuples > 1 {
			fmt.Fprintf(&b, " (first of %d matches)", r.tuples)
		}
		out = append(out, b.String())
	}
	return out
}
