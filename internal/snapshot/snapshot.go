// Package snapshot persists working memory as PARULEL `(wm …)` source,
// and loads it back. This is the reproduction's stand-in for the
// PARULEL/PARADISER line's database coupling: rule processing runs to
// quiescence, the working memory is exported, updates arrive from
// outside, and processing resumes incrementally.
//
// The format is deliberately the language's own initial-facts syntax, so
// a snapshot can be concatenated with a program file and run directly by
// `cmd/parulel`.
package snapshot

import (
	"fmt"
	"io"

	"parulel/internal/lang"
	"parulel/internal/wm"
)

// Inserter receives loaded facts; both engines and wm.Memory adapters
// implement it.
type Inserter interface {
	Insert(template string, fields map[string]wm.Value) (*wm.WME, error)
}

// Write renders every live WME of mem as one fact inside a `(wm …)`
// block, in time-tag order. Nil-valued attributes are elided. Symbols
// that would not re-lex as a single token (e.g. containing spaces) are
// rejected before anything is written: they cannot round-trip through
// source text.
func Write(w io.Writer, mem *wm.Memory) error { return WriteFacts(w, mem.Snapshot()) }

// flushAt is the least text WriteFacts hands w in one write, the last
// write excepted.
const flushAt = 32 << 10

// WriteFacts is Write over facts already in time-tag order, for callers
// that hold the sorted working memory anyway. Every symbol is checked
// before the first byte goes to w, so a refused snapshot writes nothing;
// the text is then appended in one pass and flushed in chunks of at
// least flushAt bytes.
func WriteFacts(w io.Writer, facts []*wm.WME) error {
	if err := checkFacts(facts); err != nil {
		return err
	}
	buf := make([]byte, 0, 4<<10)
	buf = append(buf, "(wm\n"...)
	for _, el := range facts {
		buf = append(buf, "  ("...)
		buf = append(buf, el.Tmpl.Name...)
		for i, attr := range el.Tmpl.Attrs {
			v := el.Fields[i]
			if v.IsNil() {
				continue
			}
			buf = append(buf, " ^"...)
			buf = append(buf, attr...)
			buf = append(buf, ' ')
			buf = v.AppendLiteral(buf)
		}
		buf = append(buf, ")\n"...)
		if len(buf) >= flushAt {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	buf = append(buf, ")\n"...)
	_, err := w.Write(buf)
	return err
}

// SymbolError refuses a snapshot holding a symbol with no literal form:
// its text would not re-lex as the one symbol token it spells (it holds
// a space, say). Any string a JSON fact carries becomes a symbol, so
// such facts reach working memory through the server's API.
type SymbolError struct {
	Time int64  // the fact's time tag
	Attr string // the attribute holding the symbol
	Sym  string
}

func (e *SymbolError) Error() string {
	return fmt.Sprintf("snapshot: WME %d attribute %s: symbol %q does not round-trip through source text", e.Time, e.Attr, e.Sym)
}

// checkFacts finds the first symbol, in write order, whose literal form
// does not re-lex to the same value. Each distinct symbol is lexed once.
func checkFacts(facts []*wm.WME) error {
	var ok map[string]struct{}
	for _, el := range facts {
		for i, v := range el.Fields {
			if v.Kind != wm.KindSym {
				continue // numbers, strings and nil always round-trip
			}
			if _, seen := ok[v.S]; seen {
				continue
			}
			if !symbolRoundTrips(v.S) {
				return &SymbolError{Time: el.Time, Attr: el.Tmpl.Attrs[i], Sym: v.S}
			}
			if ok == nil {
				ok = make(map[string]struct{})
			}
			ok[v.S] = struct{}{}
		}
	}
	return nil
}

// symbolRoundTrips reports whether s lexes back as exactly one symbol
// token spelled s.
func symbolRoundTrips(s string) bool {
	toks, err := lang.LexAll(s)
	return err == nil && len(toks) == 2 && toks[0].Kind == lang.TokSym && toks[0].Text == s
}

// Read parses PARULEL source consisting of `(wm …)` blocks (and
// optionally template declarations, which are ignored) and inserts every
// fact into ins. It returns the number of facts inserted.
func Read(r io.Reader, ins Inserter) (int, error) {
	src, err := io.ReadAll(r)
	if err != nil {
		return 0, err
	}
	prog, err := lang.Parse(string(src))
	if err != nil {
		return 0, fmt.Errorf("snapshot: %w", err)
	}
	if len(prog.Rules) > 0 || len(prog.MetaRules) > 0 {
		return 0, fmt.Errorf("snapshot: input contains rules; a snapshot holds only (wm …) blocks")
	}
	n := 0
	for _, fd := range prog.Facts {
		for _, f := range fd.Facts {
			fields := make(map[string]wm.Value, len(f.Slots))
			for _, s := range f.Slots {
				fields[s.Attr] = s.Val
			}
			if _, err := ins.Insert(f.Type, fields); err != nil {
				return n, fmt.Errorf("snapshot: fact (%s …): %w", f.Type, err)
			}
			n++
		}
	}
	return n, nil
}
