package parulel

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"

	"parulel/internal/snapshot"
	"parulel/internal/wm"
)

// TestSnapshotRoundTripAllBuiltins runs every embedded example program to
// quiescence, exports its working memory as a `(wm …)` snapshot, reloads
// the snapshot into a fresh memory over the same schema, and checks the
// two memories hold identical fact multisets. This is the contract the
// server's snapshot endpoints (and cmd/parulel's -dump-wm/-wm flags)
// depend on.
func TestSnapshotRoundTripAllBuiltins(t *testing.T) {
	for _, name := range Builtins() {
		t.Run(name, func(t *testing.T) {
			prog, err := LoadBuiltin(name)
			if err != nil {
				t.Fatal(err)
			}
			eng := NewEngine(prog, Config{MaxCycles: 200000})
			if _, err := eng.Run(); err != nil {
				t.Fatalf("run: %v", err)
			}

			var buf bytes.Buffer
			if err := eng.DumpWM(&buf); err != nil {
				t.Fatalf("export: %v", err)
			}
			exported := buf.String()

			mem := wm.NewMemory(prog.compiled.Schema)
			n, err := snapshot.Read(strings.NewReader(exported), mem)
			if err != nil {
				t.Fatalf("reload: %v", err)
			}
			if n != eng.WMSize() {
				t.Fatalf("reloaded %d facts, engine holds %d", n, eng.WMSize())
			}

			want := factMultiset(engineMemory(eng))
			got := factMultiset(mem)
			if len(want) != len(got) {
				t.Fatalf("fact counts differ: %d vs %d", len(want), len(got))
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("fact %d differs:\n  exported: %s\n  reloaded: %s", i, want[i], got[i])
				}
			}

			// Second-generation export must be byte-identical modulo fact
			// order (time tags restart in the fresh memory, and Write emits
			// facts in time-tag order, which reload preserves).
			var buf2 bytes.Buffer
			if err := snapshot.Write(&buf2, mem); err != nil {
				t.Fatalf("re-export: %v", err)
			}
			if buf2.String() != exported {
				t.Fatalf("second-generation snapshot differs:\n-- first --\n%s\n-- second --\n%s", exported, buf2.String())
			}
		})
	}
}

// engineMemory digs the live memory out of the facade engine.
func engineMemory(e *Engine) *wm.Memory {
	if e.seq != nil {
		return e.seq.Memory()
	}
	return e.par.Memory()
}

// factMultiset renders every live WME as a canonical string and sorts
// them, giving an order- and time-tag-independent comparison key.
func factMultiset(m *wm.Memory) []string {
	out := make([]string, 0, m.Len())
	for _, el := range m.Snapshot() {
		var b strings.Builder
		b.WriteString(el.Tmpl.Name)
		for i, attr := range el.Tmpl.Attrs {
			if el.Fields[i].IsNil() {
				continue
			}
			fmt.Fprintf(&b, " ^%s %s", attr, el.Fields[i])
		}
		out = append(out, b.String())
	}
	sort.Strings(out)
	return out
}
