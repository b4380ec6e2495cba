package snapshot

import (
	"bytes"
	"strings"
	"testing"

	"parulel/internal/wm"
)

// FuzzSnapshotRead: recovery and the HTTP import endpoint feed untrusted
// bytes to Read. Truncation and garbage must come back as errors, never
// as panics, and accepted input must insert exactly the reported number
// of facts — and, written back out, must read back to the same facts.
func FuzzSnapshotRead(f *testing.F) {
	seeds := []string{
		"",
		"(wm)",
		"(wm (a ^x 1))",
		"(wm (a ^x 1 ^y sym) (a ^y \"str\") (b))",
		"(literalize a x y)\n(wm (a ^x 1))",
		"(wm (unknown ^x 1))",
		"(wm (a ^nope 1))",
		"(wm (a ^x",
		"(rule r (a ^x 1) --> (halt))",
		"(wm (a ^x 1.5e300) (a ^x -0.0))",
		strings.Repeat("(wm ", 200),
		"(wm (a ^x << 1 2 >>))",
		"\x00\xff(wm",
		// strings strconv.Quote escapes beyond \n \t \" \\, as Write writes them
		`(wm (a ^x "a\rb" ^y "bell\a") (a ^x "nul\x00" ^y "u\u2028x"))`,
		"(wm (a ^x \"raw\r\xff\u2028\"))",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		schema := wm.NewSchema()
		if _, err := schema.Declare("a", "x", "y"); err != nil {
			t.Fatal(err)
		}
		if _, err := schema.Declare("b", "z"); err != nil {
			t.Fatal(err)
		}
		mem := wm.NewMemory(schema)
		n, err := Read(strings.NewReader(src), mem)
		if err != nil {
			return // rejecting is fine; panicking is not
		}
		if n != mem.Len() {
			t.Fatalf("Read reported %d facts, memory holds %d", n, mem.Len())
		}
		var out bytes.Buffer
		if err := Write(&out, mem); err != nil {
			return // a symbol with no literal form: refused, not mangled
		}
		back := wm.NewMemory(schema)
		if _, err := Read(&out, back); err != nil {
			t.Fatalf("snapshot of accepted input does not read back: %v\n%s", err, out.String())
		}
		want, got := mem.Snapshot(), back.Snapshot()
		if len(got) != len(want) {
			t.Fatalf("%d facts read back, wrote %d", len(got), len(want))
		}
		for i := range want {
			if want[i].String() != got[i].String() {
				t.Fatalf("fact %d read back as %s, wrote %s", i, got[i], want[i])
			}
		}
	})
}
