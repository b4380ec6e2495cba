package snapshot

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"unicode/utf8"

	"parulel/internal/core"
	"parulel/internal/programs"
	"parulel/internal/wm"
	"parulel/internal/workload"
)

func TestWriteReadRoundTrip(t *testing.T) {
	prog, err := programs.Load(programs.Alexsys)
	if err != nil {
		t.Fatal(err)
	}
	// Run the allocation to quiescence, snapshot the result.
	e1 := core.New(prog, core.Options{MaxCycles: 1000})
	if err := workload.Alexsys(e1, 20, 15, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := e1.Run(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, e1.Memory()); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "(wm\n") {
		t.Errorf("snapshot should be a (wm …) block:\n%.80s", buf.String())
	}

	// Load into a fresh engine: identical WM contents (modulo time tags).
	prog2, err := programs.Load(programs.Alexsys)
	if err != nil {
		t.Fatal(err)
	}
	e2 := core.New(prog2, core.Options{MaxCycles: 1000})
	n, err := Read(bytes.NewReader(buf.Bytes()), e2)
	if err != nil {
		t.Fatal(err)
	}
	if n != e1.Memory().Len() {
		t.Fatalf("loaded %d facts, memory had %d", n, e1.Memory().Len())
	}
	canon := func(mem *wm.Memory) string {
		var b strings.Builder
		for _, w := range mem.Snapshot() {
			// Strip the time tag: only content matters.
			s := w.String()
			b.WriteString(s[strings.Index(s, "("):])
			b.WriteString("\n")
		}
		return b.String()
	}
	if canon(e1.Memory()) != canon(e2.Memory()) {
		t.Errorf("round trip changed WM:\nbefore:\n%s\nafter:\n%s", canon(e1.Memory()), canon(e2.Memory()))
	}

	// The restored engine is already quiescent: the allocation was
	// maximal, so resuming does nothing.
	res, err := e2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Firings != 0 {
		t.Errorf("restored quiescent state fired %d times", res.Firings)
	}
}

func TestWriteAllValueKinds(t *testing.T) {
	schema := wm.NewSchema()
	if _, err := schema.Declare("t", "a", "b", "c", "d", "e"); err != nil {
		t.Fatal(err)
	}
	mem := wm.NewMemory(schema)
	if _, err := mem.Insert("t", map[string]wm.Value{
		"a": wm.Int(-7),
		"b": wm.Float(2.5),
		"c": wm.Sym("sym-bol*2"),
		"d": wm.Str("a \"quoted\"\nstring"),
		// e stays nil
	}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, mem); err != nil {
		t.Fatal(err)
	}
	mem2 := wm.NewMemory(schema)
	if _, err := Read(bytes.NewReader(buf.Bytes()), memInserter{mem2}); err != nil {
		t.Fatalf("read back: %v\nsnapshot:\n%s", err, buf.String())
	}
	got := mem2.Snapshot()
	if len(got) != 1 {
		t.Fatalf("facts: %d", len(got))
	}
	want := mem.Snapshot()[0]
	for i := range want.Fields {
		if got[0].Fields[i] != want.Fields[i] {
			t.Errorf("field %d: %v != %v", i, got[0].Fields[i], want.Fields[i])
		}
	}
}

// TestArbitraryStringsRoundTrip: any byte string a fact can hold — control
// bytes, invalid UTF-8, line separators, unprintable runes — is written in
// a form Read reads back to an Equal value. The first four made a session's
// next checkpoint unreadable while the lexer knew only `\n \t \" \\`.
func TestArbitraryStringsRoundTrip(t *testing.T) {
	strs := []string{"a\rb", "bell\a", "nul\x00", "u\u2028x"}
	for b := 0; b < 256; b++ {
		strs = append(strs, string([]byte{byte(b)}))
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		var s []byte
		for n := rng.Intn(8); n > 0; n-- {
			if rng.Intn(2) == 0 {
				s = append(s, byte(rng.Intn(256)))
			} else {
				s = utf8.AppendRune(s, rune(rng.Intn(utf8.MaxRune+1)))
			}
		}
		strs = append(strs, string(s))
	}
	schema := wm.NewSchema()
	if _, err := schema.Declare("t", "a"); err != nil {
		t.Fatal(err)
	}
	mem := wm.NewMemory(schema)
	for _, s := range strs {
		if _, err := mem.Insert("t", map[string]wm.Value{"a": wm.Str(s)}); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := Write(&buf, mem); err != nil {
		t.Fatal(err)
	}
	back := wm.NewMemory(schema)
	if _, err := Read(bytes.NewReader(buf.Bytes()), memInserter{back}); err != nil {
		t.Fatalf("read back: %v", err)
	}
	got := back.Snapshot()
	if len(got) != len(strs) {
		t.Fatalf("%d facts read back, wrote %d", len(got), len(strs))
	}
	for i, s := range strs {
		if !got[i].Fields[0].Equal(wm.Str(s)) {
			t.Errorf("string %q read back as %v", s, got[i].Fields[0])
		}
	}
}

// memInserter adapts a bare Memory to the Inserter interface.
type memInserter struct{ mem *wm.Memory }

func (m memInserter) Insert(tmpl string, fields map[string]wm.Value) (*wm.WME, error) {
	return m.mem.Insert(tmpl, fields)
}

func TestWriteRejectsUnlexableSymbols(t *testing.T) {
	schema := wm.NewSchema()
	if _, err := schema.Declare("t", "a"); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"has space", "paren(", "123starts-digit", ""} {
		mem := wm.NewMemory(schema)
		if _, err := mem.Insert("t", map[string]wm.Value{"a": wm.Sym(bad)}); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := Write(&buf, mem); err == nil {
			t.Errorf("symbol %q should not be writable", bad)
		}
	}
}

func TestReadErrors(t *testing.T) {
	schema := wm.NewSchema()
	if _, err := schema.Declare("t", "a"); err != nil {
		t.Fatal(err)
	}
	mem := wm.NewMemory(schema)
	cases := []struct {
		src    string
		substr string
	}{
		{"(rule r (t ^a 1) --> (halt))", "contains rules"},
		{"(wm (ghost ^a 1))", "undeclared"},
		{"(wm (t ^nope 1))", "no attribute"},
		{"(wm (t ^a", "expected"},
	}
	for _, c := range cases {
		_, err := Read(strings.NewReader(c.src), memInserter{mem})
		if err == nil || !strings.Contains(err.Error(), c.substr) {
			t.Errorf("Read(%q) error = %v, want %q", c.src, err, c.substr)
		}
	}
}
