package snapshot

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"

	"parulel/internal/lang"
	"parulel/internal/wm"
)

// refWrite is the fmt-based writer WriteFacts replaced, kept as the
// reference its bytes and error verdicts are held to: one formatted
// write per token, values through refLiteral, and a full re-lex of every
// symbol field as it is reached (so on a bad symbol it has already
// written the facts before it).
func refWrite(w io.Writer, mem *wm.Memory) error {
	if _, err := fmt.Fprintln(w, "(wm"); err != nil {
		return err
	}
	for _, el := range mem.Snapshot() {
		if _, err := fmt.Fprint(w, "  ("); err != nil {
			return err
		}
		if _, err := fmt.Fprint(w, el.Tmpl.Name); err != nil {
			return err
		}
		for i, attr := range el.Tmpl.Attrs {
			v := el.Fields[i]
			if v.IsNil() {
				continue
			}
			if v.Kind == wm.KindSym {
				toks, err := lang.LexAll(v.S)
				if err != nil || len(toks) != 2 || toks[0].Kind != lang.TokSym || toks[0].Text != v.S {
					return fmt.Errorf("snapshot: WME %d attribute %s: %w", el.Time, attr,
						fmt.Errorf("symbol %q does not round-trip through source text", v.S))
				}
			}
			if _, err := fmt.Fprintf(w, " ^%s %s", attr, refLiteral(v)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w, ")"); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, ")")
	return err
}

// refLiteral is wm.Value.String as it was before AppendLiteral.
func refLiteral(v wm.Value) string {
	switch v.Kind {
	case wm.KindNil:
		return "nil"
	case wm.KindInt:
		return strconv.FormatInt(v.I, 10)
	case wm.KindFloat:
		s := strconv.FormatFloat(v.F, 'g', -1, 64)
		if !strings.ContainsAny(s, ".eEnN") {
			s += ".0"
		}
		return s
	case wm.KindSym:
		return v.S
	case wm.KindStr:
		return strconv.Quote(v.S)
	default:
		return fmt.Sprintf("?%d?", uint8(v.Kind))
	}
}

var (
	oracleInts   = []int64{0, 1, -1, 42, math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1}
	oracleFloats = []float64{math.Copysign(0, -1), 0, math.NaN(), math.Inf(1), math.Inf(-1),
		1e21, 1e20, -1e21, 42, -3, 0.5, 1e-7, 123456789012345678, math.MaxFloat64, math.SmallestNonzeroFloat64}
	oracleSyms = []string{"ok", "sym-bol*2", "nil", "a.b", "x1", "true",
		"has space", "paren(", "123starts-digit", "", "a\"b", "^x", "<v>", "semi;colon", "-", "+5", "1e3", "{", "é"}
)

// fuzzMemory decodes data into a working memory over two templates,
// drawing every field's kind and payload from the bytes: nil, ints at
// the ±2^63 edges or raw, floats including −0, NaN, ±Inf, integral and
// exponent forms or raw bits, strings of raw bytes (quotes, control
// bytes, invalid UTF-8), and symbols that do and do not re-lex.
func fuzzMemory(data []byte) *wm.Memory {
	schema := wm.NewSchema()
	templates := []*wm.Template{}
	for _, d := range []struct {
		name  string
		attrs []string
	}{{"item", []string{"k", "n", "state"}}, {"b", []string{"z"}}} {
		t, err := schema.Declare(d.name, d.attrs...)
		if err != nil {
			panic(err)
		}
		templates = append(templates, t)
	}
	mem := wm.NewMemory(schema)
	next := func(n int) []byte {
		if n > len(data) {
			n = len(data)
		}
		b := data[:n]
		data = data[n:]
		return b
	}
	byteOf := func() int {
		if b := next(1); len(b) == 1 {
			return int(b[0])
		}
		return 0
	}
	for len(data) > 0 {
		t := templates[byteOf()%len(templates)]
		fields := make([]wm.Value, t.Arity())
		for i := range fields {
			sel := byteOf()
			switch sel % 5 {
			case 0: // nil
			case 1:
				if sel&0x80 != 0 {
					var raw [8]byte
					copy(raw[:], next(8))
					fields[i] = wm.Int(int64(binary.LittleEndian.Uint64(raw[:])))
				} else {
					fields[i] = wm.Int(oracleInts[byteOf()%len(oracleInts)])
				}
			case 2:
				if sel&0x80 != 0 {
					var raw [8]byte
					copy(raw[:], next(8))
					fields[i] = wm.Float(math.Float64frombits(binary.LittleEndian.Uint64(raw[:])))
				} else {
					fields[i] = wm.Float(oracleFloats[byteOf()%len(oracleFloats)])
				}
			case 3:
				if sel&0x80 != 0 {
					fields[i] = wm.Sym(string(next(byteOf() % 8)))
				} else {
					fields[i] = wm.Sym(oracleSyms[byteOf()%len(oracleSyms)])
				}
			case 4:
				fields[i] = wm.Str(string(next(byteOf() % 12)))
			}
		}
		mem.InsertFields(t, fields)
	}
	return mem
}

// FuzzSnapshotWrite holds WriteFacts to refWrite: identical bytes when
// both accept, the identical error when both refuse, and nothing written
// by WriteFacts when it refuses.
func FuzzSnapshotWrite(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 5, 2, 3, 3, 0})                                                    // MinInt64, +Inf, a symbol
	f.Add([]byte{0, 3, 0, 3, 0, 0, 0, 3, 0, 3, 6, 0})                                     // "has space" after a checked symbol
	f.Add([]byte{1, 4, 7, '"', '\\', 0x00, 0xff, 0xc3, 0x28, 'x'})                        // quote, NUL, invalid UTF-8
	f.Add([]byte{0, 2, 0, 2, 2, 2, 5, 0, 1, 4, 1, 5, 2, 8})                               // -0.0, NaN, 1e21; MaxInt64, MinInt64, 42.0
	f.Add([]byte{0, 0x83, 1, 2, 3, 4, 5, 6, 7, 8, 0x84, 1, 0, 0, 0, 0, 0, 0xf8, 0x7f, 0}) // raw int, NaN with payload
	f.Add([]byte{0, 0x80, 3, 'a', ' ', 'b', 0, 0})                                        // raw symbol "a b"
	f.Fuzz(func(t *testing.T, data []byte) {
		mem := fuzzMemory(data)
		var want, got bytes.Buffer
		werr := refWrite(&want, mem)
		gerr := Write(&got, mem)
		switch {
		case (werr == nil) != (gerr == nil):
			t.Fatalf("reference error %v, writer error %v", werr, gerr)
		case werr != nil:
			if werr.Error() != gerr.Error() {
				t.Fatalf("reference error %q, writer error %q", werr, gerr)
			}
			if got.Len() != 0 {
				t.Fatalf("refused snapshot wrote %d bytes: %q", got.Len(), got.String())
			}
		case !bytes.Equal(want.Bytes(), got.Bytes()):
			t.Fatalf("snapshot differs from reference:\nref: %q\ngot: %q", want.String(), got.String())
		}
		for _, el := range mem.Snapshot() {
			for _, v := range el.Fields {
				if s := v.String(); s != refLiteral(v) {
					t.Fatalf("String() %q, reference literal %q", s, refLiteral(v))
				}
			}
		}
	})
}

// chunkWriter records the size of every write.
type chunkWriter struct {
	bytes.Buffer
	sizes []int
}

func (c *chunkWriter) Write(p []byte) (int, error) {
	c.sizes = append(c.sizes, len(p))
	return c.Buffer.Write(p)
}

// TestWriteFactsChunks: a large image reaches the writer in chunks of at
// least flushAt bytes (the last excepted), with the reference's bytes.
func TestWriteFactsChunks(t *testing.T) {
	schema := wm.NewSchema()
	if _, err := schema.Declare("t", "a", "b", "c"); err != nil {
		t.Fatal(err)
	}
	mem := wm.NewMemory(schema)
	for i := 0; i < 6000; i++ {
		if _, err := mem.Insert("t", map[string]wm.Value{
			"a": wm.Int(int64(i)), "b": wm.Sym(fmt.Sprintf("s%d", i%7)), "c": wm.Str("x y"),
		}); err != nil {
			t.Fatal(err)
		}
	}
	var want bytes.Buffer
	if err := refWrite(&want, mem); err != nil {
		t.Fatal(err)
	}
	var got chunkWriter
	if err := WriteFacts(&got, mem.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatal("chunked snapshot differs from reference")
	}
	if len(got.sizes) < 3 {
		t.Fatalf("%d writes for %d bytes", len(got.sizes), got.Len())
	}
	for _, n := range got.sizes[:len(got.sizes)-1] {
		if n < flushAt {
			t.Fatalf("chunk of %d bytes, want at least %d (writes %v)", n, flushAt, got.sizes)
		}
	}
}

// errWriter fails every write.
type errWriter struct{}

func (errWriter) Write([]byte) (int, error) { return 0, io.ErrClosedPipe }

func TestWriteFactsReturnsWriterError(t *testing.T) {
	schema := wm.NewSchema()
	if _, err := schema.Declare("t", "a"); err != nil {
		t.Fatal(err)
	}
	mem := wm.NewMemory(schema)
	if _, err := mem.Insert("t", map[string]wm.Value{"a": wm.Int(1)}); err != nil {
		t.Fatal(err)
	}
	if err := Write(errWriter{}, mem); err != io.ErrClosedPipe {
		t.Fatalf("got %v, want the writer's error", err)
	}
}
