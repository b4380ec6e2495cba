package jsonlex

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"testing"
)

// valid is Skip over the whole text: one value, nothing but whitespace
// after it — what json.Valid decides.
func valid(data []byte) bool {
	var l Lexer
	l.Reset(data)
	if err := l.Skip(); err != nil {
		return false
	}
	l.Next()
	return l.Pos == len(data)
}

// FuzzLexer holds the lexer to encoding/json on arbitrary text: the same
// texts are valid, a string literal means the same string, and
// AppendString writes the same escapes.
func FuzzLexer(f *testing.F) {
	for _, seed := range []string{
		`null`, `true`, `false`, `0`, `-0`, `01`, `1.`, `1.5e+3`, `-`, `+1`, `1e`, `.5`, `""`, `"a"`, `"A\n\/\\\""`,
		"\"\U0001F600\"", `"\ud83d"`, `"\ude00\ud83d"`, `"\ud83dx"`, `"\ud83dA"`, `"\uZZZZ"`, `"\q"`, "\"a\x01b\"", "\"\xff\xc3\"",
		`"unterminated`, `{}`, `[]`, `{"a":1,"b":[true,null,{"c":"d"}]}`, `{"a":1,}`, `[1,]`, `{"a"}`, `{a:1}`, `[1 2]`, `{"a":1 "b":2}`,
		` { "a" : [ 1 , 2 ] } `, `{} x`, `nullx`, "\"<>&\u2028\u2029\"", strings.Repeat("[", 100) + strings.Repeat("]", 100),
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if got, want := valid(data), json.Valid(data); got != want {
			t.Fatalf("%q: Skip says valid=%v, encoding/json says %v", data, got, want)
		}
		var l Lexer
		l.Reset(data)
		var want string
		if json.Unmarshal(data, &want) == nil && l.Next() == '"' {
			got, err := l.String()
			if err != nil || string(got) != want {
				t.Fatalf("%q: String = %q, %v; encoding/json reads %q", data, got, err, want)
			}
		}
		// Any bytes at all are a string to write.
		wantLit, err := json.Marshal(string(data))
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendString(nil, string(data)); !bytes.Equal(got, wantLit) {
			t.Fatalf("AppendString(%q) = %s, encoding/json writes %s", data, got, wantLit)
		}
	})
}

func TestMaxDepth(t *testing.T) {
	for _, c := range []struct {
		depth int
		ok    bool
	}{{MaxDepth, true}, {MaxDepth + 1, false}} {
		text := []byte(strings.Repeat("[", c.depth) + strings.Repeat("]", c.depth))
		if got := valid(text); got != c.ok || got != json.Valid(text) {
			t.Errorf("nesting %d: valid=%v, want %v (encoding/json: %v)", c.depth, got, c.ok, json.Valid(text))
		}
	}
}

func TestIntegers(t *testing.T) {
	for _, text := range []string{
		"0", "-0", "7", "-7", "9223372036854775807", "9223372036854775808", "-9223372036854775808", "-9223372036854775809",
		"18446744073709551615", "18446744073709551616", "99999999999999999999999", "1.0", "1e3", "",
	} {
		wantI, errI := strconv.ParseInt(text, 10, 64)
		if got, ok := ParseInt64([]byte(text)); ok != (errI == nil) || ok && got != wantI {
			t.Errorf("ParseInt64(%q) = %d, %v; strconv: %d, %v", text, got, ok, wantI, errI)
		}
		wantU, errU := strconv.ParseUint(text, 10, 64)
		if got, ok := ParseUint64([]byte(text)); ok != (errU == nil) || ok && got != wantU {
			t.Errorf("ParseUint64(%q) = %d, %v; strconv: %d, %v", text, got, ok, wantU, errU)
		}
	}
}

func TestInterner(t *testing.T) {
	var in Interner
	a, b := in.String([]byte("state")), in.String([]byte("state"))
	if a != "state" || b != "state" {
		t.Fatalf("interned %q, %q", a, b)
	}
	if n := testing.AllocsPerRun(100, func() { _ = in.String([]byte("state")) }); n != 0 {
		t.Errorf("a repeated short string allocated %v times", n)
	}
	long := bytes.Repeat([]byte("x"), internMax+1)
	if got := in.String(long); got != string(long) {
		t.Errorf("long string came back as %q", got)
	}
	var none *Interner
	if got := none.String([]byte("k")); got != "k" || in.String(nil) != "" {
		t.Errorf("nil interner or empty input: %q", got)
	}
}
