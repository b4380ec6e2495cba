package lang

import (
	"strconv"
	"testing"
)

// FuzzParse shakes the lexer and parser with arbitrary inputs: they must
// never panic, and anything that parses must print and reparse to the
// same canonical form.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"",
		"(literalize a x y)",
		"(rule r (a ^x <v>) --> (halt))",
		"(rule r (a ^x << 1 2.5 sym \"s\" >>) - (b ^y (> <v>)) (test (and <v> 1)) --> (make a ^x (+ <v> 1)))",
		"(metarule m [<i> (r ^v <a>)] [<j> (r ^v <a>)] (test (precedes <i> <j>)) --> (redact <j>))",
		"(wm (a ^x 1) (b ^y nil))",
		"(rule r <e> <- (a ^x 1) --> (modify <e> ^x 2) (remove <e>) (bind <q>) (write \"x\" (crlf)))",
		"(rule r (a ^x 1",
		"(p r1 (a ^x -5e-3) --> (remove 1 2 3))",
		"((((((",
		"^ < <- << >> --> ; comment",
		"\"unterminated",
		"(rule \x00)",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse(src)
		if err != nil {
			return // rejecting is fine; panicking is not
		}
		printed := Print(prog)
		re, err := Parse(printed)
		if err != nil {
			t.Fatalf("canonical print does not reparse: %v\ninput: %q\nprinted:\n%s", err, src, printed)
		}
		if second := Print(re); second != printed {
			t.Fatalf("print not canonical:\nfirst:\n%s\nsecond:\n%s", printed, second)
		}
	})
}

// FuzzLexer: the lexer must terminate and never panic on any input, and
// any string it reads must read back from its strconv.Quote form — the
// form wm.Value.String, and so every snapshot and checkpoint, writes.
func FuzzLexer(f *testing.F) {
	for _, s := range []string{"", "(a ^b <c> 1.5 \"x\")", "<<>>", ";;;", "-->--><-",
		`"a\rb"`, `"bell\a"`, `"nul\x00"`, `"u\u2028x"`, "\"raw\r\xff\u2028\""} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		lx := NewLexer(src)
		for i := 0; i < len(src)+16; i++ {
			tok, err := lx.Next()
			if err != nil || tok.Kind == TokEOF {
				return
			}
			if tok.Kind != TokString {
				continue
			}
			back, err := LexAll(strconv.Quote(tok.Text))
			if err != nil || len(back) != 2 || back[0].Kind != TokString || back[0].Text != tok.Text {
				t.Fatalf("string %q does not read back from %s: %v, %v", tok.Text, strconv.Quote(tok.Text), back, err)
			}
		}
		t.Fatalf("lexer did not terminate on %q", src)
	})
}
