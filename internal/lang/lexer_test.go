package lang

import (
	"testing"
)

func kinds(toks []Token) []TokKind {
	ks := make([]TokKind, len(toks))
	for i, t := range toks {
		ks[i] = t.Kind
	}
	return ks
}

func lexOK(t *testing.T, src string) []Token {
	t.Helper()
	toks, err := LexAll(src)
	if err != nil {
		t.Fatalf("LexAll(%q): %v", src, err)
	}
	return toks
}

func TestLexBasicTokens(t *testing.T) {
	toks := lexOK(t, `(rule r1 (pool ^id <p> ^amount 100) --> (make bid ^v 2.5))`)
	want := []TokKind{
		TokLParen, TokSym, TokSym,
		TokLParen, TokSym, TokAttr, TokVar, TokAttr, TokInt, TokRParen,
		TokArrow,
		TokLParen, TokSym, TokSym, TokAttr, TokFloat, TokRParen,
		TokRParen, TokEOF,
	}
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("token count = %d, want %d: %v", len(got), len(want), toks)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %v (%s), want %v", i, got[i], toks[i], want[i])
		}
	}
}

func TestLexVariableAndOperators(t *testing.T) {
	toks := lexOK(t, `<x> <long-name*2> < <= <> <- > >= = -`)
	wantText := []string{"x", "long-name*2", "<", "<=", "<>", "<-", ">", ">=", "=", "-"}
	wantKind := []TokKind{TokVar, TokVar, TokSym, TokSym, TokSym, TokSym, TokSym, TokSym, TokSym, TokSym}
	for i, w := range wantText {
		if toks[i].Kind != wantKind[i] || toks[i].Text != w {
			t.Errorf("token %d = %v %q, want %v %q", i, toks[i].Kind, toks[i].Text, wantKind[i], w)
		}
	}
}

func TestLexNumbers(t *testing.T) {
	toks := lexOK(t, `42 -17 +3 2.5 -0.25 1e3 -2.5e-2 .5`)
	if toks[0].Kind != TokInt || toks[0].Int != 42 {
		t.Errorf("42: %v", toks[0])
	}
	if toks[1].Kind != TokInt || toks[1].Int != -17 {
		t.Errorf("-17: %v", toks[1])
	}
	if toks[2].Kind != TokInt || toks[2].Int != 3 {
		t.Errorf("+3: %v", toks[2])
	}
	if toks[3].Kind != TokFloat || toks[3].Flt != 2.5 {
		t.Errorf("2.5: %v", toks[3])
	}
	if toks[4].Kind != TokFloat || toks[4].Flt != -0.25 {
		t.Errorf("-0.25: %v", toks[4])
	}
	if toks[5].Kind != TokFloat || toks[5].Flt != 1000 {
		t.Errorf("1e3: %v", toks[5])
	}
	if toks[6].Kind != TokFloat || toks[6].Flt != -0.025 {
		t.Errorf("-2.5e-2: %v", toks[6])
	}
	if toks[7].Kind != TokFloat || toks[7].Flt != 0.5 {
		t.Errorf(".5: %v", toks[7])
	}
}

func TestLexArrowVsMinus(t *testing.T) {
	toks := lexOK(t, `--> - -x -5`)
	if toks[0].Kind != TokArrow {
		t.Errorf("-->: %v", toks[0])
	}
	if toks[1].Kind != TokSym || toks[1].Text != "-" {
		t.Errorf("-: %v", toks[1])
	}
	// `-x`: minus symbol then symbol x (negation marker before a pattern).
	if toks[2].Kind != TokSym || toks[2].Text != "-" {
		t.Errorf("-x first token: %v", toks[2])
	}
	if toks[3].Kind != TokSym || toks[3].Text != "x" {
		t.Errorf("-x second token: %v", toks[3])
	}
	if toks[4].Kind != TokInt || toks[4].Int != -5 {
		t.Errorf("-5: %v", toks[4])
	}
}

func TestLexStringsAndEscapes(t *testing.T) {
	toks := lexOK(t, `"hello world" "a\"b" "tab\there" "nl\n" "back\\slash"`+
		// the rest of what strconv.Quote writes
		` "cr\rlf" "bell\a\b\f\v" "nul\x00del\x7f" "ls\u2028" "byte\xff" "tag\U000e0001"`)
	want := []string{"hello world", `a"b`, "tab\there", "nl\n", `back\slash`,
		"cr\rlf", "bell\a\b\f\v", "nul\x00del\x7f", "ls\u2028", "byte\xff", "tag\U000e0001"}
	for i, w := range want {
		if toks[i].Kind != TokString || toks[i].Text != w {
			t.Errorf("string %d = %q, want %q", i, toks[i].Text, w)
		}
	}
}

func TestLexComments(t *testing.T) {
	toks := lexOK(t, "a ; this is a comment\nb ;; another\n")
	if toks[0].Text != "a" || toks[1].Text != "b" || toks[2].Kind != TokEOF {
		t.Errorf("comments not skipped: %v", toks)
	}
}

func TestLexPositions(t *testing.T) {
	toks := lexOK(t, "(a\n  b)")
	if toks[0].Pos != (Pos{1, 1}) {
		t.Errorf("'(' pos = %v", toks[0].Pos)
	}
	if toks[1].Pos != (Pos{1, 2}) {
		t.Errorf("a pos = %v", toks[1].Pos)
	}
	if toks[2].Pos != (Pos{2, 3}) {
		t.Errorf("b pos = %v", toks[2].Pos)
	}
}

func TestLexErrors(t *testing.T) {
	bad := []string{
		`"unterminated`,
		`"bad \q escape"`,
		`"bad \xZZ escape"`,
		`"short \u12"`,
		`"single \' quote"`,
		`"trailing \`,
		`^ foo`,
		"\x01",
	}
	for _, src := range bad {
		if _, err := LexAll(src); err == nil {
			t.Errorf("LexAll(%q) should fail", src)
		}
	}
}

func TestLexBrackets(t *testing.T) {
	toks := lexOK(t, `[<i> (r ^x 1)]`)
	want := []TokKind{TokLBrack, TokVar, TokLParen, TokSym, TokAttr, TokInt, TokRParen, TokRBrack, TokEOF}
	got := kinds(toks)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %v, want %v", i, got[i], want[i])
		}
	}
}
