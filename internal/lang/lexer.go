package lang

import (
	"strconv"
	"strings"
)

// Lexer tokenizes PARULEL source text.
//
// Lexical rules:
//   - `;` starts a comment to end of line.
//   - `(` `)` `[` `]` are single-character tokens.
//   - `^name` is an attribute token.
//   - `<name>` is a variable token (name: letters, digits, `_`, `-`, `*`).
//   - `<` not forming a variable yields the operator symbols `<`, `<=`,
//     `<>`, `<-` (longest match).
//   - `-->` is the rule arrow.
//   - Numbers: optional sign, digits, optional fraction/exponent.
//   - `"…"` is a string with Go's escapes (`\"` `\\` `\n` `\t` `\r` `\xHH`
//     `\uHHHH` …): every one strconv.Quote writes.
//   - Anything else contiguous is a symbol (`+`, `-`, `>=`, `free`, …).
type Lexer struct {
	src  string
	off  int
	line int
	col  int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

func (lx *Lexer) pos() Pos { return Pos{Line: lx.line, Col: lx.col} }

func (lx *Lexer) peek() byte {
	if lx.off >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off]
}

func (lx *Lexer) peekAt(k int) byte {
	if lx.off+k >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off+k]
}

func (lx *Lexer) advance() byte {
	c := lx.src[lx.off]
	lx.off++
	if c == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return c
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\r' || c == '\n' }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isIdentChar(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || isDigit(c) || c == '_' || c == '-' || c == '*'
}

// isSymChar reports characters that may appear in a bare symbol.
func isSymChar(c byte) bool {
	if isIdentChar(c) {
		return true
	}
	switch c {
	case '+', '/', '=', '?', '!', '.', '&', '%', '#', ':':
		return true
	}
	return false
}

func (lx *Lexer) skipSpaceAndComments() {
	for lx.off < len(lx.src) {
		c := lx.peek()
		if isSpace(c) {
			lx.advance()
			continue
		}
		if c == ';' {
			for lx.off < len(lx.src) && lx.peek() != '\n' {
				lx.advance()
			}
			continue
		}
		return
	}
}

// Next returns the next token or an error.
func (lx *Lexer) Next() (Token, error) {
	lx.skipSpaceAndComments()
	pos := lx.pos()
	if lx.off >= len(lx.src) {
		return Token{Kind: TokEOF, Pos: pos}, nil
	}
	c := lx.peek()
	switch {
	case c == '(':
		lx.advance()
		return Token{Kind: TokLParen, Pos: pos}, nil
	case c == ')':
		lx.advance()
		return Token{Kind: TokRParen, Pos: pos}, nil
	case c == '[':
		lx.advance()
		return Token{Kind: TokLBrack, Pos: pos}, nil
	case c == ']':
		lx.advance()
		return Token{Kind: TokRBrack, Pos: pos}, nil
	case c == '^':
		lx.advance()
		start := lx.off
		for lx.off < len(lx.src) && isIdentChar(lx.peek()) {
			lx.advance()
		}
		if lx.off == start {
			return Token{}, errf(pos, "lex: '^' must be followed by an attribute name")
		}
		return Token{Kind: TokAttr, Text: lx.src[start:lx.off], Pos: pos}, nil
	case c == '<':
		return lx.lexAngle(pos)
	case c == '>':
		lx.advance()
		switch lx.peek() {
		case '=':
			lx.advance()
			return Token{Kind: TokSym, Text: ">=", Pos: pos}, nil
		case '>':
			lx.advance()
			return Token{Kind: TokSym, Text: ">>", Pos: pos}, nil
		default:
			return Token{Kind: TokSym, Text: ">", Pos: pos}, nil
		}
	case c == '"':
		return lx.lexString(pos)
	case isDigit(c),
		(c == '-' || c == '+') && isDigit(lx.peekAt(1)),
		(c == '-' || c == '+') && lx.peekAt(1) == '.' && isDigit(lx.peekAt(2)),
		c == '.' && isDigit(lx.peekAt(1)):
		return lx.lexNumber(pos)
	case c == '-':
		// Could be the arrow `-->`, the negation marker / minus symbol `-`.
		if lx.peekAt(1) == '-' && lx.peekAt(2) == '>' {
			lx.advance()
			lx.advance()
			lx.advance()
			return Token{Kind: TokArrow, Pos: pos}, nil
		}
		lx.advance()
		// A `-` immediately followed by symbol chars is still just the
		// minus symbol followed by that symbol only if separated; glued
		// identifiers like `-foo` are read as one symbol for negated CE
		// convenience? No: keep `-` standalone, symbols may contain `-`
		// only when they start with an ident char.
		return Token{Kind: TokSym, Text: "-", Pos: pos}, nil
	case isSymChar(c):
		start := lx.off
		for lx.off < len(lx.src) && isSymChar(lx.peek()) {
			lx.advance()
		}
		return Token{Kind: TokSym, Text: lx.src[start:lx.off], Pos: pos}, nil
	default:
		return Token{}, errf(pos, "lex: unexpected character %q", string(rune(c)))
	}
}

// lexAngle handles `<name>` variables and the operators `<`, `<=`, `<>`,
// `<-` (longest match first for variables).
func (lx *Lexer) lexAngle(pos Pos) (Token, error) {
	lx.advance() // consume '<'
	start := lx.off
	n := 0
	for lx.off+n < len(lx.src) && isIdentChar(lx.src[lx.off+n]) {
		n++
	}
	if n > 0 && lx.off+n < len(lx.src) && lx.src[lx.off+n] == '>' {
		for i := 0; i < n; i++ {
			lx.advance()
		}
		lx.advance() // consume '>'
		return Token{Kind: TokVar, Text: lx.src[start : start+n], Pos: pos}, nil
	}
	switch lx.peek() {
	case '=':
		lx.advance()
		return Token{Kind: TokSym, Text: "<=", Pos: pos}, nil
	case '>':
		lx.advance()
		return Token{Kind: TokSym, Text: "<>", Pos: pos}, nil
	case '-':
		lx.advance()
		return Token{Kind: TokSym, Text: "<-", Pos: pos}, nil
	case '<':
		lx.advance()
		return Token{Kind: TokSym, Text: "<<", Pos: pos}, nil
	default:
		return Token{Kind: TokSym, Text: "<", Pos: pos}, nil
	}
}

func (lx *Lexer) lexString(pos Pos) (Token, error) {
	lx.advance() // opening quote
	var b strings.Builder
	for {
		if lx.off >= len(lx.src) {
			return Token{}, errf(pos, "lex: unterminated string")
		}
		c := lx.advance()
		if c == '"' {
			return Token{Kind: TokString, Text: b.String(), Pos: pos}, nil
		}
		if c == '\\' {
			if lx.off >= len(lx.src) {
				return Token{}, errf(pos, "lex: unterminated escape in string")
			}
			// Every escape strconv.Quote writes, since that is how
			// wm.Value.String — and so every snapshot and checkpoint —
			// quotes a string.
			r, multibyte, tail, err := strconv.UnquoteChar(lx.src[lx.off-1:], '"')
			if err != nil {
				return Token{}, errf(pos, "lex: unknown escape \\%c in string", lx.peek())
			}
			for lx.off < len(lx.src)-len(tail) {
				lx.advance()
			}
			if multibyte {
				b.WriteRune(r)
			} else {
				b.WriteByte(byte(r))
			}
			continue
		}
		b.WriteByte(c)
	}
}

func (lx *Lexer) lexNumber(pos Pos) (Token, error) {
	start := lx.off
	if c := lx.peek(); c == '-' || c == '+' {
		lx.advance()
	}
	sawDot, sawExp := false, false
	for lx.off < len(lx.src) {
		c := lx.peek()
		switch {
		case isDigit(c):
			lx.advance()
		case c == '.' && !sawDot && !sawExp:
			sawDot = true
			lx.advance()
		case (c == 'e' || c == 'E') && !sawExp && isDigitOrSigned(lx.src, lx.off+1):
			sawExp = true
			lx.advance()
			if p := lx.peek(); p == '+' || p == '-' {
				lx.advance()
			}
		default:
			goto done
		}
	}
done:
	text := lx.src[start:lx.off]
	if sawDot || sawExp {
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return Token{}, errf(pos, "lex: bad float literal %q", text)
		}
		return Token{Kind: TokFloat, Flt: f, Pos: pos}, nil
	}
	i, err := strconv.ParseInt(text, 10, 64)
	if err != nil {
		return Token{}, errf(pos, "lex: bad integer literal %q", text)
	}
	return Token{Kind: TokInt, Int: i, Pos: pos}, nil
}

func isDigitOrSigned(s string, i int) bool {
	if i >= len(s) {
		return false
	}
	if s[i] == '+' || s[i] == '-' {
		return i+1 < len(s) && isDigit(s[i+1])
	}
	return isDigit(s[i])
}

// LexAll tokenizes the whole input, mainly for tests.
func LexAll(src string) ([]Token, error) {
	lx := NewLexer(src)
	var toks []Token
	for {
		t, err := lx.Next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == TokEOF {
			return toks, nil
		}
	}
}
