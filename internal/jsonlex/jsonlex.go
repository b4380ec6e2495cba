// Package jsonlex holds the JSON text primitives shared by the two
// hand-written halves of the fact codec — the request scanner in
// internal/server and the record codec in internal/wal: a validating
// lexer over a byte slice, the string appender, and a small string
// interner. Lexer and appender agree with encoding/json byte for byte —
// on which texts are valid, on what a string literal means, and on how a
// string is escaped — because the log's payload encoding is canonical
// (DESIGN.md, "The log's encoding is canonical") and the request grammar
// is pinned to the reflective decoder's by a differential fuzz target.
package jsonlex

import (
	"fmt"
	"hash/maphash"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// Lexer reads JSON tokens from Data starting at Pos. It never allocates
// per token: strings come back as views of Data, or of an internal
// scratch buffer when they needed unescaping, valid until the next call
// to String or Key.
type Lexer struct {
	Data  []byte
	Pos   int
	depth int // objects and arrays open at the cursor
	buf   []byte
}

// MaxDepth is how deep objects and arrays may nest, encoding/json's limit.
const MaxDepth = 10000

// Reset points the lexer at data, keeping its scratch buffer.
func (l *Lexer) Reset(data []byte) {
	l.Data, l.Pos, l.depth = data, 0, 0
}

func (l *Lexer) errorf(format string, args ...any) error {
	return fmt.Errorf("invalid JSON at offset %d: %s", l.Pos, fmt.Sprintf(format, args...))
}

// Next skips whitespace and returns the byte at the cursor without
// consuming it, 0 at the end of the input.
func (l *Lexer) Next() byte {
	for l.Pos < len(l.Data) {
		switch c := l.Data[l.Pos]; c {
		case ' ', '\t', '\r', '\n':
			l.Pos++
		default:
			return c
		}
	}
	return 0
}

// Expect skips whitespace and consumes the byte c; an opening '{' or '['
// is then read to its end with Key or Elem.
func (l *Lexer) Expect(c byte) error {
	if l.Next() != c {
		return l.errorf("expected %q", c)
	}
	if c == '{' || c == '[' {
		if l.depth++; l.depth > MaxDepth {
			return l.errorf("exceeded max depth")
		}
	}
	l.Pos++
	return nil
}

// Literal consumes lit ("null", "true" or "false") at the cursor.
func (l *Lexer) Literal(lit string) error {
	if len(l.Data)-l.Pos < len(lit) || string(l.Data[l.Pos:l.Pos+len(lit)]) != lit {
		return l.errorf("expected %s", lit)
	}
	l.Pos += len(lit)
	return nil
}

// Null consumes a null literal if one is at the cursor.
func (l *Lexer) Null() bool {
	if l.Next() != 'n' {
		return false
	}
	return l.Literal("null") == nil
}

// Key advances to the next member of the object whose '{' has been
// consumed: it returns the member's key with the cursor on its value, or
// more == false once the closing '}' is consumed. first is true for the
// call right after the '{'. The key is valid until the value is read.
func (l *Lexer) Key(first bool) (key []byte, more bool, err error) {
	switch c := l.Next(); {
	case c == '}':
		l.Pos++
		l.depth--
		return nil, false, nil
	case first:
	case c == ',':
		l.Pos++
		l.Next()
	default:
		return nil, false, l.errorf("expected ',' or '}'")
	}
	if key, err = l.String(); err != nil {
		return nil, false, err
	}
	if err := l.Expect(':'); err != nil {
		return nil, false, err
	}
	l.Next()
	return key, true, nil
}

// Elem advances to the next element of the array whose '[' has been
// consumed: true with the cursor on the element, false once the closing
// ']' is consumed. first is true for the call right after the '['.
func (l *Lexer) Elem(first bool) (bool, error) {
	switch c := l.Next(); {
	case c == ']':
		l.Pos++
		l.depth--
		return false, nil
	case first:
		return true, nil
	case c == ',':
		l.Pos++
		l.Next()
		return true, nil
	default:
		return false, l.errorf("expected ',' or ']'")
	}
}

// Skip reads past the value at the cursor, whatever it is, checking that
// it is valid JSON.
func (l *Lexer) Skip() error {
	switch c := l.Next(); {
	case c == '{':
		if err := l.Expect('{'); err != nil {
			return err
		}
		for first := true; ; first = false {
			_, more, err := l.Key(first)
			if err != nil || !more {
				return err
			}
			if err := l.Skip(); err != nil {
				return err
			}
		}
	case c == '[':
		if err := l.Expect('['); err != nil {
			return err
		}
		for first := true; ; first = false {
			more, err := l.Elem(first)
			if err != nil || !more {
				return err
			}
			if err := l.Skip(); err != nil {
				return err
			}
		}
	case c == '"':
		_, err := l.String()
		return err
	case c == 't':
		return l.Literal("true")
	case c == 'f':
		return l.Literal("false")
	case c == 'n':
		return l.Literal("null")
	default:
		_, err := l.Number()
		return err
	}
}

// String reads the string literal at the cursor and returns its
// unescaped bytes: escapes resolved, invalid UTF-8 and unpaired
// surrogates replaced by U+FFFD, exactly as encoding/json does.
func (l *Lexer) String() ([]byte, error) {
	d := l.Data
	if l.Pos >= len(d) || d[l.Pos] != '"' {
		return nil, l.errorf("expected a string")
	}
	start := l.Pos + 1
	i := start
	for ; i < len(d); i++ {
		c := d[i]
		if c == '"' {
			l.Pos = i + 1
			return d[start:i], nil
		}
		if c == '\\' || c >= utf8.RuneSelf {
			break
		}
		if c < ' ' {
			l.Pos = i
			return nil, l.errorf("control character in string")
		}
	}
	// Slow path: something to unescape or to validate as UTF-8.
	buf := append(l.buf[:0], d[start:i]...)
	for i < len(d) {
		c := d[i]
		switch {
		case c == '"':
			l.Pos = i + 1
			l.buf = buf
			return buf, nil
		case c == '\\':
			i++
			if i >= len(d) {
				break
			}
			switch d[i] {
			case '"', '\\', '/':
				buf = append(buf, d[i])
			case 'b':
				buf = append(buf, '\b')
			case 'f':
				buf = append(buf, '\f')
			case 'n':
				buf = append(buf, '\n')
			case 'r':
				buf = append(buf, '\r')
			case 't':
				buf = append(buf, '\t')
			case 'u':
				r := hex4(d[i+1:])
				if r < 0 {
					l.Pos = i
					return nil, l.errorf("bad \\u escape")
				}
				i += 4
				if utf16.IsSurrogate(r) {
					r2 := rune(-1)
					if i+2 < len(d) && d[i+1] == '\\' && d[i+2] == 'u' {
						r2 = hex4(d[i+3:])
					}
					if dec := utf16.DecodeRune(r, r2); dec != unicode.ReplacementChar {
						i += 6
						r = dec
					} else {
						r = unicode.ReplacementChar
					}
				}
				buf = utf8.AppendRune(buf, r)
			default:
				l.Pos = i
				return nil, l.errorf("bad escape")
			}
			i++
		case c < ' ':
			l.Pos = i
			return nil, l.errorf("control character in string")
		case c < utf8.RuneSelf:
			buf = append(buf, c)
			i++
		default:
			r, size := utf8.DecodeRune(d[i:])
			buf = utf8.AppendRune(buf, r) // RuneError becomes U+FFFD
			i += size
		}
	}
	l.Pos = len(d)
	return nil, l.errorf("unterminated string")
}

// hex4 decodes four hex digits, -1 if b does not start with four.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// Number reads the number literal at the cursor and returns its text.
func (l *Lexer) Number() ([]byte, error) {
	d, start := l.Data, l.Pos
	i := start
	digits := func() bool {
		from := i
		for i < len(d) && '0' <= d[i] && d[i] <= '9' {
			i++
		}
		return i > from
	}
	if i < len(d) && d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case !digits():
		l.Pos = i
		return nil, l.errorf("expected a number")
	}
	if i < len(d) && d[i] == '.' {
		i++
		if !digits() {
			l.Pos = i
			return nil, l.errorf("expected a digit after the decimal point")
		}
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if !digits() {
			l.Pos = i
			return nil, l.errorf("expected a digit in the exponent")
		}
	}
	l.Pos = i
	return d[start:i], nil
}

// Int64 reads a number literal that is an integer within int64, the
// literals encoding/json accepts for an int64 target.
func (l *Lexer) Int64() (int64, error) {
	at := l.Pos
	tok, err := l.Number()
	if err != nil {
		return 0, err
	}
	n, ok := ParseInt64(tok)
	if !ok {
		l.Pos = at
		return 0, l.errorf("%s is not a 64-bit integer", tok)
	}
	return n, nil
}

// Uint64 is Int64 for an unsigned target.
func (l *Lexer) Uint64() (uint64, error) {
	at := l.Pos
	tok, err := l.Number()
	if err != nil {
		return 0, err
	}
	n, ok := ParseUint64(tok)
	if !ok {
		l.Pos = at
		return 0, l.errorf("%s is not an unsigned 64-bit integer", tok)
	}
	return n, nil
}

// ParseInt64 parses a JSON number literal as a decimal int64; false if it
// has a fraction or exponent or does not fit.
func ParseInt64(tok []byte) (int64, bool) {
	neg := len(tok) > 0 && tok[0] == '-'
	if neg {
		tok = tok[1:]
	}
	u, ok := ParseUint64(tok)
	switch {
	case !ok:
		return 0, false
	case neg && u <= 1<<63:
		return -int64(u), true
	case !neg && u < 1<<63:
		return int64(u), true
	}
	return 0, false
}

// ParseUint64 parses a run of decimal digits as a uint64.
func ParseUint64(tok []byte) (uint64, bool) {
	if len(tok) == 0 {
		return 0, false
	}
	var u uint64
	for _, c := range tok {
		if c < '0' || c > '9' {
			return 0, false
		}
		next := u*10 + uint64(c-'0')
		if u > (1<<64-1)/10 || next < u {
			return 0, false
		}
		u = next
	}
	return u, true
}

const hexDigits = "0123456789abcdef"

// AppendString appends s as a JSON string literal, escaped the way
// encoding/json escapes with HTML escaping on: the quote, the backslash,
// control bytes, '<', '>', '&', U+2028 and U+2029 are escaped, and each
// byte of invalid UTF-8 becomes the text \ufffd.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// Interner returns one string per distinct short byte sequence: the
// template names, attribute names and symbols a body or a log repeats
// in every fact are allocated once. It is a fixed direct-mapped table
// keyed by content, so it holds at most internSlots short strings.
type Interner struct {
	tab [internSlots]string
}

const (
	internSlots = 256
	internMax   = 32 // longer strings are not worth a slot
)

var internSeed = maphash.MakeSeed()

// String returns b as a string, shared with earlier equal calls when it
// is short. A nil Interner shares nothing.
func (in *Interner) String(b []byte) string {
	if in == nil || len(b) == 0 || len(b) > internMax {
		return string(b)
	}
	slot := &in.tab[maphash.Bytes(internSeed, b)%internSlots]
	if *slot != string(b) {
		*slot = string(b)
	}
	return *slot
}
