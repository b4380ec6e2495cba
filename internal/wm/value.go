// Package wm implements the working-memory substrate of the PARULEL
// reproduction: the dynamically typed value model, template (literalize)
// declarations, working-memory elements (WMEs) with recency time tags, and
// the working memory itself with its delta representation.
//
// The design follows OPS5, which PARULEL inherits its data model from: a WME
// is a flat record of a declared template ("class"), every field holds a
// scalar value, and each WME carries a monotonically increasing time tag
// used for recency-based conflict resolution (OPS5 LEX/MEA) and for
// instantiation tags in PARULEL meta-rules.
package wm

import (
	"bytes"
	"fmt"
	"strconv"
)

// Kind discriminates the scalar value types of the rule language.
type Kind uint8

// The value kinds. KindNil is the zero value, so a zero Value is nil.
const (
	KindNil Kind = iota
	KindInt
	KindFloat
	KindSym
	KindStr
)

func (k Kind) String() string {
	switch k {
	case KindNil:
		return "nil"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindSym:
		return "symbol"
	case KindStr:
		return "string"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a scalar rule-language value. Values are small, immutable and
// comparable with ==, which makes them directly usable as map keys in alpha
// memories and join indexes.
//
// Equality via Equal is strict on Kind (an int 3 is not Equal to a float
// 3.0); numeric *comparison* operators in the expression language compare
// numerically across int and float. This keeps hash-index equality and
// pattern-constant equality identical, which the match networks rely on.
type Value struct {
	Kind Kind
	I    int64   // KindInt
	F    float64 // KindFloat
	S    string  // KindSym and KindStr
}

// Nil returns the nil value.
func Nil() Value { return Value{} }

// Int returns an integer value.
func Int(i int64) Value { return Value{Kind: KindInt, I: i} }

// Float returns a floating-point value.
func Float(f float64) Value { return Value{Kind: KindFloat, F: f} }

// Sym returns a symbol value.
func Sym(s string) Value { return Value{Kind: KindSym, S: s} }

// Str returns a string value.
func Str(s string) Value { return Value{Kind: KindStr, S: s} }

// Bool maps a Go bool onto the rule-language convention: the symbols
// `true` and `false`.
func Bool(b bool) Value {
	if b {
		return Sym("true")
	}
	return Sym("false")
}

// IsNil reports whether v is the nil value.
func (v Value) IsNil() bool { return v.Kind == KindNil }

// IsNumeric reports whether v is an int or float.
func (v Value) IsNumeric() bool { return v.Kind == KindInt || v.Kind == KindFloat }

// AsFloat returns the numeric value of v as a float64. It returns 0 for
// non-numeric values; callers must check IsNumeric when that matters.
func (v Value) AsFloat() float64 {
	switch v.Kind {
	case KindInt:
		return float64(v.I)
	case KindFloat:
		return v.F
	default:
		return 0
	}
}

// AsInt returns the numeric value of v truncated to an int64.
func (v Value) AsInt() int64 {
	switch v.Kind {
	case KindInt:
		return v.I
	case KindFloat:
		return int64(v.F)
	default:
		return 0
	}
}

// Truthy reports the boolean interpretation of v: nil and the symbol
// `false` are false; everything else is true.
func (v Value) Truthy() bool {
	if v.Kind == KindNil {
		return false
	}
	if v.Kind == KindSym && v.S == "false" {
		return false
	}
	return true
}

// Equal reports strict equality: same kind and same payload.
func (v Value) Equal(o Value) bool { return v == o }

// NumEqual reports numeric equality across int and float kinds; for
// non-numeric values it falls back to strict equality.
func (v Value) NumEqual(o Value) bool {
	if v.IsNumeric() && o.IsNumeric() {
		return v.AsFloat() == o.AsFloat()
	}
	return v == o
}

// Compare imposes a deterministic total order over values, used by the
// OPS5 baseline's conflict-resolution tie-breaking and by tests. Kinds are
// ordered nil < numeric < symbol < string; numerics compare numerically,
// symbols and strings lexically. It returns -1, 0 or +1.
func (v Value) Compare(o Value) int {
	gv, go_ := v.kindGroup(), o.kindGroup()
	if gv != go_ {
		if gv < go_ {
			return -1
		}
		return 1
	}
	switch gv {
	case 0: // both nil
		return 0
	case 1: // numeric
		a, b := v.AsFloat(), o.AsFloat()
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		// Equal numerically: break ties by kind so the order is total
		// and consistent with strict equality.
		if v.Kind != o.Kind {
			if v.Kind == KindInt {
				return -1
			}
			return 1
		}
		return 0
	default: // symbol or string
		switch {
		case v.S < o.S:
			return -1
		case v.S > o.S:
			return 1
		}
		return 0
	}
}

func (v Value) kindGroup() int {
	switch v.Kind {
	case KindNil:
		return 0
	case KindInt, KindFloat:
		return 1
	case KindSym:
		return 2
	default:
		return 3
	}
}

// String renders v in the rule-language's literal syntax.
func (v Value) String() string {
	if v.Kind == KindSym { // its own literal: no copy
		return v.S
	}
	var buf [32]byte
	return string(v.AppendLiteral(buf[:0]))
}

// AppendLiteral appends v's literal syntax, the text String returns, to
// b. Snapshot and checkpoint writers use it to render values without an
// intermediate string.
func (v Value) AppendLiteral(b []byte) []byte {
	switch v.Kind {
	case KindNil:
		return append(b, "nil"...)
	case KindInt:
		return strconv.AppendInt(b, v.I, 10)
	case KindFloat:
		n := len(b)
		b = strconv.AppendFloat(b, v.F, 'g', -1, 64)
		// Keep the literal recognizably a float: integral values would
		// otherwise print as "42" and re-parse as an int, changing the
		// value's kind (Equal is strict on kind). The letter check skips
		// Inf/NaN and exponent forms.
		if !bytes.ContainsAny(b[n:], ".eEnN") {
			b = append(b, ".0"...)
		}
		return b
	case KindSym:
		return append(b, v.S...)
	case KindStr:
		return strconv.AppendQuote(b, v.S)
	default:
		return fmt.Appendf(b, "?%d?", uint8(v.Kind))
	}
}
