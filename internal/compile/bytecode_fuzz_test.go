package compile

import "testing"

// exprGen derives a random well-typed expression tree from fuzz bytes:
// structurally valid per checkArity (argument counts respected, only real
// builtins), while runtime type errors (non-numeric operands, division by
// zero, empty symcat) are exactly the disagreement surface under test.
type exprGen struct {
	data []byte
	pos  int
}

func (g *exprGen) byte() byte {
	if g.pos >= len(g.data) {
		return 0
	}
	b := g.data[g.pos]
	g.pos++
	return b
}

// variadic builtins and their minimum arity (checkArity's table).
var fuzzVariadic = []struct {
	op  Builtin
	min int
}{
	{BAdd, 2}, {BMul, 2}, {BDiv, 2}, {BMin, 2}, {BMax, 2},
	{BAnd, 2}, {BOr, 2}, {BSub, 1}, {BSymcat, 1},
}

var fuzzBinary = []Builtin{BEq, BNe, BLt, BLe, BGt, BGe, BMod}
var fuzzUnary = []Builtin{BNot, BAbs, BHash}

func (g *exprGen) gen(depth int) *Expr {
	b := g.byte()
	if depth <= 0 {
		b %= 6 // leaves only
	}
	switch b % 12 {
	case 0, 1, 4:
		return c(paletteAt(int(g.byte())))
	case 2:
		ref := func() VarRef { return VarRef{CE: int(g.byte()) % 4, Field: int(g.byte()) % 4} }
		if g.byte()%3 == 0 {
			return &Expr{Kind: ERefPrec, Ref: ref(), MetaVar: ref(), Len: int(g.byte()) % 4}
		}
		return &Expr{Kind: ERef, Ref: ref()}
	case 3:
		return &Expr{Kind: ELocal, Local: int(g.byte()) % 8}
	case 5:
		if g.byte()%2 == 0 {
			return call(BCrlf)
		}
		return call(BTabto)
	case 6, 7, 8:
		v := fuzzVariadic[int(g.byte())%len(fuzzVariadic)]
		n := v.min + int(g.byte())%3
		args := make([]*Expr, n)
		for i := range args {
			args[i] = g.gen(depth - 1)
		}
		return call(v.op, args...)
	case 9, 10:
		op := fuzzBinary[int(g.byte())%len(fuzzBinary)]
		return call(op, g.gen(depth-1), g.gen(depth-1))
	default:
		if g.byte()%3 == 0 {
			return call(BIf, g.gen(depth-1), g.gen(depth-1), g.gen(depth-1))
		}
		op := fuzzUnary[int(g.byte())%len(fuzzUnary)]
		return call(op, g.gen(depth-1))
	}
}

// FuzzBytecodeEval holds the bytecode VM to the tree-walking interpreter:
// for any well-typed expression the two backends must produce the same
// value, or the same error text, and as a filter the expression must hold
// on a WME vector exactly when the tree walker finds it truthy without
// error there (agree). Both backends compute the builtins through
// Builtin.apply, so what it holds apart is the lowering: register windows,
// jumps, short-circuits and the condition form. This is the contract that
// lets an expression run whichever of the two it was built for.
func FuzzBytecodeEval(f *testing.F) {
	f.Add([]byte{6, 0, 1, 0, 1, 1, 2})                     // (add const const)
	f.Add([]byte{9, 6, 0, 3, 1, 4, 2, 1, 0})               // cmp over arith
	f.Add([]byte{11, 0, 0, 1, 0, 2, 6, 2, 1, 0, 5, 0, 7})  // if with div
	f.Add([]byte{6, 7, 2, 0, 11, 0, 8, 6, 2, 2, 0, 6, 0})  // boolean nesting
	f.Add([]byte{8, 8, 1, 0, 11, 0, 13, 2, 1, 1, 3, 2, 5}) // symcat mix
	f.Add([]byte{6, 0, 3, 3, 1, 3, 2})                     // (+ local local)
	f.Add([]byte{6, 6, 0, 2, 0, 1, 2, 1, 1, 2, 0, 1})      // lowered precedes under or
	f.Add([]byte{6, 6, 0, 6, 2, 0, 0, 1, 0, 0, 0, 1})      // (or (div 7 0) 7)
	f.Add([]byte{11, 1, 0, 6, 2, 0, 0, 1, 0, 0})           // (not (div 7 0))
	f.Add([]byte{9, 0, 0, 14, 0, 16})                      // (= 2^53 2^53+1)
	f.Fuzz(func(t *testing.T, data []byte) {
		g := &exprGen{data: data}
		agree(t, g.gen(4))
	})
}
