package rete

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"parulel/internal/compile"
	"parulel/internal/match/matchtest"
	"parulel/internal/match/treat"
	"parulel/internal/programs"
	"parulel/internal/wm"
)

// fuzzPrograms are what FuzzNetworkDifferential matches: the conformance
// suite's programs, one matcher feature each, and the seven builtins.
func fuzzPrograms(tb testing.TB) []*compile.Program {
	var out []*compile.Program
	names := make([]string, 0, len(matchtest.Programs))
	for name := range matchtest.Programs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		out = append(out, matchtest.Compiled(tb, name))
	}
	for _, name := range programs.All() {
		prog, err := programs.Load(name)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, prog)
	}
	return out
}

// commonValues are the first values of every field's pool: small numbers
// that make joins meet, the two zeros, which are one key, and NaN, which is
// none. After them come the constants the program tests the field against,
// so that alpha tests pass often.
var commonValues = []wm.Value{
	wm.Int(0), wm.Int(1), wm.Int(2), wm.Int(3),
	wm.Float(0), wm.Float(math.Copysign(0, -1)), wm.Float(math.NaN()), wm.Float(1),
	wm.Sym("a"), wm.Nil(),
}

// Indexes into commonValues, for the seed corpus.
const (
	vPosZero, vNegZero, vNaN = 4, 5, 6
	vFirstConst              = 10
)

func valuePools(prog *compile.Program) map[*wm.Template][][]wm.Value {
	pools := map[*wm.Template][][]wm.Value{}
	for _, name := range prog.Schema.Names() {
		t := prog.Schema.MustLookup(name)
		pools[t] = make([][]wm.Value, t.Arity())
		for f := range pools[t] {
			pools[t][f] = slices.Clone(commonValues)
		}
	}
	for _, r := range prog.Rules {
		for _, ce := range r.CEs {
			for _, ct := range ce.ConstTests {
				pools[ce.Tmpl][ct.Field] = append(pools[ce.Tmpl][ct.Field], ct.Val)
			}
			for _, dt := range ce.DisjTests {
				pools[ce.Tmpl][dt.Field] = append(pools[ce.Tmpl][dt.Field], dt.Vals...)
			}
		}
	}
	return pools
}

// Operations of a fuzz input. The byte after the program's is an
// operation, its low bits the kind and opFlush set when the delta built so
// far goes to the matchers after it; what follows is a template and one
// byte per field for an add, and the index of a live WME for the rest.
const (
	opAdd     = 0 // make a WME
	opRemove  = 1 // remove a live WME
	opReplace = 2 // remove a live WME and make one with the same fields: a modify
	opBounce  = 3 // remove a live WME and add the same one back, in one delta
	opKinds   = 4
	opFlush   = 0x80
)

// FuzzNetworkDifferential drives a network, TREAT and the brute-force
// model of the conformance suite with deltas decoded from the input and
// compares the three conflict sets after every delta; the network is also
// audited, so a handle left pointing at a freed — and by then probably
// reused — record is found where it is left, not when it is next followed.
func FuzzNetworkDifferential(f *testing.F) {
	progs := fuzzPrograms(f)
	// Random histories over every program, mostly adds at first and then
	// churn, so that records are freed and reused under tokens that live on.
	rng := rand.New(rand.NewSource(1))
	for p, prog := range progs {
		names := prog.Schema.Names()
		in := []byte{byte(p)}
		for i := 0; i < 150; i++ {
			op := byte(rng.Intn(opKinds))
			if i < 8 {
				op = opAdd
			}
			in = append(in, op|byte(rng.Intn(3)/2*opFlush))
			if op != opAdd {
				in = append(in, byte(rng.Intn(12)))
				continue
			}
			tmpl := rng.Intn(len(names))
			in = append(in, byte(tmpl))
			for k := prog.Schema.MustLookup(names[tmpl]).Arity(); k > 0; k-- {
				in = append(in, byte(rng.Intn(14)))
			}
		}
		f.Add(in)
	}
	at := func(name string) byte {
		names := make([]string, 0, len(matchtest.Programs))
		for n := range matchtest.Programs {
			names = append(names, n)
		}
		sort.Strings(names)
		return byte(slices.Index(names, name))
	}
	// negation (templates lock, task; ready is task.state's first constant):
	// a task, blocked by a lock, unblocked, blocked again by a lock that is
	// bounced and then replaced.
	f.Add([]byte{at("negation"),
		opAdd | opFlush, 1, 1, vFirstConst, opAdd | opFlush, 0, 1, opRemove | opFlush, 1,
		opAdd | opFlush, 0, 1, opBounce | opFlush, 1, opReplace | opFlush, 1, opRemove | opFlush, 0})
	// three-way-chain on keys that are NaN, +0 and -0: the zeros chain, NaN
	// joins nothing and must still come out of its buckets.
	f.Add([]byte{at("three-way-chain"),
		opAdd, 0, vPosZero, vNegZero, opAdd, 0, vNegZero, vPosZero, opAdd, 0, vNaN, vNaN, opAdd | opFlush, 0, vPosZero, vNaN,
		opRemove | opFlush, 2, opRemove | opFlush, 0, opAdd | opFlush, 0, vNaN, vNegZero, opRemove | opFlush, 0, opRemove | opFlush, 0, opRemove | opFlush, 0})
	// self-join-same-template: one delta that removes a WME and adds two,
	// then removals whose tokens' slots have been taken by the additions.
	f.Add([]byte{at("self-join-same-template"),
		opAdd, 0, 0, 1, opAdd, 0, 1, 1, opAdd | opFlush, 0, 2, 1,
		opRemove, 1, opAdd, 0, 3, 1, opAdd | opFlush, 0, 1, 1,
		opRemove | opFlush, 0, opReplace | opFlush, 0, opRemove | opFlush, 2, opRemove | opFlush, 0, opRemove | opFlush, 0})
	// circuit's eval (templates gate, wire), whose two input CEs and negated
	// output CE are all over wire: gate 0 reads wire 1 twice and drives it,
	// so the wire that completes its inputs also blocks them; gate 1 reads
	// wire 1 and drives wire 2. A second wire 1 doubles the tuples, and
	// wire 2 comes and goes.
	f.Add([]byte{byte(len(matchtest.Programs) + slices.Index(programs.All(), programs.Circuit)),
		opAdd, 0, 0, 0, 1, 1, 1, opAdd | opFlush, 0, 1, 0, 1, 1, 2,
		opAdd | opFlush, 1, 1, 0, opAdd | opFlush, 1, 2, 1, opAdd | opFlush, 1, 1, 1,
		opRemove | opFlush, 3, opReplace | opFlush, 2, opBounce | opFlush, 2, opRemove | opFlush, 2, opRemove | opFlush, 2})

	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		prog := progs[int(in[0])%len(progs)]
		in = in[1:]
		next := func() byte {
			if len(in) == 0 {
				return 0
			}
			b := in[0]
			in = in[1:]
			return b
		}
		pools := valuePools(prog)
		templates := prog.Schema.Names()
		mem := wm.NewMemory(prog.Schema)
		net := NewWithOptions(prog.Rules, Options{Profile: true}).(*Network)
		ref := treat.New(prog.Rules)
		var live []*wm.WME
		var delta wm.Delta
		for step := 0; len(in) > 0 && step < 200; step++ {
			op := next()
			// The model enumerates every combination: keep the memory small.
			kind := op % opKinds
			if len(live) == 0 || kind != opAdd && len(live) < 12 && op&0x40 != 0 {
				kind = opAdd
			} else if kind == opAdd && len(live) >= 12 {
				kind = opRemove
			}
			if kind == opAdd {
				tmpl := prog.Schema.MustLookup(templates[int(next())%len(templates)])
				fields := make([]wm.Value, tmpl.Arity())
				for i := range fields {
					fields[i] = pools[tmpl][i][int(next())%len(pools[tmpl][i])]
				}
				w := mem.InsertFields(tmpl, fields)
				live = append(live, w)
				delta.Added = append(delta.Added, w)
			} else if i := int(next()) % len(live); slices.Contains(delta.Added, live[i]) {
				// A WME made in this delta is left alone: the matchers have
				// not seen it, and a delta removes before it adds. The delta
				// goes out instead.
				op |= opFlush
			} else {
				w := live[i]
				delta.Removed = append(delta.Removed, w)
				switch kind {
				case opRemove:
					mem.Remove(w.Time)
					live = slices.Delete(live, i, i+1)
				case opReplace:
					mem.Remove(w.Time)
					live[i] = mem.InsertFields(w.Tmpl, slices.Clone(w.Fields))
					delta.Added = append(delta.Added, live[i])
				case opBounce:
					delta.Added = append(delta.Added, w)
				}
			}
			if op&opFlush == 0 && len(in) > 0 {
				continue
			}
			net.Apply(delta)
			ref.Apply(delta)
			delta = wm.Delta{}
			if err := net.audit(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			got, want := matchtest.Keys(net.ConflictSet()), matchtest.Keys(ref.ConflictSet())
			if !slices.Equal(got, want) {
				t.Fatalf("step %d: RETE holds %v, TREAT %v", step, got, want)
			}
			model := matchtest.NaiveConflictSet(prog, mem)
			if len(model) != len(got) {
				t.Fatalf("step %d: RETE holds %d instantiations %v, the model %d", step, len(got), got, len(model))
			}
			for _, k := range got {
				if !model[k] {
					t.Fatalf("step %d: RETE holds %s, the model does not", step, k)
				}
			}
		}
	})
}
