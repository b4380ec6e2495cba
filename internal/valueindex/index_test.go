package valueindex

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"parulel/internal/wm"
)

// member is an index member for the model test: it carries its key and,
// the way tokens, memberships and images do, its neighbours in its bucket.
type member struct {
	id         int
	key        wm.Value
	next, prev *member
}

// memberKey is the owner of the test's indexes.
type memberKey struct{}

func (memberKey) Key(m *member) wm.Value { return m.key }

// link and unlink do an owner's part of filing a member: linking it behind
// the one Add names, and closing the gap it leaves.
func link(ix *Index[*member], m *member) {
	if m.prev = ix.Add(memberKey{}, m); m.prev != nil {
		m.prev.next = m
	}
}

func unlink(ix *Index[*member], m *member) {
	ix.Remove(memberKey{}, m, m.prev, m.next)
	if m.prev != nil {
		m.prev.next = m.next
	}
	if m.next != nil {
		m.next.prev = m.prev
	}
	m.next, m.prev = nil, nil
}

// walk lists the bucket that starts at head.
func walk(head *member) (out []*member) {
	for m := head; m != nil; m = m.next {
		out = append(out, m)
	}
	return out
}

// indexModel is the reference the value index is tested against: a Go map
// from key to bucket in arrival order, so bucket order has to agree too. A
// Go map cannot find a NaN key again, which is exactly the semantics wanted
// (no probe reaches such a member), so NaN-keyed members are only counted.
type indexModel struct {
	buckets map[wm.Value][]*member
	nan     int
}

func isNaN(v wm.Value) bool { return v.Kind == wm.KindFloat && v.F != v.F }

func (mo *indexModel) add(m *member) {
	if isNaN(m.key) {
		mo.nan++
		return
	}
	mo.buckets[m.key] = append(mo.buckets[m.key], m)
}

func (mo *indexModel) remove(m *member) {
	if isNaN(m.key) {
		mo.nan--
		return
	}
	b := mo.buckets[m.key]
	i := slices.Index(b, m)
	if b = slices.Delete(b, i, i+1); len(b) == 0 {
		delete(mo.buckets, m.key)
	} else {
		mo.buckets[m.key] = b
	}
}

// checkIndex compares the index with the model: every model bucket is what
// a probe returns, in order and linked both ways, and the counters add up.
func checkIndex(t *testing.T, step int, ix *Index[*member], mo *indexModel, probes []wm.Value) {
	t.Helper()
	members := mo.nan
	for k, want := range mo.buckets {
		got := walk(ix.Get(memberKey{}, k))
		if !slices.Equal(got, want) {
			t.Fatalf("step %d: bucket %v holds %d members, model %d (or in another order)", step, k, len(got), len(want))
		}
		for i, m := range got {
			if i == 0 && m.prev != nil || i > 0 && m.prev != got[i-1] {
				t.Fatalf("step %d: member %d of bucket %v does not link back to the one before it", step, m.id, k)
			}
		}
		members += len(want)
	}
	for _, k := range probes {
		if _, present := mo.buckets[k]; !present && !isNaN(k) && ix.Get(memberKey{}, k) != nil {
			t.Fatalf("step %d: probe of absent key %v found %d members", step, k, len(walk(ix.Get(memberKey{}, k))))
		}
		if isNaN(k) && ix.Get(memberKey{}, k) != nil {
			t.Fatalf("step %d: a NaN probe found members", step)
		}
	}
	if int(ix.live) != len(mo.buckets)+mo.nan {
		t.Fatalf("step %d: index counts %d buckets, model %d", step, ix.live, len(mo.buckets)+mo.nan)
	}
	used, held := 0, 0
	for _, b := range ix.slots {
		if b.hash >= hashMin {
			used++
			held += len(walk(b.Head))
			if b.Tail == nil || b.Tail.next != nil {
				t.Fatalf("step %d: a bucket's tail is not its last member", step)
			}
		} else if b.Head != nil || b.Tail != nil {
			t.Fatalf("step %d: a free slot holds members", step)
		}
	}
	if held != members {
		t.Fatalf("step %d: the table reaches %d members, model %d", step, held, members)
	}
	if used != int(ix.live) || int(ix.live+ix.dead)*4 > len(ix.slots)*3 {
		t.Fatalf("step %d: %d slots in use, live=%d dead=%d of %d", step, used, ix.live, ix.dead, len(ix.slots))
	}
}

// keyCases are the keys whose hashing and equality the Go map used to give
// for free: the two zeros are one key, NaN is no key, and a number, its
// float, its symbol and its string are four. Nil and Int -1 both hash to a
// slot sentinel before Hash steps off it.
var keyCases = []wm.Value{
	wm.Float(0), wm.Float(math.Copysign(0, -1)), wm.Float(math.NaN()),
	wm.Int(3), wm.Float(3), wm.Sym("3"), wm.Str("3"),
	wm.Nil(), wm.Int(-1), wm.Int(0), wm.Sym(""), wm.Str(""),
}

// TestValueIndexAgainstMap drives a value index and the map model with the
// same random adds and removes and compares them after every step, through
// growth over many distinct keys, deletion to empty and re-insertion, and
// churn over a bounded key set, where tombstones have to be reused or
// reclaimed rather than accumulate.
func TestValueIndexAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ix := &Index[*member]{}
	mo := &indexModel{buckets: map[wm.Value][]*member{}}
	var live []*member
	nextID, step := 0, 0

	add := func(k wm.Value) {
		m := &member{id: nextID, key: k}
		nextID++
		link(ix, m)
		mo.add(m)
		live = append(live, m)
	}
	remove := func(i int) {
		m := live[i]
		live[i] = live[len(live)-1]
		live = live[:len(live)-1]
		unlink(ix, m)
		mo.remove(m)
	}
	randomKey := func(distinct int) wm.Value {
		switch k := rng.Intn(distinct + len(keyCases)); {
		case k < len(keyCases):
			return keyCases[k]
		case k%3 == 0:
			return wm.Sym(fmt.Sprintf("s%d", k))
		case k%3 == 1:
			return wm.Float(float64(k) / 2)
		default:
			return wm.Int(int64(k))
		}
	}
	probes := func(distinct int) []wm.Value {
		out := append([]wm.Value(nil), keyCases...)
		for i := 0; i < 8; i++ {
			out = append(out, randomKey(distinct))
		}
		return out
	}
	run := func(steps, distinct int, pAdd float64) {
		for i := 0; i < steps; i++ {
			if len(live) == 0 || rng.Float64() < pAdd {
				add(randomKey(distinct))
			} else {
				remove(rng.Intn(len(live)))
			}
			step++
			checkIndex(t, step, ix, mo, probes(distinct))
		}
	}
	empty := func() {
		for len(live) > 0 {
			remove(rng.Intn(len(live)))
			step++
			checkIndex(t, step, ix, mo, keyCases)
		}
		if ix.slots != nil || ix.live != 0 || ix.dead != 0 || ix.Bytes() != 0 {
			t.Fatalf("emptied index keeps a table of %d slots (live=%d dead=%d)", len(ix.slots), ix.live, ix.dead)
		}
	}

	run(3000, 2000, 0.8) // growth: hundreds of distinct keys
	if len(ix.slots) < 256 {
		t.Fatalf("table did not grow: %d slots for %d buckets", len(ix.slots), ix.live)
	}
	run(3000, 2000, 0.3) // and back down
	empty()
	run(500, 40, 0.7) // re-insert into the released index
	empty()

	// Churn: a bounded number of live buckets over an unbounded key
	// sequence. Every key is added once and removed for good, so each
	// removal leaves a tombstone no later key matches; the table must stay
	// the size the live set needs.
	for i := 0; i < 20000; i++ {
		add(wm.Int(int64(1000 + i)))
		if len(live) > 24 {
			remove(rng.Intn(len(live)))
		}
		if len(ix.slots) > 64 {
			t.Fatalf("round %d: %d slots for %d live buckets (dead=%d): tombstones are not reclaimed", i, len(ix.slots), ix.live, ix.dead)
		}
		if i%97 == 0 {
			step++
			checkIndex(t, step, ix, mo, keyCases)
		}
	}
	empty()
}

// TestValueIndexKeyCases states the agreement between Hash and ==
// that the index relies on.
func TestValueIndexKeyCases(t *testing.T) {
	posZero, negZero, nan := wm.Float(0), wm.Float(math.Copysign(0, -1)), wm.Float(math.NaN())
	if posZero != negZero || Hash(posZero) != Hash(negZero) {
		t.Fatal("+0.0 and -0.0 are == and must hash alike")
	}
	for _, v := range append(keyCases, wm.Int(math.MinInt64), wm.Int(math.MaxInt64), wm.Float(math.Inf(1))) {
		if h := Hash(v); h < hashMin {
			t.Fatalf("Hash(%v) = %d is a slot sentinel", v, h)
		}
	}

	ix := &Index[*member]{}
	add := func(k wm.Value) *member {
		m := &member{key: k}
		link(ix, m)
		return m
	}
	z1, z2 := add(posZero), add(negZero)
	if got := walk(ix.Get(memberKey{}, negZero)); len(got) != 2 || got[0] != z1 || got[1] != z2 {
		t.Fatalf("the two zeros must share a bucket, got %d members", len(got))
	}
	four := []*member{add(wm.Int(3)), add(wm.Float(3)), add(wm.Sym("3")), add(wm.Str("3"))}
	for _, m := range four {
		if got := walk(ix.Get(memberKey{}, m.key)); len(got) != 1 || got[0] != m {
			t.Fatalf("%v (kind %v) must be a key of its own, probe found %d members", m.key, m.key.Kind, len(got))
		}
	}
	n1, n2 := add(nan), add(nan)
	if ix.Get(memberKey{}, nan) != nil {
		t.Fatal("NaN equals nothing: a probe must not reach NaN-keyed members")
	}
	if n1.prev != nil || n2.prev != nil || ix.live != 7 {
		t.Fatalf("each NaN-keyed member needs a bucket of its own (live=%d)", ix.live)
	}
	// ...but both are removable, in either order, by identity.
	unlink(ix, n2)
	unlink(ix, n1)
	for _, m := range append(four, z2, z1) {
		unlink(ix, m)
	}
	if ix.live != 0 || ix.slots != nil {
		t.Fatalf("index not empty after removing everything: %d buckets, %d slots", ix.live, len(ix.slots))
	}
}
