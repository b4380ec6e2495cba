package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"parulel/internal/compile"
	"parulel/internal/lang"
	"parulel/internal/match"
	"parulel/internal/match/seeded"
	"parulel/internal/wm"
)

// checkMetaLevel checks, between syncs, that the meta level's parts agree
// with each other and with images, the images of the eligible
// instantiations as their holder keeps them: every image is filed, and has
// a member exactly when a join-form meta-rule names its rule; every member
// is in exactly the memories whose alpha tests it passes, and as the
// memories count no more members than that, they hold no other; nothing is
// queued; every witness holds eligible images only, and no image a witness
// names is gone; and the orders are what checkOrders says. How a memory
// links and indexes its members, and how a witness is filed among its
// members' dependents, is internal/match/seeded's, and its tests check it.
func checkMetaLevel(t testing.TB, m *metaLevel, images []*image) {
	t.Helper()
	if n := len(m.left) + len(m.entered) + len(m.lifted); n != 0 {
		t.Fatalf("%d images still queued after a sync", n)
	}
	live := make(map[*image]bool, len(images))
	members := make(map[*seeded.Member]bool, len(images))
	for _, img := range images {
		if live[img] {
			t.Fatalf("image %v is held twice", img.in)
		}
		live[img] = true
		members[img.mb] = true
	}
	held := 0
	for i := range m.w.Mems {
		held += m.w.Mems[i].N
	}
	fits := 0
	for _, img := range images {
		mb := img.mb
		if !img.filed || (mb != nil) != (len(m.pats[img.in.Rule.Index]) > 0) {
			t.Fatalf("image %v: filed=%v, member %v: not filed, or retracted, or a member where no join-form pattern is", img.in, img.filed, mb)
		}
		if mb == nil {
			continue
		}
		if !mb.Laid() || mb.In != img.in || mb.Above != img.above {
			t.Fatalf("image %v: member not laid out for the memories, or laid out no more, or another's, or %d orders redact it where the image counts %d", img.in, mb.Above, img.above)
		}
		mb.Dependents(func(d *seeded.Member, _ int) {
			if !members[d] {
				t.Fatalf("image %v: %v, which is not eligible, is still filed as its dependent", img.in, d.In)
			}
		})
		for _, p := range m.prog.Images[img.in.Rule.Index].Patterns {
			fit := p.CE.MatchesAlpha(&mb.W)
			if fit != mb.Held(p) {
				t.Fatalf("image %v: passes pattern %d's alpha tests = %v, held by its memory = %v", img.in, p.ID, fit, mb.Held(p))
			}
			if fit {
				fits++
			}
		}
	}
	if fits != held {
		t.Fatalf("the memories hold %d images, the images fit %d patterns", held, fits)
	}
	for img, others := range witnesses(images) {
		if slices.Contains(others, nil) {
			t.Fatalf("image %v: its witness holds an image that is not eligible", img.in)
		}
	}
	checkOrders(t, m, images)
}

// checkOrders checks every order's groups against images: each image of an
// order's rule is filed in the group of its group values, at the place its
// rank says, unless one of them is a NaN; the groups hold nothing else; an
// ordered group's class ties and comes before the rest; and
// whether the order redacts a member is what evaluating the test on every
// pair of the group finds, and how many orders do what the image counts.
func checkOrders(t testing.TB, m *metaLevel, images []*image) {
	t.Helper()
	filed := 0
	for _, img := range images {
		above := int32(0)
		for k, r := range m.orders[img.in.Rule.Index] {
			rk := img.ranks[k]
			if rk.redacted {
				above++
			}
			h, ok := r.key(img.in.WMEs)
			if !ok {
				if rk != (rank{}) {
					t.Fatalf("%v: a NaN group value, and a rank %+v under %s", img.in, rk, m.rules[r.o.Meta].Name)
				}
				continue
			}
			filed++
			g := r.find(h, img.in.WMEs)
			if g == nil || rk.g != g {
				t.Fatalf("%v: rank %+v under %s, not in its group %p", img.in, rk, m.rules[r.o.Meta].Name, g)
			}
			in := g.rest
			if rk.inMin {
				in = g.min
			}
			if int(rk.at) >= len(in) || in[rk.at] != img {
				t.Fatalf("%v: rank %+v under %s, not in its group %p", img.in, rk, m.rules[r.o.Meta].Name, g)
			}
			redacted := false
			r.each(func(h *group, w *image) {
				redacted = redacted || h == g && w != img && r.o.Redacts(w.in.WMEs, img.in.WMEs)
			})
			if rk.redacted != redacted {
				t.Fatalf("%v: %s redacts it = %v, the test on every pair of its group says %v", img.in, m.rules[r.o.Meta].Name, rk.redacted, redacted)
			}
		}
		if above != img.above {
			t.Fatalf("%v: %d orders redact it, the image counts %d", img.in, above, img.above)
		}
	}
	members := 0
	for _, rs := range m.orders {
		for _, r := range rs {
			for _, g := range r.groups {
				for ; g != nil; g = g.next {
					checkGroup(t, r, g)
					members += len(g.min) + len(g.rest)
				}
			}
		}
	}
	if members != filed {
		t.Fatalf("the groups hold %d images, %d are filed in one", members, filed)
	}
}

// checkGroup checks one group's order: a class that ties and comes before
// the rest, unless a member holds a NaN, and then no class.
func checkGroup(t testing.TB, r *ranking, g *group) {
	t.Helper()
	nan := 0
	for _, x := range append(slices.Clone(g.min), g.rest...) {
		if !r.o.Regular(x.in.WMEs) {
			nan++
		}
	}
	if nan != g.nan || len(g.min)+len(g.rest) == 0 || nan > 0 && len(g.min) > 0 || nan == 0 && len(g.min) == 0 {
		t.Fatalf("group of %d and %d: %d NaN members, counts %d", len(g.min), len(g.rest), nan, g.nan)
	}
	if nan > 0 {
		return
	}
	for _, x := range g.min {
		if c := r.o.Compare(x.in.WMEs, g.min[0].in.WMEs); c != 0 {
			t.Fatalf("%v and %v share a class, compare %d", x.in, g.min[0].in, c)
		}
	}
	for _, x := range g.rest {
		if c := r.o.Compare(g.min[0].in.WMEs, x.in.WMEs); c >= 0 {
			t.Fatalf("%v is in the rest, %v in the class, compare %d", x.in, g.min[0].in, c)
		}
	}
}

// witnesses returns, for each image of images some image of images is a
// dependent of, the other members of its witness in slot order, read off
// the dependents of each image in images: a place an image outside images
// fills stays nil, unless it is the last.
func witnesses(images []*image) map[*image][]*image {
	of := make(map[*seeded.Member]*image, len(images))
	for _, x := range images {
		if x.mb != nil {
			of[x.mb] = x
		}
	}
	out := make(map[*image][]*image)
	for _, x := range images {
		if x.mb == nil {
			continue
		}
		x.mb.Dependents(func(dm *seeded.Member, at int) {
			d := of[dm]
			if others := out[d]; at >= len(others) {
				out[d] = append(others, make([]*image, at+1-len(others))...)
			}
			out[d][at] = x
		})
	}
	return out
}

// checkWitnesses checks every image against the oracle joiner over the same
// eligible set: a redacted image's witness is a tuple of eligible
// instantiations the oracle confirms redacts it, and an image an order
// redacts has a member of its group the oracle confirms redacts it; an
// image without either is one no tuple redacts; explain has an account
// exactly for the redacted ones and, while no meta-rule names a victim
// twice, counts the tuples the oracle does; and the instantiations not
// redacted are the oracle's survivors. imgs holds what enter returned for
// each eligible instantiation. It returns how many tuples redact an image,
// counted once per image a tuple redacts.
func checkWitnesses(t *testing.T, m *metaLevel, oracle *oracleRedactor, eligible []*match.Instantiation, imgs map[*match.Instantiation]*image) (tuples int) {
	t.Helper()
	want := oracle.kills(eligible)
	mentionsOnce := true
	for _, r := range m.rules {
		for i, v := range r.Redacts {
			mentionsOnce = mentionsOnce && !slices.Contains(r.Redacts[:i], v)
		}
	}
	held := make([]*image, 0, len(imgs))
	for _, img := range imgs {
		held = append(held, img)
	}
	wits := witnesses(held)
	var got []*match.Instantiation
	redacted := 0
	for _, in := range eligible {
		img := imgs[in]
		if img == nil || img.in != in {
			t.Fatalf("%v: no image, or the image of an instantiation that has left", in)
		}
		tuples += want[in.Key()]
		explained := 0
		for _, r := range m.explain(img) {
			if r.tuples == 0 {
				t.Fatalf("%v: empty explanation %+v", in, r)
			}
			explained += r.tuples
		}
		if explained > want[in.Key()] || mentionsOnce && explained != want[in.Key()] || (explained == 0) != (want[in.Key()] == 0) {
			t.Fatalf("%v: explain accounts for %d tuples, a recount finds %d", in, explained, want[in.Key()])
		}
		if !img.redacted() {
			got = append(got, in)
			if want[in.Key()] != 0 {
				t.Fatalf("%v: not redacted, but %d tuples redact it", in, want[in.Key()])
			}
			continue
		}
		redacted++
		if img.above > 0 {
			if !orderRedacts(m, oracle, img) {
				t.Fatalf("%v: an order redacts it, but no member of its group does by the oracle", in)
			}
			continue
		}
		others := make([]*match.Instantiation, len(wits[img]))
		for i, x := range wits[img] {
			if x == nil {
				t.Fatalf("%v: its witness holds an instantiation that is not eligible", in)
			}
			others[i] = x.in
		}
		if !witnessRedacts(oracle, m.rules, others, in) {
			t.Fatalf("%v: no meta-rule redacts it by a tuple of it and %v, its witness", in, others)
		}
	}
	keep, _, n := oracle.run(eligible)
	if redacted != n || !sameInstantiations(got, keep) {
		t.Fatalf("survivors %v (%d redacted), oracle keeps %v (%d)", got, redacted, keep, n)
	}
	return tuples
}

// orderRedacts reports whether, under some order that says it redacts img,
// the oracle finds a member of img's group whose pair with img matches the
// order's meta-rule and redacts img.
func orderRedacts(m *metaLevel, oracle *oracleRedactor, img *image) bool {
	for k, r := range m.orders[img.in.Rule.Index] {
		rk := img.ranks[k]
		if !rk.redacted {
			continue
		}
		for _, part := range [][]*image{rk.g.min, rk.g.rest} {
			for _, w := range part {
				if w != img && witnessRedacts(oracle, m.rules[r.o.Meta:r.o.Meta+1], []*match.Instantiation{w.in}, img.in) {
					return true
				}
			}
		}
	}
	return false
}

// witnessRedacts reports whether the oracle finds a meta-rule that redacts
// victim by the tuple of victim and others, others in slot order: a witness
// keeps the members of the tuple, not its rule or the victim's slot in it.
func witnessRedacts(oracle *oracleRedactor, rules []*compile.MetaRule, others []*match.Instantiation, victim *match.Instantiation) bool {
	for _, r := range rules {
		for slot := range len(others) + 1 {
			if oracle.redacts(r, slices.Insert(slices.Clone(others), slot, victim), victim) {
				return true
			}
		}
	}
	return false
}

// metaLevelCases are the shapes the oracle differential cannot tell apart
// at the engine: it compares survivors, and a witness that names a tuple
// which no longer redacts, or one that is gone, hides until nothing else
// redacts its image.
var metaLevelCases = []struct{ name, metas string }{
	{"mutual-kill", `
(metarule duel [<i> (take ^k <k>)] [<j> (take ^k <k>)] --> (redact <j>))`},
	{"killer-and-victim", `
(metarule both [<i> (take ^k <k> ^a <a>)] [<j> (take ^k <k> ^a (> <a>))] --> (redact <i> <j>))`},
	{"duplicate-victim", `
(metarule twice [<i> (take ^a <a>)] [<j> (drop ^a <a>)] --> (redact <i> <i>))`},
	{"equality-free", `
(metarule lowest [<i> (take ^a <a>)] [<j> (take ^a <b>)] (test (or (< <a> <b>) (and (= <a> <b>) (precedes <i> <j>)))) --> (redact <j>))`},
	{"two-leavers-one-tuple", `
(metarule triple [<i> (take ^k <k>)] [<j> (take ^k <k>)] [<l> (drop ^k <k>)] (test (precedes <i> <j>)) --> (redact <l>))
(metarule triangle [<i> (take ^a <a>)] [<j> (take ^b <a>)] [<l> (take ^k <a>)] --> (redact <i> <l>))`},
	{"alpha-tests", `
(metarule picky [<i> (take ^k 1 ^a <a>)] [<j> (take ^k << 0 1 >> ^a <a> ^b (< 2))] [<l> (drop ^a (<> <a>))] (test (< (tag <i>) (tag <l>))) --> (redact <j> <l>))`},
	{"single-pattern", `
(metarule never [<i> (take ^k 2)] --> (redact <i>))
(metarule middle [<i> (drop ^k <k>)] [<j> (take ^a <k>)] [<l> (drop ^b <k>)] --> (redact <j>))`},
	// A lock: any image of one pattern, which joins nothing, redacts every
	// image of the other, so the leaving of the witness they share sends
	// them all to search again.
	{"lock", `
(metarule lock [<i> (drop ^a <x>)] [<j> (take ^a <y>)] --> (redact <j>))`},
}

const metaLevelRules = `
(literalize item k a b)
(literalize part k a b)
(rule take (item ^k <k> ^a <a> ^b <b>) --> (remove 1))
(rule drop (part ^k <k> ^a <a> ^b <b>) --> (remove 1))
`

// driveMetaLevel feeds one program's meta level random batches of
// instantiations entering and leaving, holding their images the way the
// engine's conflict-set table does, and after every sync checks the
// structure and every witness. Batches take in the cases an engine run
// produces rarely or in one order only: most or all of the eligible set
// leaving at once, two leavers in one tuple, an image queued to leave
// twice, an instantiation that leaves and comes back under the same key
// within a sync, one that fires and stays in the conflict set, and
// entrants a restored refraction set already names, which never become
// eligible. Fields hold values. It returns how many tuples the recounts
// found.
func driveMetaLevel(t *testing.T, src string, values []wm.Value, seed int64, rounds int) (tuples int) {
	t.Helper()
	ast, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("%v\n%s", err, src)
	}
	// Odd seeds run the unlowered program: meta level and oracle alike on
	// the tree walker.
	build := compile.Compile
	if seed%2 == 1 {
		build = compile.CompileUnlowered
	}
	prog, err := build(ast)
	if err != nil {
		t.Fatalf("%v\n%s", err, src)
	}
	rng := rand.New(rand.NewSource(seed))
	m := newMetaLevel(prog)
	oracle := newOracle(prog)
	mem := wm.NewMemory(prog.Schema)
	value := func() wm.Value { return values[rng.Intn(len(values))] }
	var pool []*match.Instantiation
	for _, r := range prog.Rules {
		if prog.Meta.Images[r.Index] == nil {
			continue
		}
		for i := 0; i < 9; i++ {
			fields := []wm.Value{value(), value(), value()}
			pool = append(pool, match.NewInstantiation(r, []*wm.WME{mem.InsertFields(r.CEs[0].Tmpl, fields)}))
		}
	}
	// present is the conflict set and imgs the images of its eligible
	// members; a present instantiation without one has fired.
	present := make(map[match.Key]*match.Instantiation)
	imgs := make(map[*match.Instantiation]*image)
	for round := 0; round < rounds; round++ {
		turnover := []float64{0.15, 0.5, 1}[rng.Intn(3)]
		for _, in := range pool {
			if rng.Float64() >= turnover {
				continue
			}
			k := in.Key()
			switch cur := present[k]; {
			case cur == nil:
				present[k] = in
				if rng.Intn(8) != 0 { // else as restored: in the conflict set, never eligible
					imgs[in] = m.enter(in)
				}
			case imgs[cur] != nil && rng.Intn(4) == 0:
				m.leave(imgs[cur]) // fires, and stays in the conflict set
				delete(imgs, cur)
			default:
				img := imgs[cur]
				m.leave(img)
				delete(imgs, cur)
				delete(present, k)
				switch rng.Intn(4) {
				case 0:
					m.leave(img)
				case 1:
					again := match.NewInstantiation(in.Rule, in.WMEs)
					imgs[again] = m.enter(again)
					present[k] = again
				}
			}
		}
		m.sync()
		var eligible []*match.Instantiation
		var images []*image
		for in, img := range imgs {
			eligible = append(eligible, in)
			images = append(images, img)
		}
		checkMetaLevel(t, m, images)
		match.SortInstantiations(eligible)
		tuples += checkWitnesses(t, m, oracle, eligible, imgs)
		checkMetaLevel(t, m, images) // explain changed nothing
	}
	return tuples
}

// smallInts are the named cases' field values. mixedValues add, for the
// generated programs and their orders, a float that ties with an int under
// the relational operators, a symbol, which comes after every number, and a
// NaN, which sends its group under an order to be settled pair by pair.
var (
	smallInts   = []wm.Value{wm.Int(0), wm.Int(1), wm.Int(2)}
	mixedValues = []wm.Value{wm.Int(0), wm.Int(1), wm.Int(2), wm.Int(0), wm.Int(1), wm.Int(2), wm.Float(1), wm.Float(math.NaN()), wm.Sym("a")}
)

// TestMetaLevelKillCounts is the model-based test of the lazy meta level:
// the model is the oracle joiner's count from scratch of the tuples that
// redact each image, against which every witness is checked.
func TestMetaLevelKillCounts(t *testing.T) {
	for i, tc := range metaLevelCases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				if driveMetaLevel(t, metaLevelRules+tc.metas, smallInts, seed+int64(10*i), 60) == 0 {
					t.Fatal("no tuple ever matched: the case tests nothing")
				}
			}
		})
	}
	t.Run("generated", func(t *testing.T) {
		const seeds = 60
		matching := 0
		for seed := int64(1); seed <= seeds; seed++ {
			src := genMetaProgram(rand.New(rand.NewSource(seed)))
			if driveMetaLevel(t, src, mixedValues, seed, 25) > 0 {
				matching++
			}
			if t.Failed() {
				t.Fatalf("seed %d:\n%s", seed, src)
			}
		}
		if matching < seeds/2 {
			t.Errorf("only %d of %d generated programs ever matched a tuple", matching, seeds)
		}
	})
}

// TestMetaLevelChurn keeps one meta level alive through 100k rounds of an
// instantiation entering and an old one leaving, over join and group keys
// that never repeat, beside two images that stay and are redacted by
// whatever passes. Memories, index tables, groups and witnesses must come
// back to where they started and no image may outlive its instantiation.
// best-of-group is an order; best-of-group-by-tag redacts the same images
// by a join, since it reads a tag.
func TestMetaLevelChurn(t *testing.T) {
	prog := compileOK(t, `
(literalize item group rank)
(rule take (item ^group <g> ^rank <r>) --> (remove 1))
(metarule best-of-group
  [<i> (take ^g <g> ^r <r1>)]
  [<j> (take ^g <g> ^r <r2>)]
  (test (< <r1> <r2>))
-->
  (redact <j>))
(metarule best-of-group-by-tag
  [<i> (take ^g <g> ^r <r1>)]
  [<j> (take ^g <g> ^r <r2>)]
  (test (and (< <r1> <r2>) (> (tag <i>) 0)))
-->
  (redact <j>))
(metarule outranked
  [<i> (take ^r <r1>)]
  [<j> (take ^g 0 ^r <r2>)]
  (test (> <r1> <r2>))
-->
  (redact <j>))
`)
	m := newMetaLevel(prog)
	oracle := newOracle(prog)
	mem := wm.NewMemory(prog.Schema)
	take := prog.Rules[0]
	imgs := make(map[*match.Instantiation]*image)
	images := func(ins []*match.Instantiation) (out []*image) {
		for _, in := range ins {
			out = append(out, imgs[in])
		}
		return out
	}
	inst := func(group, rank int) *match.Instantiation {
		w := mem.InsertFields(take.CEs[0].Tmpl, []wm.Value{wm.Int(int64(group)), wm.Int(int64(rank))})
		return match.NewInstantiation(take, []*wm.WME{w})
	}
	tables := func() (n int) {
		for i := range m.w.Mems {
			n += m.w.Mems[i].Bytes()
		}
		return n
	}
	if base := m.memStats(); base != (match.MemStats{}) || tables() != 0 {
		t.Fatalf("a fresh meta level holds %+v and %d bytes of index tables", base, tables())
	}
	stay := []*match.Instantiation{inst(0, 3), inst(0, 5)}
	for _, in := range stay {
		imgs[in] = m.enter(in)
	}
	m.sync()
	base, baseImages := m.memStats(), m.bytes
	// The second outranks the first, the first is the best of the group.
	if !imgs[stay[0]].redacted() || !imgs[stay[1]].redacted() {
		t.Fatal("the two that stay start without a witness each")
	}

	const window = 16
	rounds := 100000
	if testing.Short() {
		rounds = 5000
	}
	var live []*match.Instantiation
	maxTables, maxHeld, maxGroups := 0, 0, 0
	for i := 0; i < rounds; i++ {
		// Two to a group, so best-of-group matches; ranks pass the stayers'.
		in := inst(1+i/2, i%9)
		live = append(live, in)
		imgs[in] = m.enter(in)
		if len(live) > window {
			m.leave(imgs[live[0]])
			delete(imgs, live[0])
			mem.Remove(live[0].WMEs[0].Time)
			live = live[1:]
		}
		m.sync()
		maxTables, maxHeld, maxGroups = max(maxTables, tables()), max(maxHeld, m.memStats().AlphaItems), max(maxGroups, len(m.orders[0][0].groups))
		if i%997 == 0 {
			eligible := append(append([]*match.Instantiation(nil), stay...), live...)
			checkMetaLevel(t, m, images(eligible))
			checkWitnesses(t, m, oracle, eligible, imgs)
		}
	}
	// Two indexed memories (outranked joins on nothing), at most window+2
	// buckets each: 64 slots of 24 bytes.
	if maxTables > 2*64*24 {
		t.Fatalf("index tables grew to %d bytes over %d live images", maxTables, window+2)
	}
	// Four memories and one order hold each image.
	if maxHeld > 5*(window+3) || maxGroups > window/2+3 {
		t.Fatalf("the memories and the order grew to %d images and %d groups over %d live ones", maxHeld, maxGroups, window+2)
	}
	for _, in := range live {
		m.leave(imgs[in])
	}
	m.sync()
	checkMetaLevel(t, m, images(stay))
	if ms := m.memStats(); ms.AlphaItems != base.AlphaItems || m.bytes != baseImages {
		t.Fatalf("with the passers-by gone the meta level holds %+v (%d bytes of images), started with %+v (%d)", ms, m.bytes, base, baseImages)
	}
	for _, in := range stay {
		if !imgs[in].redacted() {
			t.Fatalf("%v: not redacted after the churn", in)
		}
	}
	for _, in := range stay {
		m.leave(imgs[in])
	}
	m.sync()
	checkMetaLevel(t, m, nil)
	if ms := m.memStats(); ms != (match.MemStats{}) || tables() != 0 || len(m.orders[0][0].groups) != 0 {
		t.Fatalf("emptied meta level holds %+v, %d bytes of index tables, %d groups", ms, tables(), len(m.orders[0][0].groups))
	}
}

// TestMetaLevelWitnessMemoryFlat keeps one redactor eligible while 10,000
// instantiations it redacts enter and leave one at a time: each is its
// dependent while it is eligible. The meta level's bytes must read the same
// after every departure, and the live heap must not grow with the number
// that have passed — dependents are links the dependents own, not a list
// the redactor keeps.
func TestMetaLevelWitnessMemoryFlat(t *testing.T) {
	prog := compileOK(t, metaLevelRules+`
(metarule lock [<i> (drop ^k 0)] [<j> (take ^a <a>)] --> (redact <j>))`)
	m := newMetaLevel(prog)
	mem := wm.NewMemory(prog.Schema)
	take, drop := prog.Rules[0], prog.Rules[1]
	inst := func(r *compile.Rule, k int) *match.Instantiation {
		w := mem.InsertFields(r.CEs[0].Tmpl, []wm.Value{wm.Int(int64(k)), wm.Int(int64(k)), wm.Int(0)})
		return match.NewInstantiation(r, []*wm.WME{w})
	}
	lock := m.enter(inst(drop, 0))
	m.sync()
	pass := func(i int) {
		in := inst(take, i)
		img := m.enter(in)
		m.sync()
		if !img.redacted() || lock.mb.Dependent() != img.mb {
			t.Fatalf("passer %d: redacted=%v, the lock's dependent is %v", i, img.redacted(), lock.mb.Dependent())
		}
		m.leave(img)
		m.sync()
		mem.Remove(in.WMEs[0].Time)
	}
	pass(0)
	base := m.memStats()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	const passers = 10000
	for i := 1; i <= passers; i++ {
		pass(i)
		if ms := m.memStats(); ms != base {
			t.Fatalf("after %d passers the meta level holds %+v, after one %+v", i, ms, base)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if lock.mb.Dependent() != nil {
		t.Fatalf("with every passer gone the lock keeps dependent %v", lock.mb.Dependent())
	}
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 256<<10 {
		t.Fatalf("the live heap grew by %d bytes over %d passers", grew, passers)
	}
	runtime.KeepAlive(lock)
}

// equalityFreePrograms are one meta-rule with no equality join, as an
// order and, since it reads a tag, as a join-form meta-rule.
var equalityFreePrograms = []struct{ name, src string }{
	{"order", `
(literalize item n)
(rule take (item ^n <n>) --> (remove 1))
(metarule lowest
  [<i> (take ^n <a>)]
  [<j> (take ^n <b>)]
  (test (< <a> <b>))
-->
  (redact <j>))
`},
	{"join", `
(literalize item n)
(rule take (item ^n <n>) --> (remove 1))
(metarule lowest
  [<i> (take ^n <a>)]
  [<j> (take ^n <b>)]
  (test (and (< <a> <b>) (> (tag <i>) 0)))
-->
  (redact <j>))
`},
}

// TestMetaLevelAllocationBudget holds the meta level to what it may
// allocate: a constant per image — the image, its WME and field vector, its
// witness, and its share of the growth of the two memories and the queues,
// or of its group — and nothing per meta-match. Under a meta-rule with no
// equality join n images match n(n-1)/2 tuples, so anything kept or
// allocated per tuple shows as growth in the per-image figure from 64 to
// 256 images; 256 is the instance that cost 8 MB while meta-matches were
// stored.
func TestMetaLevelAllocationBudget(t *testing.T) {
	for _, tc := range equalityFreePrograms {
		t.Run(tc.name, func(t *testing.T) { testMetaLevelAllocationBudget(t, compileOK(t, tc.src)) })
	}
}

func testMetaLevelAllocationBudget(t *testing.T, prog *compile.Program) {
	mem := wm.NewMemory(prog.Schema)
	take := prog.Rules[0]
	order := len(prog.Meta.Orders) > 0
	var pool []*match.Instantiation
	for i := 0; i < 256; i++ {
		w := mem.InsertFields(take.CEs[0].Tmpl, []wm.Value{wm.Int(int64(i))})
		pool = append(pool, match.NewInstantiation(take, []*wm.WME{w}))
	}
	// What enter returns is kept where the engine's table would keep it.
	imgs := make([]*image, len(pool))
	cycle := func(n int) *metaLevel {
		m := newMetaLevel(prog)
		for i, in := range pool[:n] {
			imgs[i] = m.enter(in)
		}
		m.sync()
		redacted := 0
		for _, img := range imgs[:n] {
			if img.redacted() {
				redacted++
			}
		}
		// One witness per image but the lowest, and no other tuple found;
		// or one minimum, the first to enter.
		want := uint64(n - 1)
		if order {
			want = 1
		}
		if got := m.profs[0].insts; got != want || redacted != n-1 {
			t.Fatalf("%d images: %d tuples found or minimum changes and %d redacted, want %d and %d", n, got, redacted, want, n-1)
		}
		return m
	}
	const perImage, bytesPerImage = 6.0, 768
	var prev float64
	for _, n := range []int{64, 128, 256} {
		allocs := testing.AllocsPerRun(5, func() {
			m := cycle(n)
			for _, img := range imgs[:n] {
				m.leave(img)
			}
			m.sync()
		})
		if allocs > perImage*float64(n) {
			t.Errorf("%d images: %.0f allocations, %.1f per image, budget %.1f", n, allocs, allocs/float64(n), perImage)
		}
		if prev > 0 && allocs > 2*prev+16 {
			t.Errorf("%d images allocate %.0f, half as many %.0f: more than linear, something is allocated per meta-match", n, allocs, prev)
		}
		prev = allocs

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m := cycle(n)
		runtime.ReadMemStats(&after)
		if bytes := after.TotalAlloc - before.TotalAlloc; bytes > bytesPerImage*uint64(n) {
			t.Errorf("%d images: %d bytes allocated, %d per image, budget %d", n, bytes, bytes/uint64(n), bytesPerImage)
		}
		// Resident state: every image in both patterns' memories, or once
		// in the order's one group; nothing else anywhere, and the images'
		// bytes.
		want := match.MemStats{AlphaItems: 2 * n, Bytes: m.bytes}
		if order {
			want = match.MemStats{AlphaItems: n, Bytes: m.bytes + m.orders[0][0].bytes()}
		}
		if ms := m.memStats(); ms != want || m.bytes < n*int(unsafe.Sizeof(image{})) {
			t.Errorf("%d images: meta level holds %+v, want %+v and at least %d bytes of images", n, ms, want, n*int(unsafe.Sizeof(image{})))
		}
	}
}

// TestEngineMetaMemStatsLinear is the same bound seen from outside: after a
// cycle on n eligible instantiations under an equality-free meta-rule the
// engine reports at most 2n resident meta-level items — each image in the
// memories of the two patterns, or once in the order — and no tokens or
// stored meta-matches.
func TestEngineMetaMemStatsLinear(t *testing.T) {
	for _, tc := range equalityFreePrograms {
		prog := compileOK(t, tc.src)
		for _, n := range []int{64, 128, 256} {
			e := New(prog, Options{MaxCycles: 4})
			for i := 0; i < n; i++ {
				if _, err := e.Insert("item", map[string]wm.Value{"n": wm.Int(int64(i))}); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := e.Step(); err != nil {
				t.Fatal(err)
			}
			if res := e.CurrentResult(); res.Firings != 1 || res.Redactions != n-1 {
				t.Fatalf("%s n=%d: %+v, want one firing and the rest redacted", tc.name, n, res)
			}
			_, meta := e.MemStats()
			if meta.AlphaItems > 2*n || meta.BetaTokens != 0 || meta.ConflictSet != 0 {
				t.Errorf("%s n=%d: meta level reports %+v, want at most %d images and nothing else", tc.name, n, meta, 2*n)
			}
			var found, probes uint64
			for _, p := range e.RuleProfiles() {
				if p.Rule == "lowest" {
					found, probes = p.Insts, p.Probes
					if p.Tokens != 0 || p.MatchNS <= 0 {
						t.Errorf("%s n=%d: meta row %+v, want no tokens and some match time", tc.name, n, p)
					}
				}
			}
			// One witness for each redacted image, each found in a probe or
			// more; or at least one minimum, and a comparison for each
			// entrant but the first.
			if want := uint64(n - 1); tc.name == "join" && found != want || tc.name == "order" && (found == 0 || found > uint64(n)) || probes < want {
				t.Errorf("%s n=%d: meta row counts %d tuples or minimum changes in %d probes", tc.name, n, found, probes)
			}
		}
	}
}

func TestExplainRedaction(t *testing.T) {
	prog := compileOK(t, `
(literalize item k n)
(rule take (item ^k <k> ^n <n>) --> (halt))
(metarule lowest-in-group
  [<i> (take ^k <k> ^n <a>)]
  [<j> (take ^k <k> ^n <b>)]
  (test (< <a> <b>))
-->
  (redact <j>))
(metarule never-seven
  [<i> (take ^n 7)]
-->
  (redact <i>))
(wm (item ^k 1 ^n 1) (item ^k 1 ^n 2) (item ^k 1 ^n 7) (item ^k 2 ^n 7))
`)
	e := New(prog, Options{MaxCycles: 10})
	if _, err := e.Step(); err != nil {
		t.Fatal(err)
	}
	explain := func(tag int64) string {
		for _, in := range e.ConflictSet() {
			if in.WMEs[0].Time == tag {
				return fmt.Sprint(e.explainRedaction(in))
			}
		}
		t.Fatalf("no instantiation on element %d", tag)
		return ""
	}
	for tag, want := range map[int64]string{
		1: "[]", // fired
		2: "[redacted by lowest-in-group with take [1]]",
		3: "[redacted by lowest-in-group with take [1] (first of 2 matches) redacted by never-seven]",
		4: "[redacted by never-seven]",
	} {
		if got := explain(tag); got != want {
			t.Errorf("instantiation on element %d: %s, want %s", tag, got, want)
		}
	}
}
