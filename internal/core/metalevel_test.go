package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"parulel/internal/compile"
	"parulel/internal/lang"
	"parulel/internal/match"
	"parulel/internal/wm"
)

// checkMetaLevel checks, between syncs, that the meta level's parts agree
// with each other and with images, the images of the eligible
// instantiations as their holder keeps them: every image is in exactly the
// memories whose alpha tests it passes, and as the memories count no more
// members than that, they hold no other; nothing is queued; every witness
// holds eligible images only, and no image a witness names is gone; and the
// redacted counter counts the images with a witness. How a memory links and
// indexes its members, and how a witness is filed among its members'
// dependents, is internal/match/seeded's, and its tests check it.
func checkMetaLevel(t testing.TB, m *metaLevel, images []*image) {
	t.Helper()
	if n := len(m.left) + len(m.entered); n != 0 {
		t.Fatalf("%d images still queued after a sync", n)
	}
	live := make(map[*image]bool, len(images))
	for _, img := range images {
		if live[img] {
			t.Fatalf("image %v is held twice", img.In)
		}
		live[img] = true
	}
	held := 0
	for i := range m.w.Mems {
		held += m.w.Mems[i].N
	}
	redacted, fits := 0, 0
	for _, img := range images {
		if !img.Laid() {
			t.Fatalf("image %v: not laid out for the memories, or laid out no more", img.In)
		}
		if img.Redacted() {
			redacted++
		}
		img.Dependents(func(d *image, _ int) {
			if !live[d] {
				t.Fatalf("image %v: %v, which is not eligible, is still filed as its dependent", img.In, d.In)
			}
		})
		for _, p := range m.patterns(img) {
			fit := p.CE.MatchesAlpha(&img.W)
			if fit != img.Held(p) {
				t.Fatalf("image %v: passes pattern %d's alpha tests = %v, held by its memory = %v", img.In, p.ID, fit, img.Held(p))
			}
			if fit {
				fits++
			}
		}
	}
	if fits != held {
		t.Fatalf("the memories hold %d images, the images fit %d patterns", held, fits)
	}
	if redacted != m.redacted {
		t.Fatalf("%d images have a witness, the meta level counts %d", redacted, m.redacted)
	}
	for img, others := range witnesses(images) {
		if slices.Contains(others, nil) {
			t.Fatalf("image %v: its witness holds an image that is not eligible", img.In)
		}
	}
}

// witnesses returns, for each image of images some image of images is a
// dependent of, the other members of its witness in slot order, read off
// the dependents of each image in images: a place an image outside images
// fills stays nil, unless it is the last.
func witnesses(images []*image) map[*image][]*image {
	out := make(map[*image][]*image)
	for _, x := range images {
		x.Dependents(func(d *image, at int) {
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
// instantiations the oracle confirms redacts it; an image without one is
// one no tuple redacts; explain has an account exactly for the redacted
// ones and, while no meta-rule names a victim twice, counts the tuples the
// oracle does; and the instantiations without a witness are the oracle's
// survivors. imgs holds what enter returned for each eligible
// instantiation. It returns how many tuples redact an image, counted once
// per image a tuple redacts.
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
	for _, in := range eligible {
		img := imgs[in]
		if img == nil || img.In != in {
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
		if !img.Redacted() {
			got = append(got, in)
			if want[in.Key()] != 0 {
				t.Fatalf("%v: no witness, but %d tuples redact it", in, want[in.Key()])
			}
			continue
		}
		others := make([]*match.Instantiation, len(wits[img]))
		for i, x := range wits[img] {
			if x == nil {
				t.Fatalf("%v: its witness holds an instantiation that is not eligible", in)
			}
			others[i] = x.In
		}
		if !witnessRedacts(oracle, m.rules, others, in) {
			t.Fatalf("%v: no meta-rule redacts it by a tuple of it and %v, its witness", in, others)
		}
	}
	keep, _, n := oracle.run(eligible)
	if m.redacted != n || !sameInstantiations(got, keep) {
		t.Fatalf("survivors %v (%d redacted), oracle keeps %v (%d)", got, m.redacted, keep, n)
	}
	return tuples
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
// eligible. It returns how many tuples the recounts found.
func driveMetaLevel(t *testing.T, src string, seed int64, rounds int) (tuples int) {
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
	var pool []*match.Instantiation
	for _, r := range prog.Rules {
		if prog.Meta.Images[r.Index] == nil {
			continue
		}
		for i := 0; i < 9; i++ {
			fields := []wm.Value{wm.Int(int64(rng.Intn(3))), wm.Int(int64(rng.Intn(3))), wm.Int(int64(rng.Intn(3)))}
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

// TestMetaLevelKillCounts is the model-based test of the lazy meta level:
// the model is the oracle joiner's count from scratch of the tuples that
// redact each image, against which every witness is checked.
func TestMetaLevelKillCounts(t *testing.T) {
	for i, tc := range metaLevelCases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				if driveMetaLevel(t, metaLevelRules+tc.metas, seed+int64(10*i), 60) == 0 {
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
			if driveMetaLevel(t, src, seed, 25) > 0 {
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
// instantiation entering and an old one leaving, over join keys that never
// repeat, beside two images that stay and are redacted by whatever passes.
// Memories, index tables and witnesses must come back to where they started
// and no image may outlive its instantiation.
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
	if !imgs[stay[0]].Redacted() || !imgs[stay[1]].Redacted() {
		t.Fatal("the two that stay start without a witness each")
	}

	const window = 16
	rounds := 100000
	if testing.Short() {
		rounds = 5000
	}
	var live []*match.Instantiation
	maxTables, maxHeld := 0, 0
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
		maxTables, maxHeld = max(maxTables, tables()), max(maxHeld, m.memStats().AlphaItems)
		if i%997 == 0 {
			eligible := append(append([]*match.Instantiation(nil), stay...), live...)
			checkMetaLevel(t, m, images(eligible))
			checkWitnesses(t, m, oracle, eligible, imgs)
		}
	}
	// Three indexed memories (outranked joins on nothing), at most window+2
	// buckets each: 64 slots of 24 bytes.
	if maxTables > 3*64*24 {
		t.Fatalf("index tables grew to %d bytes over %d live images", maxTables, window+2)
	}
	if maxHeld > 4*(window+3) {
		t.Fatalf("the memories grew to %d images over %d live ones", maxHeld, window+2)
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
		if !imgs[in].Redacted() {
			t.Fatalf("%v: no witness after the churn", in)
		}
	}
	for _, in := range stay {
		m.leave(imgs[in])
	}
	m.sync()
	checkMetaLevel(t, m, nil)
	if ms := m.memStats(); ms != (match.MemStats{}) || tables() != 0 || m.redacted != 0 {
		t.Fatalf("emptied meta level holds %+v, %d bytes of index tables, %d redacted", ms, tables(), m.redacted)
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
		if !img.Redacted() || lock.Dependent() != img {
			t.Fatalf("passer %d: redacted=%v, the lock's dependent is %v", i, img.Redacted(), lock.Dependent())
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
	if lock.Dependent() != nil || m.redacted != 0 {
		t.Fatalf("with every passer gone the lock keeps dependent %v and %d images are redacted", lock.Dependent(), m.redacted)
	}
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 256<<10 {
		t.Fatalf("the live heap grew by %d bytes over %d passers", grew, passers)
	}
	runtime.KeepAlive(lock)
}

const equalityFreeProgram = `
(literalize item n)
(rule take (item ^n <n>) --> (remove 1))
(metarule lowest
  [<i> (take ^n <a>)]
  [<j> (take ^n <b>)]
  (test (< <a> <b>))
-->
  (redact <j>))
`

// TestMetaLevelAllocationBudget holds the meta level to what it may
// allocate: a constant per image — the image, its WME and field vector, its
// witness, and its share of the growth of the two memories and the queues
// — and nothing per meta-match. Under a meta-rule with no equality join n
// images match n(n-1)/2 tuples, so anything kept or allocated per tuple
// shows as growth in the per-image figure from 64 to 256 images; 256 is the
// instance that cost 8 MB while meta-matches were stored.
func TestMetaLevelAllocationBudget(t *testing.T) {
	prog := compileOK(t, equalityFreeProgram)
	mem := wm.NewMemory(prog.Schema)
	take := prog.Rules[0]
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
		// One witness per image but the lowest, and no other tuple found.
		if got := m.profs[0].insts; got != uint64(n-1) || m.redacted != n-1 {
			t.Fatalf("%d images: %d tuples found and %d redacted, want %d and %d", n, got, m.redacted, n-1, n-1)
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
		// Resident state: every image in both patterns' memories, nothing
		// else anywhere, and the images' bytes.
		if ms := m.memStats(); ms != (match.MemStats{AlphaItems: 2 * n, Bytes: m.bytes}) || m.bytes < n*int(unsafe.Sizeof(image{})) {
			t.Errorf("%d images: meta level holds %+v, want %d memory entries, at least %d bytes and nothing else", n, ms, 2*n, n*int(unsafe.Sizeof(image{})))
		}
	}
}

// TestEngineMetaMemStatsLinear is the same bound seen from outside: after a
// cycle on n eligible instantiations under an equality-free meta-rule the
// engine reports at most 2n resident meta-level items — each image in the
// memories of the two patterns — and no tokens or stored meta-matches.
func TestEngineMetaMemStatsLinear(t *testing.T) {
	prog := compileOK(t, equalityFreeProgram)
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
			t.Fatalf("n=%d: %+v, want one firing and the rest redacted", n, res)
		}
		_, meta := e.MemStats()
		if meta.AlphaItems > 2*n || meta.BetaTokens != 0 || meta.ConflictSet != 0 {
			t.Errorf("n=%d: meta level reports %+v, want at most %d images and nothing else", n, meta, 2*n)
		}
		var found, probes uint64
		for _, p := range e.RuleProfiles() {
			if p.Rule == "lowest" {
				found, probes = p.Insts, p.Probes
				if p.Tokens != 0 || p.MatchNS <= 0 {
					t.Errorf("n=%d: meta row %+v, want no tokens and some match time", n, p)
				}
			}
		}
		// One witness for each redacted image, each found in a probe or more.
		if want := uint64(n - 1); found != want || probes < want {
			t.Errorf("n=%d: meta row counts %d tuples in %d probes, want %d tuples", n, found, probes, want)
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
