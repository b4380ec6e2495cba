package checkpoint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math/rand"
	"strings"
	"testing"

	"parulel/internal/compile"
	"parulel/internal/core"
	"parulel/internal/snapshot"
	"parulel/internal/wm"
)

const src = `
(literalize job  n state)
(literalize done n)
(rule start
  <j> <- (job ^n <n> ^state ready)
-->
  (modify <j> ^state running)
  (make done ^n <n>))
(rule observe
  (job ^n <n> ^state running)
-->
  (make done ^n (+ <n> 100)))
`

func buildEngine(t testing.TB, jobs int) *core.Engine {
	t.Helper()
	prog, err := compile.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	e := core.New(prog, core.Options{})
	for i := 0; i < jobs; i++ {
		if _, err := e.Insert("job", map[string]wm.Value{"n": wm.Int(int64(i)), "state": wm.Sym("ready")}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestWriteReadRestoreRoundTrip(t *testing.T) {
	e := buildEngine(t, 5)
	h := Header{
		Seq: 42, Program: "test", Source: src, Workers: 2, Matcher: "rete",
		MaxCycles: 1000, Runs: 3, Counters: e.Counters(), Fired: e.FiredKeys(),
	}
	var buf bytes.Buffer
	if err := Write(&buf, h, e.Memory()); err != nil {
		t.Fatal(err)
	}

	h2, facts, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if h2.Seq != 42 || h2.Program != "test" || h2.Runs != 3 || h2.Counters != e.Counters() {
		t.Fatalf("header mismatch: %+v", h2)
	}
	if len(facts) != e.Memory().Len() || len(h2.Tags) != len(facts) {
		t.Fatalf("got %d facts / %d tags, want %d", len(facts), len(h2.Tags), e.Memory().Len())
	}
	if len(h2.Fired) == 0 {
		t.Fatal("no refraction keys captured")
	}

	prog, err := compile.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	restored := core.New(prog, core.Options{NoInitialFacts: true})
	if err := Restore(restored, h2, facts); err != nil {
		t.Fatal(err)
	}
	// Byte-identical snapshots (same facts, same tag order, same values).
	var a, b bytes.Buffer
	if err := snapshot.Write(&a, e.Memory()); err != nil {
		t.Fatal(err)
	}
	if err := snapshot.Write(&b, restored.Memory()); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("snapshots differ:\n%s\nvs\n%s", a.String(), b.String())
	}
	// The restored engine is quiescent: every surviving instantiation
	// already fired before the checkpoint.
	res, err := restored.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != e.Counters().Cycles || res.Firings != e.Counters().Firings {
		t.Fatalf("restored engine did extra work: %+v vs %+v", res, e.Counters())
	}
}

// TestArbitraryStringsSurviveCheckpoint: a checkpoint of a working memory
// holding any byte string reads back, and restores to, Equal values — a
// string the body's writer escaped and its reader could not read used to
// make the session's next checkpoint unreadable.
func TestArbitraryStringsSurviveCheckpoint(t *testing.T) {
	const noteSrc = "(literalize note text)"
	strs := []string{"a\rb", "bell\a", "nul\x00", "u\u2028x", "\xff\xfe", "\u2029\U000e0001", "plain"}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		s := make([]byte, rng.Intn(10))
		rng.Read(s)
		strs = append(strs, string(s))
	}
	prog, err := compile.CompileSource(noteSrc)
	if err != nil {
		t.Fatal(err)
	}
	e := core.New(prog, core.Options{})
	for _, s := range strs {
		if _, err := e.Insert("note", map[string]wm.Value{"text": wm.Str(s)}); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := Write(&buf, Header{Program: "p", Source: noteSrc}, e.Memory()); err != nil {
		t.Fatal(err)
	}
	h, facts, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	restored := core.New(prog, core.Options{NoInitialFacts: true})
	if err := Restore(restored, h, facts); err != nil {
		t.Fatal(err)
	}
	got := restored.Memory().Snapshot()
	if len(got) != len(strs) {
		t.Fatalf("%d facts restored, checkpointed %d", len(got), len(strs))
	}
	for i, s := range strs {
		if !got[i].Fields[0].Equal(wm.Str(s)) {
			t.Errorf("string %q restored as %v", s, got[i].Fields[0])
		}
	}
}

func TestReadRejectsCorruption(t *testing.T) {
	e := buildEngine(t, 3)
	var buf bytes.Buffer
	if err := Write(&buf, Header{Program: "p", Source: src}, e.Memory()); err != nil {
		t.Fatal(err)
	}
	good := buf.String()

	cases := map[string]string{
		"empty":          "",
		"bad magic":      "not-a-checkpoint v1 1 2\nxx",
		"bad version":    strings.Replace(good, " v1 ", " v9 ", 1),
		"flipped byte":   good[:len(good)-5] + string(good[len(good)-5]^0x20) + good[len(good)-4:],
		"truncated body": good[:len(good)/2],
		"missing header": "parulel-checkpoint v1 0 0\n",
	}
	for name, data := range cases {
		if _, _, err := Read(strings.NewReader(data)); err == nil {
			t.Errorf("%s: corrupt checkpoint accepted", name)
		}
	}
}

func TestReadRejectsTagMismatch(t *testing.T) {
	e := buildEngine(t, 2)
	h := Header{Program: "p", Source: src, Counters: e.Counters()}
	var buf bytes.Buffer
	if err := Write(&buf, h, e.Memory()); err != nil {
		t.Fatal(err)
	}
	// Re-frame a body whose header claims one tag too many.
	full := buf.String()
	nl := strings.IndexByte(full, '\n')
	body := full[nl+1:]
	bodyNL := strings.IndexByte(body, '\n')
	var h2 Header
	hdr := body[:bodyNL]
	if err := jsonUnmarshal(hdr, &h2); err != nil {
		t.Fatal(err)
	}
	h2.Tags = append(h2.Tags, 999)
	reframed := reframe(t, h2, body[bodyNL+1:])
	if _, _, err := Read(strings.NewReader(reframed)); err == nil {
		t.Fatal("tag/fact count mismatch accepted")
	}
}

func jsonUnmarshal(s string, v any) error { return json.Unmarshal([]byte(s), v) }

// reframe rebuilds a validly framed checkpoint around a doctored header,
// so Read's consistency checks (not its checksum) are what reject it.
func reframe(t *testing.T, h Header, wmBody string) string {
	t.Helper()
	hdr, err := json.Marshal(&h)
	if err != nil {
		t.Fatal(err)
	}
	body := string(hdr) + "\n" + wmBody
	return fmt.Sprintf("parulel-checkpoint v1 %d %d\n%s", crc32.ChecksumIEEE([]byte(body)), len(body), body)
}
