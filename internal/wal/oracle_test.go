package wal

// The test oracle for codec.go: the Record structs and the map-based
// value conversions exactly as they stood when the log was written by
// json.Marshal and read by json.Unmarshal (through PR 17). Production
// code no longer has them; every log on disk was written by them, so the
// codec is held to them byte for byte.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
	"unicode/utf8"

	"parulel/internal/wm"
)

type oracleRecord struct {
	Seq uint64 `json:"seq"`
	Op  string `json:"op"`

	Program   string `json:"program,omitempty"`
	Source    string `json:"source,omitempty"`
	Workers   int    `json:"workers,omitempty"`
	Matcher   string `json:"matcher,omitempty"`
	MaxCycles int    `json:"max_cycles,omitempty"`
	CreatedNS int64  `json:"created_ns,omitempty"`

	Facts []oracleFact `json:"facts,omitempty"`

	Template string                 `json:"template,omitempty"`
	Fields   map[string]oracleValue `json:"fields,omitempty"`
	Count    int                    `json:"count,omitempty"`

	Cycles int  `json:"cycles,omitempty"`
	Halted bool `json:"halted,omitempty"`

	Text string `json:"text,omitempty"`

	Ops []oracleRecord `json:"ops,omitempty"`

	Tick int64 `json:"tick,omitempty"`

	Job       string `json:"job,omitempty"`
	JobStatus string `json:"job_status,omitempty"`
}

type oracleFact struct {
	Template string                 `json:"template"`
	Fields   map[string]oracleValue `json:"fields,omitempty"`
	TTL      int64                  `json:"ttl,omitempty"`
}

type oracleValue struct {
	K string `json:"k"`           // "n" nil, "i" int, "f" float, "s" symbol, "t" string
	I int64  `json:"i,omitempty"` // KindInt payload
	F string `json:"f,omitempty"` // KindFloat payload: Float64bits, decimal
	S string `json:"s,omitempty"` // KindSym / KindStr payload
}

func oracleEncodeValue(v wm.Value) oracleValue {
	switch v.Kind {
	case wm.KindInt:
		return oracleValue{K: "i", I: v.I}
	case wm.KindFloat:
		return oracleValue{K: "f", F: strconv.FormatUint(math.Float64bits(v.F), 10)}
	case wm.KindSym:
		return oracleValue{K: "s", S: v.S}
	case wm.KindStr:
		return oracleValue{K: "t", S: v.S}
	default:
		return oracleValue{K: "n"}
	}
}

func oracleDecodeValue(v oracleValue) (wm.Value, error) {
	switch v.K {
	case "n":
		return wm.Nil(), nil
	case "i":
		return wm.Int(v.I), nil
	case "f":
		bits, err := strconv.ParseUint(v.F, 10, 64)
		if err != nil {
			return wm.Value{}, fmt.Errorf("wal: bad float bits %q: %w", v.F, err)
		}
		return wm.Float(math.Float64frombits(bits)), nil
	case "s":
		return wm.Sym(v.S), nil
	case "t":
		return wm.Str(v.S), nil
	default:
		return wm.Value{}, fmt.Errorf("wal: unknown value kind %q", v.K)
	}
}

func oracleEncodeFields(fs Fields) map[string]oracleValue {
	if fs == nil {
		return nil
	}
	out := make(map[string]oracleValue, len(fs))
	for _, f := range fs {
		out[f.Name] = oracleEncodeValue(f.Value)
	}
	return out
}

func oracleDecodeFields(m map[string]oracleValue) (Fields, error) {
	var run []Field
	for k, v := range m {
		dv, err := oracleDecodeValue(v)
		if err != nil {
			return nil, fmt.Errorf("wal: field %s: %w", k, err)
		}
		run = append(run, Field{Name: k, Value: dv})
	}
	return Canonical(run), nil
}

func toOracle(r *Record) oracleRecord {
	o := oracleRecord{
		Seq: r.Seq, Op: r.Op, Program: r.Program, Source: r.Source, Workers: r.Workers,
		Matcher: r.Matcher, MaxCycles: r.MaxCycles, CreatedNS: r.CreatedNS,
		Template: r.Template, Fields: oracleEncodeFields(r.Fields), Count: r.Count,
		Cycles: r.Cycles, Halted: r.Halted, Text: r.Text, Tick: r.Tick,
		Job: r.Job, JobStatus: r.JobStatus,
	}
	for _, f := range r.Facts {
		o.Facts = append(o.Facts, oracleFact{Template: f.Template, Fields: oracleEncodeFields(f.Fields), TTL: f.TTL})
	}
	for i := range r.Ops {
		o.Ops = append(o.Ops, toOracle(&r.Ops[i]))
	}
	return o
}

func fromOracle(o *oracleRecord) (Record, error) {
	r := Record{
		Seq: o.Seq, Op: o.Op, Program: o.Program, Source: o.Source, Workers: o.Workers,
		Matcher: o.Matcher, MaxCycles: o.MaxCycles, CreatedNS: o.CreatedNS,
		Template: o.Template, Count: o.Count, Cycles: o.Cycles, Halted: o.Halted,
		Text: o.Text, Tick: o.Tick, Job: o.Job, JobStatus: o.JobStatus,
	}
	var err error
	if r.Fields, err = oracleDecodeFields(o.Fields); err != nil {
		return r, err
	}
	for _, f := range o.Facts {
		fs, err := oracleDecodeFields(f.Fields)
		if err != nil {
			return r, err
		}
		r.Facts = append(r.Facts, Fact{Template: f.Template, Fields: fs, TTL: f.TTL})
	}
	for i := range o.Ops {
		op, err := fromOracle(&o.Ops[i])
		if err != nil {
			return r, err
		}
		r.Ops = append(r.Ops, op)
	}
	return r, nil
}

func oracleMarshal(t testing.TB, r *Record) []byte {
	t.Helper()
	b, err := json.Marshal(toOracle(r))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// normalized rewrites r so reflect.DeepEqual compares what the log
// means: floats by bit pattern (NaN equals itself, -0 differs from +0)
// and an empty list like an absent one.
func normalized(r Record) Record {
	fields := func(fs Fields) Fields {
		if len(fs) == 0 {
			return nil
		}
		out := make(Fields, len(fs))
		for i, f := range fs {
			if f.Value.Kind == wm.KindFloat {
				f.Value.I, f.Value.F = int64(math.Float64bits(f.Value.F)), 0
			}
			out[i] = f
		}
		return out
	}
	r.Fields = fields(r.Fields)
	var facts []Fact
	for _, f := range r.Facts {
		f.Fields = fields(f.Fields)
		facts = append(facts, f)
	}
	r.Facts = facts
	var ops []Record
	for _, op := range r.Ops {
		ops = append(ops, normalized(op))
	}
	r.Ops = ops
	return r
}

func decodePayload(payload []byte) (Record, error) {
	var rec Record
	var d decoder
	err := d.decode(payload, &rec)
	return rec, err
}

// genRecords builds one record of every op from the fuzz inputs: text is
// cut into the strings, n and fl join the edge numbers.
func genRecords(rng *rand.Rand, text string, n int64, fl float64) []Record {
	strs := []string{
		"", "x", "state", "a<b>&c", "line\u2028sep\u2029", "quote\"back\\slash/", "\x00\x01\x1f\x7f\b\f\n\r\t",
		"h\u00e9llo w\u00f6rld \u2713 \U0001F642", "(literalize a x)\n(rule r\n  (a ^x <v>)\n-->\n  (halt))\n", text,
	}
	for len(text) > 0 {
		cut := 1 + rng.Intn(len(text))
		strs = append(strs, text[:cut])
		text = text[cut:]
		if len(strs) > 24 {
			break
		}
	}
	str := func() string { return strs[rng.Intn(len(strs))] }
	vals := []wm.Value{
		wm.Nil(), wm.Int(0), wm.Int(n), wm.Int(math.MinInt64), wm.Int(math.MaxInt64),
		wm.Float(0), wm.Float(math.Copysign(0, -1)), wm.Float(math.NaN()), wm.Float(math.Inf(1)),
		wm.Float(math.Inf(-1)), wm.Float(fl), wm.Sym(""), wm.Str(""),
	}
	value := func() wm.Value {
		switch k := rng.Intn(len(vals) + 2); k {
		case len(vals):
			return wm.Sym(str())
		case len(vals) + 1:
			return wm.Str(str())
		default:
			return vals[k]
		}
	}
	fields := func() Fields {
		var run []Field
		for i, k := 0, rng.Intn(6); i < k; i++ {
			run = append(run, Field{Name: str(), Value: value()})
		}
		return Canonical(run)
	}
	facts := func() []Fact {
		var out []Fact
		for i, k := 0, 1+rng.Intn(4); i < k; i++ {
			f := Fact{Template: str(), Fields: fields()}
			if rng.Intn(3) == 0 {
				f.TTL = n
			}
			out = append(out, f)
		}
		return out
	}
	flat := []Record{
		{Op: OpCreate, Program: str(), Source: str(), Workers: rng.Intn(9), Matcher: str(), MaxCycles: int(n), CreatedNS: n},
		{Op: OpAssert, Facts: facts()},
		{Op: OpRetract, Template: str(), Fields: fields(), Count: rng.Intn(5)},
		{Op: OpRun, Cycles: rng.Intn(100), Halted: rng.Intn(2) == 0},
		{Op: OpImport, Text: str(), Count: rng.Intn(5)},
		{Op: OpTick, Tick: n, Count: rng.Intn(3)},
		{Op: OpJob, Job: str(), JobStatus: str()},
		{Op: str()}, // whatever else a future op would carry, at least it round-trips
	}
	batch := Record{Op: OpBatch, Ops: append([]Record(nil), flat...)}
	batch.Ops = append(batch.Ops, Record{Op: OpBatch, Ops: []Record{{Op: OpAssert, Facts: facts()}}})
	out := append(flat, batch)
	for i := range out {
		out[i].Seq = uint64(i)*uint64(rng.Intn(1000)) + uint64(rng.Intn(2))
	}
	return out
}

func allValidUTF8(r *Record) bool {
	ok := utf8.ValidString(r.Op) && utf8.ValidString(r.Program) && utf8.ValidString(r.Source) &&
		utf8.ValidString(r.Matcher) && utf8.ValidString(r.Template) && utf8.ValidString(r.Text) &&
		utf8.ValidString(r.Job) && utf8.ValidString(r.JobStatus)
	fields := func(fs Fields) {
		for _, f := range fs {
			ok = ok && utf8.ValidString(f.Name) && utf8.ValidString(f.Value.S)
		}
	}
	fields(r.Fields)
	for _, f := range r.Facts {
		ok = ok && utf8.ValidString(f.Template)
		fields(f.Fields)
	}
	for i := range r.Ops {
		ok = ok && allValidUTF8(&r.Ops[i])
	}
	return ok
}

// checkCanonical holds one record to the oracle in both directions.
func checkCanonical(t *testing.T, r *Record) {
	t.Helper()
	want := oracleMarshal(t, r)
	if got := r.AppendJSON(nil); !bytes.Equal(got, want) {
		t.Fatalf("AppendJSON differs from the oracle's json.Marshal\n got %s\nwant %s", got, want)
	}
	// encoding/json over the production struct (the benchmark harness and
	// the cluster's state transfer do this) must stay canonical too.
	if got, err := json.Marshal(r); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("json.Marshal(Record) differs from the oracle (err %v)\n got %s\nwant %s", err, got, want)
	}

	back, err := decodePayload(want)
	if err != nil {
		t.Fatalf("decoding an oracle-written payload: %v\n%s", err, want)
	}
	var ob oracleRecord
	if err := json.Unmarshal(want, &ob); err != nil {
		t.Fatal(err)
	}
	viaOracle, err := fromOracle(&ob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(normalized(back), normalized(viaOracle)) {
		t.Fatalf("decoder and oracle disagree on %s\n got %+v\nwant %+v", want, back, viaOracle)
	}
	var viaStd Record
	if err := json.Unmarshal(want, &viaStd); err != nil || !reflect.DeepEqual(normalized(viaStd), normalized(back)) {
		t.Fatalf("json.Unmarshal(Record) disagrees with the decoder on %s (err %v)\n got %+v\nwant %+v", want, err, viaStd, back)
	}
	// Invalid UTF-8 is written as the text \ufffd and reads back as U+FFFD, under
	// the oracle as here; everything else must survive exactly.
	if allValidUTF8(r) {
		if !reflect.DeepEqual(normalized(back), normalized(*r)) {
			t.Fatalf("decode-after-encode is not the identity\n got %+v\nwant %+v", back, *r)
		}
		if again := back.AppendJSON(nil); !bytes.Equal(again, want) {
			t.Fatalf("re-encoding a decoded payload does not reproduce it\n got %s\nwant %s", again, want)
		}
	}
}

func FuzzRecordCanonical(f *testing.F) {
	f.Add(int64(1), "", int64(0), 0.0)
	f.Add(int64(2), "state<idle>&more\u2028", int64(-1), math.Copysign(0, -1))
	f.Add(int64(3), "caf\xc3\xa9 \xff\xfe bad utf8 \xc3", int64(math.MaxInt64), math.NaN())
	f.Add(int64(4), "\\u0041 \"quoted\" \x00\x1b", int64(math.MinInt64), math.Inf(-1))
	f.Add(int64(5), "(literalize edge p1 p2)\n(rule r (edge ^p1 <a>) --> (remove 1))\n", int64(86400), 1e-320)
	f.Fuzz(func(t *testing.T, seed int64, text string, n int64, fl float64) {
		recs := genRecords(rand.New(rand.NewSource(seed)), text, n, fl)
		for i := range recs {
			checkCanonical(t, &recs[i])
		}
	})
}

// TestDecoderRejects pins what ends a scan's valid prefix besides a bad
// checksum: payloads the encoder cannot have written.
func TestDecoderRejects(t *testing.T) {
	for _, payload := range []string{
		``, `null`, `[]`, `{"seq":1,"op":"run"} x`, `{"seq":1,"op":"run",}`, `{"seq":-1,"op":"run"}`,
		`{"seq":1.0,"op":"run"}`, `{"seq":1,"op":null}`, `{"seq":1,"op":"run","bogus":1}`,
		`{"seq":1,"op":"run","cycles":"3"}`, `{"seq":1,"op":"run","halted":1}`,
		`{"seq":1,"op":"assert","facts":[{"template":"a","fields":{"x":{"k":"bogus"}}}]}`,
		`{"seq":1,"op":"assert","facts":[{"template":"a","fields":{"x":{"k":"f"}}}]}`,
		`{"seq":1,"op":"assert","facts":[{"template":"a","fields":{"x":{"k":"f","f":"1e3"}}}]}`,
		`{"seq":1,"op":"assert","facts":[{"template":"a","fields":{"x":{}}}]}`,
		`{"seq":1,"op":"assert","facts":[{"template":"a","fields":{"x":7}}]}`,
		`{"seq":1,"op":"assert","facts":[{"template":"a","extra":1}]}`,
		`{"seq":1,"op":"assert","facts":{}}`, `{"seq":1,"op":"a\x01b"}`, `{"seq":1,"op":"a\qb"}`,
	} {
		if rec, err := decodePayload([]byte(payload)); err == nil {
			t.Errorf("decoded %q into %+v, want an error", payload, rec)
		}
	}
	deep := bytes.Repeat([]byte(`{"op":"batch","ops":[`), maxOpsDepth+2)
	if _, err := decodePayload(deep); err == nil {
		t.Error("unbounded ops nesting decoded")
	}
	// Key order and whitespace are free; a repeated member's last value wins.
	rec, err := decodePayload([]byte(" {\n\"op\" : \"retract\" , \"fields\":{\"b\":{\"i\":2,\"k\":\"i\"},\"a\":{\"k\":\"n\"},\"b\":{\"k\":\"s\",\"s\":\"z\"}},\"seq\":9,\"seq\":10 }\t"))
	want := Record{Seq: 10, Op: OpRetract, Fields: Fields{{"a", wm.Nil()}, {"b", wm.Sym("z")}}}
	if err != nil || !reflect.DeepEqual(rec, want) {
		t.Errorf("reordered payload decoded to %+v, %v; want %+v", rec, err, want)
	}
}

// writeOracleLog writes recs (sequence numbers assigned from 1) the way
// the parent commit's Log did: json.Marshal of the oracle struct behind
// an 8-byte frame header. It returns the payloads.
func writeOracleLog(t *testing.T, path string, recs []Record) [][]byte {
	t.Helper()
	var file []byte
	var payloads [][]byte
	for i := range recs {
		recs[i].Seq = uint64(i + 1)
		payload := oracleMarshal(t, &recs[i])
		var hdr [frameHeader]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
		file = append(append(file, hdr[:]...), payload...)
		payloads = append(payloads, payload)
	}
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
	return payloads
}

// TestOracleWrittenLogVerifies is the on-disk compatibility contract: a
// log and Merkle ledger produced with the oracle encoder scan, reconcile
// and hash identically under the codec, and appending the same history
// through a Log yields the same file and the same Merkle root.
func TestOracleWrittenLogVerifies(t *testing.T) {
	dir := t.TempDir()
	recs := genRecords(rand.New(rand.NewSource(7)), "pool ^id 3 <&> tail", 42, -2.5)
	for i := range recs {
		// Invalid UTF-8 does not survive a decode under either codec.
		if !allValidUTF8(&recs[i]) {
			t.Fatalf("generator produced invalid UTF-8 in record %d", i)
		}
	}
	oraclePath := filepath.Join(dir, "oracle.log")
	payloads := writeOracleLog(t, oraclePath, recs)
	oracleLed, err := OpenLedger(filepath.Join(dir, "oracle.merkle"))
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range payloads {
		oracleLed.observe(uint64(i+1), p)
	}
	if err := oracleLed.SyncAll(); err != nil {
		t.Fatal(err)
	}
	oracleState, err := oracleLed.State()
	if err != nil {
		t.Fatal(err)
	}
	oracleLed.Close()

	// Recovery's view: scan, then reconcile every frame against the ledger.
	res, err := ScanFile(oraclePath)
	if err != nil || res.TruncatedBytes != 0 || len(res.Records) != len(recs) {
		t.Fatalf("scan of the oracle-written log: %d/%d records, %d bytes dropped, err %v",
			len(res.Records), len(recs), res.TruncatedBytes, err)
	}
	led, err := OpenLedger(filepath.Join(dir, "oracle.merkle"))
	if err != nil {
		t.Fatal(err)
	}
	defer led.Close()
	if err := led.Reconcile(res.Records, 0, nil); err != nil {
		t.Fatalf("reconciling the oracle-written log: %v", err)
	}
	for i := range res.Records {
		h := LeafHash(uint64(i+1), payloads[i])
		if got := RecordLeafHex(&res.Records[i]); got != fmt.Sprintf("%x", h) {
			t.Fatalf("record %d: audit leaf %s, oracle payload hashes to %x", i+1, got, h)
		}
	}

	// The same history appended through the Log: same bytes, same root.
	newPath := filepath.Join(dir, "new.log")
	l, _, err := Open(newPath, Options{Policy: PolicyNever})
	if err != nil {
		t.Fatal(err)
	}
	newLed, err := OpenLedger(filepath.Join(dir, "new.merkle"))
	if err != nil {
		t.Fatal(err)
	}
	defer newLed.Close()
	l.SetLedger(newLed)
	for i := range recs {
		rec := recs[i]
		if err := l.Append(&rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	oracleBytes, _ := os.ReadFile(oraclePath)
	newBytes, _ := os.ReadFile(newPath)
	if !bytes.Equal(oracleBytes, newBytes) {
		t.Fatal("the Log's file differs from the oracle-written one")
	}
	if err := newLed.SyncAll(); err != nil {
		t.Fatal(err)
	}
	newState, err := newLed.State()
	if err != nil {
		t.Fatal(err)
	}
	if newState.Root != oracleState.Root || newState.Count != oracleState.Count {
		t.Fatalf("merkle root over the same history: codec %s (%d), oracle %s (%d)",
			newState.Root, newState.Count, oracleState.Root, oracleState.Count)
	}
}

// waltzRecord is a batch record shaped like waltz_run's: 256 facts of a
// few small integer and symbol fields, about 23 KB encoded.
func waltzRecord() Record {
	facts := make([]Fact, 256)
	for i := range facts {
		facts[i] = Fact{Template: "line", Fields: Fields{
			{"id", wm.Int(int64(i))}, {"label", wm.Sym("unknown")},
			{"p1", wm.Int(int64(10000 + i))}, {"p2", wm.Int(int64(20000 + i*7))},
		}}
	}
	return Record{Op: OpBatch, Ops: []Record{{Op: OpAssert, Facts: facts}}}
}

// BenchmarkRecordAppend times the encode half of an append on its own
// (codec, against the oracle's reflective json.Marshal) and a whole
// append into a log file.
func BenchmarkRecordAppend(b *testing.B) {
	rec := waltzRecord()
	small := Record{Op: OpAssert, Facts: rec.Ops[0].Facts[:1]}
	b.Run("encode/waltz", func(b *testing.B) {
		var buf []byte
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = rec.AppendJSON(buf[:0])
		}
		b.SetBytes(int64(len(buf)))
	})
	b.Run("encode-oracle/waltz", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			o := toOracle(&rec)
			buf, err := json.Marshal(&o)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(buf)))
		}
	})
	for _, c := range []struct {
		name string
		rec  *Record
	}{{"waltz", &rec}, {"one-fact", &small}} {
		b.Run("log/"+c.name, func(b *testing.B) {
			l, _, err := Open(filepath.Join(b.TempDir(), "wal.log"), Options{Policy: PolicyNever})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := *c.rec
				if err := l.Append(&r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("scan/waltz", func(b *testing.B) {
		path := filepath.Join(b.TempDir(), "wal.log")
		l, _, err := Open(path, Options{Policy: PolicyNever})
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			r := rec
			if err := l.Append(&r); err != nil {
				b.Fatal(err)
			}
		}
		l.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := ScanFile(path)
			if err != nil || len(res.Records) != 8 {
				b.Fatalf("scan: %d records, %v", len(res.Records), err)
			}
		}
	})
}
