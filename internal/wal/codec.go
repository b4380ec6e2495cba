package wal

// This file is the log's payload codec: AppendJSON writes a record, the
// decoder reads one back, neither through reflection or a map.
//
// The encoding is canonical and that is load-bearing. A Merkle leaf is
// SHA-256 over a frame's payload bytes, and everything that later checks
// a frame against its leaf — Reconcile at recovery, RecordLeafHex for
// the offline audit — holds a decoded Record, not the bytes, so it
// re-encodes and compares. AppendJSON must therefore write, byte for
// byte, what json.Marshal writes for the Record struct in record.go
// with each value in the form
//
//	{"k":"n"}  {"k":"i","i":7}  {"k":"f","f":"<Float64bits, decimal>"}
//	{"k":"s","s":"sym"}  {"k":"t","s":"string"}
//
// — object keys in the order declared, zero-valued members elided (so
// int 0 is {"k":"i"} and the empty symbol {"k":"s"}), attribute names
// ascending, strings escaped as encoding/json escapes them, floats as
// bit patterns so NaN, ±Inf and -0.0 survive — for every log already on
// disk to keep verifying. The oracle in oracle_test.go is that struct
// encoding, and FuzzRecordCanonical holds the two together.

import (
	"errors"
	"fmt"
	"math"
	"strconv"

	"parulel/internal/jsonlex"
	"parulel/internal/wm"
)

// AppendJSON appends the record's canonical payload to dst.
func (r *Record) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendUint(dst, r.Seq, 10)
	dst = append(dst, `,"op":`...)
	dst = jsonlex.AppendString(dst, r.Op)
	dst = appendStringMember(dst, `,"program":`, r.Program)
	dst = appendStringMember(dst, `,"source":`, r.Source)
	dst = appendIntMember(dst, `,"workers":`, int64(r.Workers))
	dst = appendStringMember(dst, `,"matcher":`, r.Matcher)
	dst = appendIntMember(dst, `,"max_cycles":`, int64(r.MaxCycles))
	dst = appendIntMember(dst, `,"created_ns":`, r.CreatedNS)
	if len(r.Facts) > 0 {
		dst = append(dst, `,"facts":[`...)
		for i := range r.Facts {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = r.Facts[i].appendJSON(dst)
		}
		dst = append(dst, ']')
	}
	dst = appendStringMember(dst, `,"template":`, r.Template)
	if len(r.Fields) > 0 {
		dst = append(dst, `,"fields":`...)
		dst = r.Fields.AppendJSON(dst)
	}
	dst = appendIntMember(dst, `,"count":`, int64(r.Count))
	dst = appendIntMember(dst, `,"cycles":`, int64(r.Cycles))
	if r.Halted {
		dst = append(dst, `,"halted":true`...)
	}
	dst = appendStringMember(dst, `,"text":`, r.Text)
	if len(r.Ops) > 0 {
		dst = append(dst, `,"ops":[`...)
		for i := range r.Ops {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = r.Ops[i].AppendJSON(dst)
		}
		dst = append(dst, ']')
	}
	dst = appendIntMember(dst, `,"tick":`, r.Tick)
	dst = appendStringMember(dst, `,"job":`, r.Job)
	dst = appendStringMember(dst, `,"job_status":`, r.JobStatus)
	return append(dst, '}')
}

func appendStringMember(dst []byte, key, s string) []byte {
	if s == "" {
		return dst
	}
	return jsonlex.AppendString(append(dst, key...), s)
}

func appendIntMember(dst []byte, key string, n int64) []byte {
	if n == 0 {
		return dst
	}
	return strconv.AppendInt(append(dst, key...), n, 10)
}

func (f *Fact) appendJSON(dst []byte) []byte {
	dst = append(dst, `{"template":`...)
	dst = jsonlex.AppendString(dst, f.Template)
	if len(f.Fields) > 0 {
		dst = append(dst, `,"fields":`...)
		dst = f.Fields.AppendJSON(dst)
	}
	dst = appendIntMember(dst, `,"ttl":`, f.TTL)
	return append(dst, '}')
}

// AppendJSON appends the fields as the payload's "fields" object.
func (fs Fields) AppendJSON(dst []byte) []byte {
	dst = append(dst, '{')
	for i := range fs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = jsonlex.AppendString(dst, fs[i].Name)
		dst = append(dst, ':')
		switch v := &fs[i].Value; v.Kind {
		case wm.KindInt:
			dst = append(dst, `{"k":"i"`...)
			dst = appendIntMember(dst, `,"i":`, v.I)
		case wm.KindFloat:
			dst = append(dst, `{"k":"f","f":"`...)
			dst = strconv.AppendUint(dst, math.Float64bits(v.F), 10)
			dst = append(dst, '"')
		case wm.KindSym:
			dst = append(dst, `{"k":"s"`...)
			dst = appendStringMember(dst, `,"s":`, v.S)
		case wm.KindStr:
			dst = append(dst, `{"k":"t"`...)
			dst = appendStringMember(dst, `,"s":`, v.S)
		default:
			dst = append(dst, `{"k":"n"`...)
		}
		dst = append(dst, '}')
	}
	return append(dst, '}')
}

// MarshalJSON keeps json.Marshal of a Record or Fact canonical. The
// methods hang on Fields, not on Record: cluster's record envelope embeds
// Record, and a promoted Record.MarshalJSON would swallow the envelope's
// own members.
func (fs Fields) MarshalJSON() ([]byte, error) { return fs.AppendJSON(nil), nil }

// UnmarshalJSON is MarshalJSON's counterpart for callers that decode a
// Record through encoding/json (the cluster's envelope).
func (fs *Fields) UnmarshalJSON(b []byte) error {
	var d decoder
	d.lex.Reset(b)
	if d.lex.Null() {
		*fs = nil
		return nil
	}
	run, err := d.fields()
	if err == nil {
		err = d.end()
	}
	if err != nil {
		return err
	}
	*fs = run
	return nil
}

// maxOpsDepth bounds how deep records may nest through "ops" when
// decoding; the server nests once (a batch's ops).
const maxOpsDepth = 100

// decoder reads payloads AppendJSON (or json.Marshal of the same struct,
// in earlier builds) wrote: the members above in any order, optional
// whitespace. Any other member, a null, or a value of the wrong type is
// an error, which a scan treats like a failed checksum — the valid
// prefix ends there.
type decoder struct {
	lex   jsonlex.Lexer
	names *jsonlex.Interner // nil: no sharing of repeated strings
	// flat is the one array every fact of the record being decoded takes
	// its fields from. A growth leaves the runs already handed out on the
	// old array, which stays correct: runs are never written again.
	flat []Field
}

// decode reads one whole payload into rec.
func (d *decoder) decode(payload []byte, rec *Record) error {
	d.lex.Reset(payload)
	d.flat = nil
	if err := d.record(rec, 0); err != nil {
		return err
	}
	return d.end()
}

func (d *decoder) end() error {
	if d.lex.Next(); d.lex.Pos != len(d.lex.Data) {
		return fmt.Errorf("wal: trailing data at offset %d", d.lex.Pos)
	}
	return nil
}

func (d *decoder) str() (string, error) {
	b, err := d.lex.String()
	if err != nil {
		return "", err
	}
	return d.names.String(b), nil
}

func (d *decoder) int() (int, error) {
	n, err := d.lex.Int64()
	return int(n), err
}

func (d *decoder) record(rec *Record, depth int) error {
	l := &d.lex
	if err := l.Expect('{'); err != nil {
		return err
	}
	for first := true; ; first = false {
		key, more, err := l.Key(first)
		if err != nil || !more {
			return err
		}
		switch string(key) {
		case "seq":
			rec.Seq, err = l.Uint64()
		case "op":
			rec.Op, err = d.str()
		case "program":
			rec.Program, err = d.str()
		case "source":
			rec.Source, err = d.str()
		case "workers":
			rec.Workers, err = d.int()
		case "matcher":
			rec.Matcher, err = d.str()
		case "max_cycles":
			rec.MaxCycles, err = d.int()
		case "created_ns":
			rec.CreatedNS, err = l.Int64()
		case "facts":
			rec.Facts, err = d.facts()
		case "template":
			rec.Template, err = d.str()
		case "fields":
			rec.Fields, err = d.fields()
		case "count":
			rec.Count, err = d.int()
		case "cycles":
			rec.Cycles, err = d.int()
		case "halted":
			switch l.Next() {
			case 't':
				rec.Halted, err = true, l.Literal("true")
			default:
				rec.Halted, err = false, l.Literal("false")
			}
		case "text":
			rec.Text, err = d.str()
		case "ops":
			rec.Ops, err = d.ops(depth + 1)
		case "tick":
			rec.Tick, err = l.Int64()
		case "job":
			rec.Job, err = d.str()
		case "job_status":
			rec.JobStatus, err = d.str()
		default:
			err = fmt.Errorf("wal: unknown record member %q", key)
		}
		if err != nil {
			return err
		}
	}
}

// sizeHint guesses how many elements of about size encoded bytes each
// the rest of the payload holds, so a slice is allocated once.
func (d *decoder) sizeHint(size int) int {
	return (len(d.lex.Data)-d.lex.Pos)/size + 1
}

func (d *decoder) ops(depth int) ([]Record, error) {
	if depth > maxOpsDepth {
		return nil, errors.New("wal: ops nested too deep")
	}
	l := &d.lex
	if err := l.Expect('['); err != nil {
		return nil, err
	}
	var out []Record
	for first := true; ; first = false {
		more, err := l.Elem(first)
		if err != nil || !more {
			return out, err
		}
		out = append(out, Record{})
		if err := d.record(&out[len(out)-1], depth); err != nil {
			return nil, err
		}
	}
}

func (d *decoder) facts() ([]Fact, error) {
	l := &d.lex
	if err := l.Expect('['); err != nil {
		return nil, err
	}
	var out []Fact
	for first := true; ; first = false {
		more, err := l.Elem(first)
		if err != nil || !more {
			return out, err
		}
		if out == nil {
			out = make([]Fact, 0, d.sizeHint(96))
		}
		out = append(out, Fact{})
		if err := d.fact(&out[len(out)-1]); err != nil {
			return nil, err
		}
	}
}

func (d *decoder) fact(f *Fact) error {
	l := &d.lex
	if err := l.Expect('{'); err != nil {
		return err
	}
	for first := true; ; first = false {
		key, more, err := l.Key(first)
		if err != nil || !more {
			return err
		}
		switch string(key) {
		case "template":
			f.Template, err = d.str()
		case "fields":
			f.Fields, err = d.fields()
		case "ttl":
			f.TTL, err = l.Int64()
		default:
			err = fmt.Errorf("wal: unknown fact member %q", key)
		}
		if err != nil {
			return err
		}
	}
}

// fields reads a "fields" object into a run of the record's flat array.
func (d *decoder) fields() (Fields, error) {
	l := &d.lex
	if err := l.Expect('{'); err != nil {
		return nil, err
	}
	lo := len(d.flat)
	for first := true; ; first = false {
		key, more, err := l.Key(first)
		if err != nil {
			return nil, err
		}
		if !more {
			break
		}
		if d.flat == nil {
			d.flat = make([]Field, 0, d.sizeHint(28))
		}
		d.flat = append(d.flat, Field{Name: d.names.String(key)})
		if err := d.value(&d.flat[len(d.flat)-1].Value); err != nil {
			return nil, err
		}
	}
	if len(d.flat) == lo {
		return nil, nil
	}
	run := Canonical(d.flat[lo:])
	d.flat = d.flat[:lo+len(run)]
	return run[:len(run):len(run)], nil
}

// value reads one {"k":…} value object.
func (d *decoder) value(v *wm.Value) error {
	l := &d.lex
	if err := l.Expect('{'); err != nil {
		return err
	}
	var (
		kind    byte
		i       int64
		bits    uint64
		hasBits bool
		s       string
	)
	for first := true; ; first = false {
		key, more, err := l.Key(first)
		if err != nil {
			return err
		}
		if !more {
			break
		}
		switch string(key) {
		case "k":
			var k []byte
			if k, err = l.String(); err == nil {
				if len(k) != 1 {
					return fmt.Errorf("wal: unknown value kind %q", k)
				}
				kind = k[0]
			}
		case "i":
			i, err = l.Int64()
		case "f":
			var f []byte
			if f, err = l.String(); err == nil {
				if bits, hasBits = jsonlex.ParseUint64(f); !hasBits {
					return fmt.Errorf("wal: bad float bits %q", f)
				}
			}
		case "s":
			s, err = d.str()
		default:
			err = fmt.Errorf("wal: unknown value member %q", key)
		}
		if err != nil {
			return err
		}
	}
	switch kind {
	case 'n':
		*v = wm.Nil()
	case 'i':
		*v = wm.Int(i)
	case 'f':
		if !hasBits {
			return errors.New("wal: float value without bits")
		}
		*v = wm.Float(math.Float64frombits(bits))
	case 's':
		*v = wm.Sym(s)
	case 't':
		*v = wm.Str(s)
	default:
		return fmt.Errorf("wal: unknown value kind %q", kind)
	}
	return nil
}
