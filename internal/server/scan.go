package server

// This file is the request half of the fact codec: a scanner that reads
// the fact-bearing bodies — /facts, /retract, /batch and /stream frames —
// straight into the form the log appends (wal.Fact: template, TTL, and a
// name-sorted run of (attribute, value) pairs in one flat array for the
// whole request), with no map and no reflection on the way. Scanning
// needs no session, so it runs before the session slot is taken; names
// are resolved to positions afterwards, under the slot, once per fact
// (session.stage).
//
// The grammar is the one the reflective decoder accepted, quirks
// included, and FuzzFactDecode holds the two together: only the first
// JSON value of a body is read and an empty body is an empty request;
// keys match case-insensitively, an unknown key is an error, a key given
// twice takes its last value; null is "not given" for a scalar and empty
// for a list; a field value is null, a number (an int unless it has a
// fraction or exponent), a string (a symbol), a boolean (the symbols
// true/false) or one of {"int":n} {"float":x} {"sym":s} {"str":s}.

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"parulel/internal/jsonlex"
	"parulel/internal/wal"
	"parulel/internal/wm"
)

// scanOp is one decoded operation: a whole /facts or /retract request, one
// op of a /batch, or one /stream frame. Which members are meaningful
// depends on where it came from.
type scanOp struct {
	kind      string     // batch: the "op" member
	facts     []wal.Fact // a run of the scanner's flat fact array
	template  string     // retract
	fields    wal.Fields // retract
	timeoutMS int64
	ticks     int64
	hasTicks  bool // stream: "ticks" was given (absent means 1)
	run       bool // stream
}

// The keys of the request objects. A keySet says which of them one kind
// of object accepts.
type keyID uint8

const (
	kUnknown keyID = iota
	kOp
	kFacts
	kTemplate
	kFields
	kTimeoutMS
	kTicks
	kRun
	kOps
	kTime
	kTTL
	numKeys
)

var keyNames = [numKeys]string{
	kOp: "op", kFacts: "facts", kTemplate: "template", kFields: "fields", kTimeoutMS: "timeout_ms",
	kTicks: "ticks", kRun: "run", kOps: "ops", kTime: "time", kTTL: "ttl",
}

type keySet uint16

func keys(ids ...keyID) keySet {
	var s keySet
	for _, id := range ids {
		s |= 1 << id
	}
	return s
}

var (
	assertKeys  = keys(kFacts)
	retractKeys = keys(kTemplate, kFields)
	batchKeys   = keys(kOps)
	batchOpKeys = keys(kOp, kFacts, kTemplate, kFields, kTimeoutMS, kTicks)
	frameKeys   = keys(kFacts, kTicks, kRun, kTimeoutMS)
	factKeys    = keys(kTemplate, kTime, kFields, kTTL)
)

// lookup finds key in set: exactly, else the way encoding/json matches a
// struct field, by simple case folding.
func (set keySet) lookup(key []byte) (keyID, error) {
	id := kUnknown
	for i := kOp; i < numKeys && id == kUnknown; i++ {
		if string(key) == keyNames[i] {
			id = i
		}
	}
	for i := kOp; i < numKeys && id == kUnknown; i++ {
		if strings.EqualFold(string(key), keyNames[i]) {
			id = i
		}
	}
	if set&(1<<id) == 0 {
		return kUnknown, fmt.Errorf("unknown field %q", key)
	}
	return id, nil
}

// factScanner scans one request at a time and owns every buffer the fact
// path would otherwise allocate per request; handlers borrow one from
// scanners for the life of a request.
type factScanner struct {
	lex    jsonlex.Lexer
	names  jsonlex.Interner
	body   bytes.Buffer
	fields []wal.Field // every fact's pairs; a fact holds a capped sub-slice
	facts  []wal.Fact  // every op's facts; an op holds a capped sub-slice
	ops    []scanOp
	staged []stagedFact // session.stage's output
	recs   []wal.Record // a batch's nested records
	out    []byte       // response bytes
}

var scanners = sync.Pool{New: func() any { return new(factScanner) }}

// maxKeptBody bounds the buffers a pooled scanner keeps, so one large
// request does not stay pinned.
const maxKeptBody = 1 << 20

// readBody borrows a scanner and reads the whole request body into it —
// before any session slot is taken, and bounded by ServeHTTP's
// MaxBytesReader. A false return means the 400 has been written.
func readBody(w http.ResponseWriter, r *http.Request) (*factScanner, bool) {
	sc := scanners.Get().(*factScanner)
	sc.body.Reset()
	if n := r.ContentLength; n > 0 && n <= maxKeptBody {
		sc.body.Grow(int(n))
	}
	if _, err := sc.body.ReadFrom(r.Body); err != nil {
		sc.release()
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return nil, false
	}
	sc.reset(sc.body.Bytes())
	return sc, true
}

// reset points the scanner at a new text and drops everything it held
// for the last one, references included.
func (sc *factScanner) reset(data []byte) {
	sc.lex.Reset(data)
	clear(sc.fields)
	clear(sc.facts)
	clear(sc.ops)
	clear(sc.staged)
	clear(sc.recs)
	sc.fields, sc.facts, sc.ops = sc.fields[:0], sc.facts[:0], sc.ops[:0]
	sc.staged, sc.recs = sc.staged[:0], sc.recs[:0]
}

// release returns the scanner to the pool with nothing reachable from it
// but its own buffers.
func (sc *factScanner) release() {
	sc.reset(nil)
	if sc.body.Cap() > maxKeptBody {
		sc.body = bytes.Buffer{}
	}
	if cap(sc.out) > maxKeptBody {
		sc.out = nil
	}
	scanners.Put(sc)
}

// scanOne reads a body that is a single op object: /facts, /retract or a
// /stream frame, by the key set.
func (sc *factScanner) scanOne(allowed keySet) (*scanOp, error) {
	sc.ops = append(sc.ops[:0], scanOp{})
	op := &sc.ops[0]
	if sc.lex.Next(); sc.lex.Pos == len(sc.lex.Data) {
		return op, nil
	}
	return op, sc.op(allowed, op)
}

// scanBatch reads a /batch body into sc.ops.
func (sc *factScanner) scanBatch() error {
	l := &sc.lex
	if l.Next(); l.Pos == len(l.Data) || l.Null() {
		return nil
	}
	if err := l.Expect('{'); err != nil {
		return err
	}
	for first := true; ; first = false {
		key, more, err := l.Key(first)
		if err != nil || !more {
			return err
		}
		if _, err := batchKeys.lookup(key); err != nil {
			return err
		}
		sc.ops = sc.ops[:0]
		if l.Null() {
			continue
		}
		if err := l.Expect('['); err != nil {
			return err
		}
		for firstOp := true; ; firstOp = false {
			more, err := l.Elem(firstOp)
			if err != nil {
				return err
			}
			if !more {
				break
			}
			sc.ops = append(sc.ops, scanOp{})
			if err := sc.op(batchOpKeys, &sc.ops[len(sc.ops)-1]); err != nil {
				return err
			}
		}
	}
}

// op reads one op object (or null, the empty op) at the cursor.
func (sc *factScanner) op(allowed keySet, op *scanOp) error {
	l := &sc.lex
	if l.Null() {
		return nil
	}
	if err := l.Expect('{'); err != nil {
		return err
	}
	for first := true; ; first = false {
		key, more, err := l.Key(first)
		if err != nil || !more {
			return err
		}
		id, err := allowed.lookup(key)
		if err != nil {
			return err
		}
		switch id {
		case kOp:
			err = sc.optString(&op.kind)
		case kFacts:
			op.facts, err = sc.factList()
		case kTemplate:
			err = sc.optString(&op.template)
		case kFields:
			op.fields, err = sc.fieldsObject()
		case kTimeoutMS:
			err = sc.optInt(&op.timeoutMS)
		case kTicks:
			// null is "not given": a frame's default applies again, a batch
			// op (which has no default to fall back to and ignores hasTicks)
			// keeps what an earlier occurrence set.
			if op.hasTicks = !l.Null(); op.hasTicks {
				op.ticks, err = l.Int64()
			}
		case kRun:
			switch l.Next() {
			case 't':
				op.run, err = true, l.Literal("true")
			case 'f':
				op.run, err = false, l.Literal("false")
			default:
				if !l.Null() {
					err = errors.New("run must be a boolean")
				}
			}
		}
		if err != nil {
			return err
		}
	}
}

// optString reads a string member; null leaves dst alone.
func (sc *factScanner) optString(dst *string) error {
	if sc.lex.Null() {
		return nil
	}
	b, err := sc.lex.String()
	if err == nil {
		*dst = sc.names.String(b)
	}
	return err
}

// optInt reads an integer member; null leaves dst alone.
func (sc *factScanner) optInt(dst *int64) error {
	if sc.lex.Null() {
		return nil
	}
	n, err := sc.lex.Int64()
	if err == nil {
		*dst = n
	}
	return err
}

// factList reads a "facts" array (or null) into a run of sc.facts.
func (sc *factScanner) factList() ([]wal.Fact, error) {
	l := &sc.lex
	if l.Null() {
		return nil, nil
	}
	if err := l.Expect('['); err != nil {
		return nil, err
	}
	lo := len(sc.facts)
	for first := true; ; first = false {
		more, err := l.Elem(first)
		if err != nil {
			return nil, err
		}
		if !more {
			return sc.facts[lo:len(sc.facts):len(sc.facts)], nil
		}
		sc.facts = append(sc.facts, wal.Fact{})
		if err := sc.fact(&sc.facts[len(sc.facts)-1]); err != nil {
			return nil, err
		}
	}
}

// fact reads one fact object (or null, the empty fact).
func (sc *factScanner) fact(f *wal.Fact) error {
	l := &sc.lex
	if l.Null() {
		return nil
	}
	if err := l.Expect('{'); err != nil {
		return err
	}
	for first := true; ; first = false {
		key, more, err := l.Key(first)
		if err != nil || !more {
			return err
		}
		id, err := factKeys.lookup(key)
		if err != nil {
			return err
		}
		switch id {
		case kTemplate:
			err = sc.optString(&f.Template)
		case kTime: // what /wm reports; accepted and ignored on the way in
			var ignored int64
			err = sc.optInt(&ignored)
		case kFields:
			f.Fields, err = sc.fieldsObject()
		case kTTL:
			err = sc.optInt(&f.TTL)
		}
		if err != nil {
			return err
		}
	}
}

// fieldsObject reads a "fields" object (or null) into a run of sc.fields
// in wal.Fields order.
func (sc *factScanner) fieldsObject() (wal.Fields, error) {
	l := &sc.lex
	if l.Null() {
		return nil, nil
	}
	if err := l.Expect('{'); err != nil {
		return nil, err
	}
	lo := len(sc.fields)
	for first := true; ; first = false {
		key, more, err := l.Key(first)
		if err != nil {
			return nil, err
		}
		if !more {
			break
		}
		sc.fields = append(sc.fields, wal.Field{Name: sc.names.String(key)})
		if err := sc.value(&sc.fields[len(sc.fields)-1].Value); err != nil {
			return nil, fmt.Errorf("field %s: %w", sc.fields[len(sc.fields)-1].Name, err)
		}
	}
	if len(sc.fields) == lo {
		return nil, nil
	}
	run := wal.Canonical(sc.fields[lo:])
	sc.fields = sc.fields[:lo+len(run)]
	return run[:len(run):len(run)], nil
}

// value reads one field value.
func (sc *factScanner) value(v *wm.Value) error {
	l := &sc.lex
	switch c := l.Next(); {
	case c == 'n':
		*v = wm.Nil()
		return l.Literal("null")
	case c == 't':
		*v = wm.Bool(true)
		return l.Literal("true")
	case c == 'f':
		*v = wm.Bool(false)
		return l.Literal("false")
	case c == '"':
		b, err := l.String()
		*v = wm.Sym(sc.names.String(b))
		return err
	case c == '{':
		return sc.typedValue(v)
	case c == '-' || '0' <= c && c <= '9':
		tok, err := l.Number()
		if err != nil {
			return err
		}
		if bytes.ContainsAny(tok, ".eE") {
			f, err := strconv.ParseFloat(string(tok), 64)
			*v = wm.Float(f)
			return err
		}
		n, ok := jsonlex.ParseInt64(tok)
		if !ok {
			return fmt.Errorf("bad integer %s", tok)
		}
		*v = wm.Int(n)
		return nil
	default:
		return errors.New("a value must be null, a number, a string, a boolean or a typed object")
	}
}

// The members of a typed value object.
const (
	typedNone = iota
	typedInt
	typedFloat
	typedSym
	typedStr
)

var errTypedValue = errors.New("typed value must have exactly one of int/float/sym/str")

// typedValue reads {"int":n}, {"float":x}, {"sym":s} or {"str":s}. The
// object must name exactly one of the four; naming it twice is allowed
// and, as everywhere, the last value counts — the earlier ones need only
// be valid JSON, which is why all are skipped and the last is re-read.
func (sc *factScanner) typedValue(v *wm.Value) error {
	l := &sc.lex
	if err := l.Expect('{'); err != nil {
		return err
	}
	kind, at := typedNone, 0
	for first := true; ; first = false {
		key, more, err := l.Key(first)
		if err != nil {
			return err
		}
		if !more {
			break
		}
		k := typedNone
		switch string(key) {
		case "int":
			k = typedInt
		case "float":
			k = typedFloat
		case "sym":
			k = typedSym
		case "str":
			k = typedStr
		default:
			return fmt.Errorf("unknown typed value key %q", key)
		}
		if kind != typedNone && kind != k {
			return errTypedValue
		}
		kind, at = k, l.Pos
		if err := l.Skip(); err != nil {
			return err
		}
	}
	if kind == typedNone {
		return errTypedValue
	}
	end := l.Pos
	l.Pos = at
	null := l.Null()
	switch kind {
	case typedInt:
		var n int64
		if !null {
			var err error
			if n, err = l.Int64(); err != nil {
				return err
			}
		}
		*v = wm.Int(n)
	case typedFloat:
		var f float64
		if !null {
			tok, err := l.Number()
			if err == nil {
				f, err = strconv.ParseFloat(string(tok), 64)
			}
			if err != nil {
				return err
			}
		}
		*v = wm.Float(f)
	default:
		var s string
		if !null {
			b, err := l.String()
			if err != nil {
				return err
			}
			s = sc.names.String(b)
		}
		if kind == typedSym {
			*v = wm.Sym(s)
		} else {
			*v = wm.Str(s)
		}
	}
	l.Pos = end
	return nil
}
