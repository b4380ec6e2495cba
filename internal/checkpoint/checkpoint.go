// Package checkpoint persists a full session state image — working
// memory plus the engine's replayable counters — so recovery can load
// the newest checkpoint and replay only the write-ahead-log tail behind
// it, instead of the session's whole history.
//
// The format layers on the snapshot package: the working memory is the
// standard `(wm …)` block (human-readable, concatenable with a program
// file and runnable by cmd/parulel), preceded by one JSON header line
// carrying what the snapshot syntax cannot express — the WAL sequence
// point, the program identity, the engine counters, the exact time tag
// of every fact (in snapshot order), and the refraction keys. The whole
// body is covered by a CRC32 in the first line; a checkpoint that fails
// its checksum is ignored and recovery falls back to the log.
package checkpoint

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"strconv"
	"strings"

	"parulel/internal/core"
	"parulel/internal/match"
	"parulel/internal/snapshot"
	"parulel/internal/temporal"
	"parulel/internal/wal"
	"parulel/internal/wm"
)

// magic is the first token of a checkpoint file; v1 is the only version.
const magic = "parulel-checkpoint"

// Header carries everything a checkpoint records beyond the fact values.
type Header struct {
	// Seq is the WAL sequence number of the last record folded into this
	// checkpoint; recovery replays only records with larger sequence
	// numbers.
	Seq uint64 `json:"seq"`

	// Program identity, sufficient to rebuild the engine.
	Program   string `json:"program"`
	Source    string `json:"source"`
	Workers   int    `json:"workers"` // ignored; copied from the create record
	Matcher   string `json:"matcher"`
	MaxCycles int    `json:"max_cycles"`
	CreatedNS int64  `json:"created_ns,omitempty"`

	// Runs is the session's cumulative run-request count.
	Runs int `json:"runs"`

	// Counters is the engine's replayable counter state.
	Counters core.Counters `json:"counters"`

	// Tags holds the time tag of each fact in the `(wm …)` body, in body
	// order (snapshot order is ascending time, so Tags is sorted).
	Tags []int64 `json:"tags"`

	// Fired is the refraction set: keys of instantiations that fired and
	// are still in the conflict set.
	Fired []match.Key `json:"fired,omitempty"`

	// Temporal is the temporal clock's state (nil for sessions that have
	// never ticked and track nothing). Its serialization is deterministic,
	// preserving the byte-identical-snapshot property.
	Temporal *temporal.State `json:"temporal,omitempty"`

	// Ledger commits the session's Merkle ledger as of this checkpoint
	// (nil when the ledger is disabled or the checkpoint predates it).
	// The whole header is CRC-framed, so the committed root is itself
	// tamper-evident; chaining through Prev ties every checkpoint to the
	// one before it.
	Ledger *LedgerCommit `json:"ledger,omitempty"`
}

// HeaderFor starts a header from the session's OpCreate record — the one
// value a session's settings travel as — leaving the state fields to the
// caller.
func HeaderFor(create *wal.Record) Header {
	return Header{
		Program: create.Program, Source: create.Source, Workers: create.Workers,
		Matcher: create.Matcher, MaxCycles: create.MaxCycles, CreatedNS: create.CreatedNS,
	}
}

// CreateRecord is HeaderFor's inverse: the OpCreate record a log the
// checkpoint truncated no longer holds.
func (h *Header) CreateRecord() wal.Record {
	return wal.Record{
		Op: wal.OpCreate, Program: h.Program, Source: h.Source, Workers: h.Workers,
		Matcher: h.Matcher, MaxCycles: h.MaxCycles, CreatedNS: h.CreatedNS,
	}
}

// LedgerCommit pins the Merkle ledger state a checkpoint vouches for:
// the root (and resumable peak decomposition) over the first Count WAL
// frames the session ever appended, plus the previous checkpoint's
// commit so an auditor can walk the chain. The hex digests and peak
// semantics are defined in internal/wal (RFC 6962 hashing).
type LedgerCommit struct {
	Count     uint64   `json:"count"`
	Root      string   `json:"root"`
	Peaks     []string `json:"peaks,omitempty"`
	PrevCount uint64   `json:"prev_count,omitempty"`
	PrevRoot  string   `json:"prev_root,omitempty"`
}

// Fact is one restored working-memory element, paired by index with
// Header.Tags.
type Fact struct {
	Template string
	Fields   map[string]wm.Value
}

// Write renders a checkpoint of mem under the given header. The caller
// fills every header field except Tags, which Write derives from mem so
// it cannot fall out of step with the body.
func Write(w io.Writer, h Header, mem *wm.Memory) error {
	if err := mem.CheckTagInvariant(); err != nil {
		return fmt.Errorf("checkpoint: refusing to snapshot: %w", err)
	}
	snap := mem.Snapshot()
	h.Tags = make([]int64, len(snap))
	for i, el := range snap {
		h.Tags[i] = el.Time
	}
	var body bytes.Buffer
	hdr, err := json.Marshal(&h)
	if err != nil {
		return fmt.Errorf("checkpoint: encoding header: %w", err)
	}
	body.Write(hdr)
	body.WriteByte('\n')
	if err := snapshot.WriteFacts(&body, snap); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if _, err := fmt.Fprintf(w, "%s v1 %d %d\n", magic, crc32.ChecksumIEEE(body.Bytes()), body.Len()); err != nil {
		return err
	}
	_, err = w.Write(body.Bytes())
	return err
}

// collector implements snapshot.Inserter by recording facts instead of
// inserting them; restore assigns the checkpointed tags afterwards.
type collector struct{ facts []Fact }

func (c *collector) Insert(template string, fields map[string]wm.Value) (*wm.WME, error) {
	c.facts = append(c.facts, Fact{Template: template, Fields: fields})
	return nil, nil
}

// Read parses and verifies a checkpoint. Any framing, checksum, syntax
// or consistency failure is an error; the caller decides whether to fall
// back to log-only recovery.
func Read(r io.Reader) (Header, []Fact, error) {
	var h Header
	br := bufio.NewReader(r)
	line, err := br.ReadString('\n')
	if err != nil {
		return h, nil, fmt.Errorf("checkpoint: reading frame line: %w", err)
	}
	parts := strings.Fields(strings.TrimSuffix(line, "\n"))
	if len(parts) != 4 || parts[0] != magic || parts[1] != "v1" {
		return h, nil, fmt.Errorf("checkpoint: bad frame line %q", strings.TrimSpace(line))
	}
	sum, err := strconv.ParseUint(parts[2], 10, 32)
	if err != nil {
		return h, nil, fmt.Errorf("checkpoint: bad checksum field: %w", err)
	}
	n, err := strconv.ParseInt(parts[3], 10, 64)
	if err != nil || n < 0 || n > 1<<32 {
		return h, nil, fmt.Errorf("checkpoint: bad length field %q", parts[3])
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(br, body); err != nil {
		return h, nil, fmt.Errorf("checkpoint: truncated body: %w", err)
	}
	if crc32.ChecksumIEEE(body) != uint32(sum) {
		return h, nil, fmt.Errorf("checkpoint: checksum mismatch")
	}
	nl := bytes.IndexByte(body, '\n')
	if nl < 0 {
		return h, nil, fmt.Errorf("checkpoint: missing header line")
	}
	if err := json.Unmarshal(body[:nl], &h); err != nil {
		return h, nil, fmt.Errorf("checkpoint: decoding header: %w", err)
	}
	var c collector
	if _, err := snapshot.Read(bytes.NewReader(body[nl+1:]), &c); err != nil {
		return h, nil, err
	}
	if len(c.facts) != len(h.Tags) {
		return h, nil, fmt.Errorf("checkpoint: %d facts but %d tags", len(c.facts), len(h.Tags))
	}
	return h, c.facts, nil
}

// Restore rebuilds an engine from a parsed checkpoint: a fresh engine
// over prog (built with Options.NoInitialFacts), facts reinstated under
// their checkpointed tags, then refraction keys and counters.
func Restore(e *core.Engine, h Header, facts []Fact) error {
	for i, f := range facts {
		if _, err := e.RestoreWME(f.Template, f.Fields, h.Tags[i]); err != nil {
			return fmt.Errorf("checkpoint: fact %d: %w", i, err)
		}
	}
	e.RestoreFired(h.Fired)
	e.RestoreCounters(h.Counters)
	return nil
}
