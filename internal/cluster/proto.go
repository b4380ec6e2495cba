package cluster

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"parulel/internal/jsonlex"
	"parulel/internal/wal"
)

// The peer wire protocol is a stream of typed, length-prefixed frames:
//
//	[1 byte frame type][uint32 LE payload length][payload]
//
// carried over a plain TCP connection. A connection opens with one Hello
// frame naming its purpose and then speaks that purpose's sub-protocol:
//
//	control    one Ping, Moved or DropReplica frame per request, each
//	           answered with an Ack; the connection is reused.
//	replicate  a session-state sync (Checkpoint? Record* Cutover) that is
//	           applied silently and acked once at the Cutover barrier,
//	           then live streaming where every Record and Checkpoint
//	           frame is acked individually — the ack is what makes
//	           replication synchronous. A Moved frame on the stream is
//	           the hand-off: the follower promotes the replica it has
//	           been fed into the session itself and acks once it owns it.
//
// One way to ship a session's state to another node — attach a
// replication stream — and one way to turn shipped state into the
// session: the promotion a follower performs when its primary dies.
// Migration is the two back to back (attach, or reuse the live stream,
// then hand off); failover is the promotion alone. The follower fsyncs
// the replica log and directory before it acks the Cutover barrier and a
// hand-off, so a primary that lets go of its copy on that ack never
// deletes the only durable one.
//
// Payloads are JSON except Checkpoint, whose payload is the raw
// checkpoint file image (already framed and checksummed by
// internal/checkpoint); installing one empties the replica's log, which
// the image covers. Record payloads are wal.Record JSON with the
// primary's sequence numbers preserved; the replica's log keeps them so
// a promoted replica recovers exactly like a crashed primary.
const (
	frameHello      = 'H'
	frameRecord     = 'R'
	frameCheckpoint = 'C'
	frameCutover    = 'V' // end of a session-state sync
	framePing       = 'P'
	frameMoved      = 'M' // control: a routing claim; replicate: the hand-off
	frameDrop       = 'D'
	frameAck        = 'A'
)

// maxFrameBytes bounds one frame payload. Checkpoint images are the
// largest legitimate payload (a full working-memory snapshot).
const maxFrameBytes = 256 << 20

// Stream purposes named in Hello frames.
const (
	PurposeControl   = "control"
	PurposeReplicate = "replicate"
)

// Hello opens a peer connection.
type Hello struct {
	Node    string `json:"node"`
	Purpose string `json:"purpose"`
	// Session scopes a replicate stream.
	Session string `json:"session,omitempty"`
}

// Ping is a control heartbeat. It piggybacks the sender's route-override
// table so nodes that were down when a migration was broadcast converge
// on the same routing once they are pinged again.
type Ping struct {
	Node      string  `json:"node"`
	Overrides []Moved `json:"overrides,omitempty"`
}

// Moved records that a session's ownership was explicitly transferred —
// by an admin move or by a replica promotion — overriding the hash
// placement. Seq orders competing claims: highest wins. Sent on a
// replication stream it is the transfer itself: the primary hands the
// session to the follower the stream feeds.
type Moved struct {
	Session string `json:"session"`
	Target  string `json:"target"`
	Seq     uint64 `json:"seq"`
}

// Drop asks a node to discard its replica of a session whose replication
// stream now originates elsewhere.
type Drop struct {
	Session string `json:"session"`
}

// Ack answers a frame; a non-empty Err reports the failure and precedes
// the server closing the connection.
type Ack struct {
	Err string `json:"err,omitempty"`
}

// WriteFrame writes one frame.
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	var hdr [5]byte
	hdr[0] = typ
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	return nil
}

// writeJSONFrame marshals v and writes it as one frame of the given type.
func writeJSONFrame(w io.Writer, typ byte, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("cluster: encoding %c frame: %w", typ, err)
	}
	return WriteFrame(w, typ, payload)
}

// ReadFrame reads one frame, bounding the payload size.
func ReadFrame(r io.Reader) (byte, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[1:])
	if n > maxFrameBytes {
		return 0, nil, fmt.Errorf("cluster: frame of %d bytes exceeds the %d limit", n, maxFrameBytes)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, fmt.Errorf("cluster: truncated %c frame: %w", hdr[0], err)
	}
	return hdr[0], payload, nil
}

// readAck reads one frame and requires it to be an Ack; a non-empty
// Ack.Err is surfaced as an error.
func readAck(r io.Reader) error {
	typ, payload, err := ReadFrame(r)
	if err != nil {
		return err
	}
	if typ != frameAck {
		return fmt.Errorf("cluster: expected ack, got %c frame", typ)
	}
	var a Ack
	if err := json.Unmarshal(payload, &a); err != nil {
		return fmt.Errorf("cluster: decoding ack: %w", err)
	}
	if a.Err != "" {
		return fmt.Errorf("cluster: peer error: %s", a.Err)
	}
	return nil
}

// recordEnvelope is a Record frame payload: the WAL record's own JSON
// plus an optional trace context for the mutation that produced it. The
// extra field is additive — a node that predates it simply ignores it —
// and it is stripped before the record reaches the replica's log.
type recordEnvelope struct {
	wal.Record
	Trace string `json:"trace,omitempty"`
}

// appendRecordEnvelope appends the envelope's encoding: the log's own
// canonical payload for rec (wal.Record.AppendJSON — what the replica's
// log will write too) with the trace member, when there is one, spliced
// in before the closing brace.
func appendRecordEnvelope(dst []byte, rec *wal.Record, trace string) []byte {
	dst = rec.AppendJSON(dst)
	if trace == "" {
		return dst
	}
	dst = append(dst[:len(dst)-1], `,"trace":`...)
	dst = jsonlex.AppendString(dst, trace)
	return append(dst, '}')
}

// decodeRecord decodes a Record frame payload, returning the record and
// the sender's trace context (empty for untraced mutations).
func decodeRecord(payload []byte) (*wal.Record, string, error) {
	var env recordEnvelope
	if err := json.Unmarshal(payload, &env); err != nil {
		return nil, "", fmt.Errorf("cluster: decoding record frame: %w", err)
	}
	return &env.Record, env.Trace, nil
}
