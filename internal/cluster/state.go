package cluster

import (
	"fmt"
	"io"

	"parulel/internal/wal"
)

// SessionState is one session's transferable durable state: the newest
// checkpoint image (nil when the session has never checkpointed) plus
// the WAL records behind it, sequence numbers preserved. Writing it to a
// directory and running the standard recovery path reproduces the
// session byte-identically — migration and replica attachment are both
// "recovery over the wire".
type SessionState struct {
	// Checkpoint is the raw checkpoint file image, or nil.
	Checkpoint []byte
	// Tail is every WAL record not covered by the checkpoint, in order.
	Tail []wal.Record
}

// WriteState streams st as Checkpoint? Record* Cutover frames. It writes
// blind — no acks are read — so it works over any io.Writer, including
// one half of an io.Pipe; callers speaking the peer protocol read the
// sync ack after the Cutover frame themselves.
func WriteState(w io.Writer, st SessionState) error {
	if st.Checkpoint != nil {
		if err := WriteFrame(w, frameCheckpoint, st.Checkpoint); err != nil {
			return err
		}
	}
	var buf []byte
	for i := range st.Tail {
		buf = appendRecordEnvelope(buf[:0], &st.Tail[i], "")
		if err := WriteFrame(w, frameRecord, buf); err != nil {
			return err
		}
	}
	return WriteFrame(w, frameCutover, nil)
}

// ReadState consumes frames until the Cutover marker and reassembles the
// session state. A Reset frame mid-stream discards the records read so
// far (the sender checkpointed while streaming; only legal before any
// live traffic, which WriteState never produces, but tolerated for
// symmetry with the replicate sub-protocol).
func ReadState(r io.Reader) (SessionState, error) {
	var st SessionState
	for {
		typ, payload, err := ReadFrame(r)
		if err != nil {
			return st, err
		}
		switch typ {
		case frameCheckpoint:
			st.Checkpoint = payload
		case frameRecord:
			rec, _, err := decodeRecord(payload)
			if err != nil {
				return st, err
			}
			st.Tail = append(st.Tail, *rec)
		case frameReset:
			st.Tail = st.Tail[:0]
		case frameCutover:
			return st, nil
		default:
			return st, fmt.Errorf("cluster: unexpected %c frame in state stream", typ)
		}
	}
}
