package cluster

import (
	"io"

	"parulel/internal/wal"
)

// SessionState is one session's transferable durable state: the newest
// checkpoint image (nil when the session has never checkpointed) plus
// the WAL records behind it, sequence numbers preserved. Writing it to a
// directory and running the standard recovery path reproduces the
// session byte-identically: replica attachment — and so migration and
// failover, which both promote an attached replica — is "recovery over
// the wire".
type SessionState struct {
	// Checkpoint is the raw checkpoint file image, or nil.
	Checkpoint []byte
	// Tail is every WAL record not covered by the checkpoint, in order.
	Tail []wal.Record
}

// WriteState streams st as Checkpoint? Record* Cutover frames. It reads
// no ack: the caller reads the one the Cutover barrier earns.
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
