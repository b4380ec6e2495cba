package cluster

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"
	"time"

	"parulel/internal/wal"
)

// Backend is the node-side policy the peer server delegates to; it is
// implemented by internal/server, which owns the session pool and the
// on-disk stores. Methods must be safe for concurrent use.
type Backend interface {
	// OpenReplica opens the replica store for a session, discarding any
	// previous replica state — a new stream always begins with a full
	// state sync. It refuses a session this node itself owns.
	OpenReplica(session string) (Replica, error)
	// HandleMoved merges one routing override learned from a peer.
	HandleMoved(m Moved)
	// HandlePing merges the pinging node's override table.
	HandlePing(p Ping)
	// DropReplica discards the local replica of a session (its
	// replication stream now originates elsewhere, or it migrated away).
	DropReplica(session string) error
}

// Replica is a follower's handle on one session's replica store.
type Replica interface {
	// AppendRecord appends one primary WAL record, preserving its
	// sequence number. trace is the producing request's trace context
	// (obs.TraceContext string form; empty for untraced mutations).
	AppendRecord(rec *wal.Record, trace string) error
	// PutCheckpoint atomically replaces the replica's checkpoint image
	// and empties its log, which the image covers.
	PutCheckpoint(image []byte) error
	// Sync makes everything applied so far — log and directory — durable.
	Sync() error
	// Promote turns the replica into the session, owned by this node
	// under the claim m: the same promotion a follower performs on its
	// own when the primary dies, here at the primary's request. The
	// session is durable and routable when it returns nil, and the
	// handle is closed either way.
	Promote(m Moved) error
	// Close releases file handles, keeping the replica on disk.
	Close() error
}

// PeerServer speaks the peer protocol's receiving side.
type PeerServer struct {
	ln      net.Listener
	backend Backend
	timeout time.Duration
	log     *slog.Logger

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewPeerServer wraps an accepted listener. Call Serve (usually in a
// goroutine) to start accepting and Close to stop. ioTimeout is
// Config.IOTimeout, defaults resolved.
func NewPeerServer(ln net.Listener, backend Backend, ioTimeout time.Duration, logger *slog.Logger) *PeerServer {
	return &PeerServer{ln: ln, backend: backend, timeout: ioTimeout, log: logger, conns: make(map[net.Conn]struct{})}
}

// Serve accepts peer connections until the listener closes.
func (s *PeerServer) Serve() {
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.handle(c)
			s.mu.Lock()
			delete(s.conns, c)
			s.mu.Unlock()
		}()
	}
}

// Close stops accepting, force-closes live peer connections and waits
// for their handlers. Safe to call more than once.
func (s *PeerServer) Close() {
	s.mu.Lock()
	s.closed = true
	s.ln.Close()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

func ack(w io.Writer, a Ack) error { return writeJSONFrame(w, frameAck, a) }

func ackErr(w io.Writer, err error) {
	_ = ack(w, Ack{Err: err.Error()})
}

func (s *PeerServer) handle(c net.Conn) {
	defer c.Close()
	br := bufio.NewReader(c)
	c.SetDeadline(time.Now().Add(s.timeout))
	typ, payload, err := ReadFrame(br)
	if err != nil {
		return
	}
	if typ != frameHello {
		ackErr(c, fmt.Errorf("expected hello, got %c frame", typ))
		return
	}
	var h Hello
	if err := json.Unmarshal(payload, &h); err != nil {
		ackErr(c, fmt.Errorf("bad hello: %v", err))
		return
	}
	switch {
	case h.Purpose != PurposeControl && h.Purpose != PurposeReplicate:
		ackErr(c, fmt.Errorf("unknown purpose %q", h.Purpose))
		return
	case h.Purpose == PurposeReplicate && h.Session == "":
		ackErr(c, errors.New("purpose requires a session"))
		return
	}
	if err := ack(c, Ack{}); err != nil {
		return
	}
	if h.Purpose == PurposeControl {
		s.serveControl(c, br)
	} else {
		s.serveReplicate(c, br, h)
	}
}

// serveControl answers ping/moved/drop frames until the peer hangs up.
// Control connections are long-lived (the client caches them), so each
// read waits well past the ping interval before giving up.
func (s *PeerServer) serveControl(c net.Conn, br *bufio.Reader) {
	for {
		c.SetDeadline(time.Now().Add(10 * time.Minute))
		typ, payload, err := ReadFrame(br)
		if err != nil {
			return
		}
		c.SetDeadline(time.Now().Add(s.timeout))
		switch typ {
		case framePing:
			var p Ping
			if err = json.Unmarshal(payload, &p); err == nil {
				s.backend.HandlePing(p)
			}
		case frameMoved:
			var m Moved
			if err = json.Unmarshal(payload, &m); err == nil {
				s.backend.HandleMoved(m)
			}
		case frameDrop:
			var d Drop
			if err = json.Unmarshal(payload, &d); err == nil {
				err = s.backend.DropReplica(d.Session)
			}
		default:
			err = fmt.Errorf("unexpected %c frame on control stream", typ)
		}
		if err != nil {
			ackErr(c, err)
			return
		}
		if err := ack(c, Ack{}); err != nil {
			return
		}
	}
}

// serveReplicate applies a session's replication stream: a silent state
// sync up to the Cutover barrier (made durable, then acked once), then
// individually acked live frames until the primary hangs up or hands the
// session off.
func (s *PeerServer) serveReplicate(c net.Conn, br *bufio.Reader, h Hello) {
	rep, err := s.backend.OpenReplica(h.Session)
	if err != nil {
		ackErr(c, err)
		return
	}
	defer rep.Close()
	synced := false
	for {
		// Live streams idle between mutations; only the sync phase is
		// held to the tighter transfer deadline.
		if synced {
			c.SetDeadline(time.Now().Add(10 * time.Minute))
		} else {
			c.SetDeadline(time.Now().Add(4 * s.timeout))
		}
		typ, payload, err := ReadFrame(br)
		if err != nil {
			return
		}
		c.SetDeadline(time.Now().Add(s.timeout))
		switch typ {
		case frameRecord:
			var rec *wal.Record
			var trace string
			if rec, trace, err = decodeRecord(payload); err == nil {
				err = rep.AppendRecord(rec, trace)
			}
		case frameCheckpoint:
			err = rep.PutCheckpoint(payload)
		case frameCutover:
			// The primary may let go of its own copy on a later ack; what
			// it synced must not be only in this node's page cache.
			synced = true
			err = rep.Sync()
		case frameMoved:
			var m Moved
			if err = json.Unmarshal(payload, &m); err == nil && !synced {
				err = errors.New("hand-off before the sync barrier")
			}
			if err == nil {
				err = rep.Promote(m) // closes rep: the primary hangs up on the ack
			}
		default:
			err = fmt.Errorf("unexpected %c frame on replication stream", typ)
		}
		if err != nil {
			s.log.Warn("replication stream failed", "session", h.Session, "node", h.Node, "err", err)
			ackErr(c, err)
			return
		}
		if synced {
			if err := ack(c, Ack{}); err != nil {
				return
			}
		}
	}
}
