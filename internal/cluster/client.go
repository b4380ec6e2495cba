package cluster

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"parulel/internal/wal"
)

// Client is a node's outgoing side of the peer protocol: health pings
// and control broadcasts over cached per-peer connections, plus one
// dedicated stream per replicated session.
type Client struct {
	node    string
	timeout time.Duration

	mu      sync.Mutex
	control map[string]*peerConn // cached control connections, by address
}

// NewClient builds a client identifying itself as node in Hello frames;
// ioTimeout is Config.IOTimeout, defaults resolved.
func NewClient(node string, ioTimeout time.Duration) *Client {
	return &Client{node: node, timeout: ioTimeout, control: make(map[string]*peerConn)}
}

// peerConn is one framed connection with its buffered reader.
type peerConn struct {
	c       net.Conn
	br      *bufio.Reader
	timeout time.Duration
}

// send writes one frame and reads its ack.
func (pc *peerConn) send(typ byte, v any) error {
	pc.c.SetDeadline(time.Now().Add(pc.timeout))
	var err error
	if payload, ok := v.([]byte); ok || v == nil {
		err = WriteFrame(pc.c, typ, payload)
	} else {
		err = writeJSONFrame(pc.c, typ, v)
	}
	if err != nil {
		return err
	}
	return readAck(pc.br)
}

func (pc *peerConn) close() { pc.c.Close() }

// hello opens a purpose-scoped stream on a fresh connection.
func (c *Client) hello(addr, purpose, session string) (*peerConn, error) {
	conn, err := net.DialTimeout("tcp", addr, c.timeout)
	if err != nil {
		return nil, err
	}
	pc := &peerConn{c: conn, br: bufio.NewReader(conn), timeout: c.timeout}
	if err := pc.send(frameHello, Hello{Node: c.node, Purpose: purpose, Session: session}); err != nil {
		pc.close()
		return nil, fmt.Errorf("cluster: hello to %s: %w", addr, err)
	}
	return pc, nil
}

// roundTrip sends one control frame to addr and waits for its ack. A peer's
// last good connection is cached and reused, exclusively: a concurrent
// round trip dials its own, and the first to finish stays cached. A cached
// connection that went stale earns one redial.
func (c *Client) roundTrip(addr string, typ byte, v any) error {
	for {
		c.mu.Lock()
		pc := c.control[addr]
		delete(c.control, addr)
		c.mu.Unlock()
		cached := pc != nil
		if !cached {
			var err error
			if pc, err = c.hello(addr, PurposeControl, ""); err != nil {
				return err
			}
		}
		err := pc.send(typ, v)
		if err == nil {
			c.mu.Lock()
			if raced := c.control[addr]; raced != nil {
				raced.close()
			}
			c.control[addr] = pc
			c.mu.Unlock()
			return nil
		}
		pc.close()
		if !cached {
			return err
		}
	}
}

// Ping health-checks a peer, carrying this node's override table.
func (c *Client) Ping(m Member, overrides []Moved) error {
	return c.roundTrip(m.PeerAddr, framePing, Ping{Node: c.node, Overrides: overrides})
}

// SendMoved broadcasts one routing override to a peer.
func (c *Client) SendMoved(m Member, moved Moved) error {
	return c.roundTrip(m.PeerAddr, frameMoved, moved)
}

// SendDrop asks a peer to discard a stale replica.
func (c *Client) SendDrop(m Member, session string) error {
	return c.roundTrip(m.PeerAddr, frameDrop, Drop{Session: session})
}

// Close drops every cached control connection.
func (c *Client) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for addr, pc := range c.control {
		pc.close()
		delete(c.control, addr)
	}
}

// ReplStream is a primary's live replication stream for one session.
// Not safe for concurrent use; the server serializes sends through the
// session slot.
type ReplStream struct {
	pc  *peerConn
	buf []byte // SendRecord's encode buffer
	// Target is the member the stream is attached to.
	Target Member
}

// OpenReplStream attaches a replication stream for session to a peer and
// completes the initial state sync: the peer resets any previous replica
// of the session and installs st. The single ack after the sync barrier
// confirms the replica is caught up.
func (c *Client) OpenReplStream(m Member, session string, st SessionState) (*ReplStream, error) {
	pc, err := c.hello(m.PeerAddr, PurposeReplicate, session)
	if err != nil {
		return nil, err
	}
	pc.c.SetDeadline(time.Now().Add(4 * c.timeout))
	if err := WriteState(pc.c, st); err != nil {
		pc.close()
		return nil, fmt.Errorf("cluster: replica sync of %s to %s: %w", session, m.Name, err)
	}
	if err := readAck(pc.br); err != nil {
		pc.close()
		return nil, fmt.Errorf("cluster: replica sync of %s to %s: %w", session, m.Name, err)
	}
	return &ReplStream{pc: pc, Target: m}, nil
}

// SendRecord streams one WAL record; the returned ack makes it durable
// on the replica per that node's fsync policy. trace, when non-empty,
// carries the producing request's trace context so the replica's apply
// work joins the distributed trace.
func (r *ReplStream) SendRecord(rec *wal.Record, trace string) error {
	r.buf = appendRecordEnvelope(r.buf[:0], rec, trace)
	return r.pc.send(frameRecord, r.buf)
}

// SendCheckpoint installs a fresh checkpoint image on the replica and
// empties the replica's log, whose records the image covers.
func (r *ReplStream) SendCheckpoint(image []byte) error {
	return r.pc.send(frameCheckpoint, image)
}

// HandOff transfers the session to the stream's target: the follower
// promotes its replica — everything this stream has sent — into the
// session and records the claim. On a nil return the target owns the
// session, durably; on an error the outcome is unknown (the ack may have
// been lost) and the caller must out-claim mv to stay the owner.
func (r *ReplStream) HandOff(mv Moved) error {
	return r.pc.send(frameMoved, mv)
}

// Close tears the stream down.
func (r *ReplStream) Close() { r.pc.close() }
