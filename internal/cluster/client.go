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
// and control broadcasts over cached per-peer connections, plus
// dedicated streams for replication and migration.
type Client struct {
	node    string
	timeout time.Duration

	mu      sync.Mutex
	control map[string]*peerConn // cached control connections, by address
}

// NewClient builds a client identifying itself as node in Hello frames.
func NewClient(node string, ioTimeout time.Duration) *Client {
	if ioTimeout <= 0 {
		ioTimeout = 5 * time.Second
	}
	return &Client{node: node, timeout: ioTimeout, control: make(map[string]*peerConn)}
}

// peerConn is one framed connection with its buffered reader.
type peerConn struct {
	c       net.Conn
	br      *bufio.Reader
	timeout time.Duration
}

func dialPeer(addr string, timeout time.Duration) (*peerConn, error) {
	c, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return &peerConn{c: c, br: bufio.NewReader(c), timeout: timeout}, nil
}

func (pc *peerConn) deadline() time.Time { return time.Now().Add(pc.timeout) }

// send writes one frame and reads its ack.
func (pc *peerConn) send(typ byte, v any) (Ack, error) {
	pc.c.SetDeadline(pc.deadline())
	var err error
	if payload, ok := v.([]byte); ok || v == nil {
		err = WriteFrame(pc.c, typ, payload)
	} else {
		err = writeJSONFrame(pc.c, typ, v)
	}
	if err != nil {
		return Ack{}, err
	}
	return readAck(pc.br)
}

func (pc *peerConn) close() { pc.c.Close() }

// hello opens a purpose-scoped stream on a fresh connection. trace, when
// non-empty, stamps the stream with the opening request's trace context.
func (c *Client) hello(addr, purpose, session, trace string) (*peerConn, error) {
	pc, err := dialPeer(addr, c.timeout)
	if err != nil {
		return nil, err
	}
	if _, err := pc.send(frameHello, Hello{Node: c.node, Purpose: purpose, Session: session, Trace: trace}); err != nil {
		pc.close()
		return nil, fmt.Errorf("cluster: hello to %s: %w", addr, err)
	}
	return pc, nil
}

// controlConn returns (creating if needed) the cached control connection
// for addr. The caller holds it exclusively until release.
func (c *Client) controlConn(addr string) (*peerConn, error) {
	c.mu.Lock()
	pc := c.control[addr]
	delete(c.control, addr)
	c.mu.Unlock()
	if pc != nil {
		return pc, nil
	}
	return c.hello(addr, PurposeControl, "", "")
}

func (c *Client) releaseControl(addr string, pc *peerConn, err error) {
	if err != nil {
		pc.close()
		return
	}
	c.mu.Lock()
	if _, ok := c.control[addr]; ok {
		c.mu.Unlock()
		pc.close() // someone raced a new connection in; keep one
		return
	}
	c.control[addr] = pc
	c.mu.Unlock()
}

// roundTrip sends one control frame on the cached connection, dialing a
// fresh one once if the cached connection went stale.
func (c *Client) roundTrip(addr string, typ byte, v any) (Ack, error) {
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		pc, err := c.controlConn(addr)
		if err != nil {
			return Ack{}, err
		}
		ack, err := pc.send(typ, v)
		c.releaseControl(addr, pc, err)
		if err == nil {
			return ack, nil
		}
		lastErr = err
	}
	return Ack{}, lastErr
}

// Ping health-checks a peer, carrying this node's override table.
func (c *Client) Ping(m Member, overrides []Moved) error {
	_, err := c.roundTrip(m.PeerAddr, framePing, Ping{Node: c.node, Overrides: overrides})
	return err
}

// SendMoved broadcasts one routing override to a peer.
func (c *Client) SendMoved(m Member, moved Moved) error {
	_, err := c.roundTrip(m.PeerAddr, frameMoved, moved)
	return err
}

// SendDrop asks a peer to discard a stale replica.
func (c *Client) SendDrop(m Member, session string) error {
	_, err := c.roundTrip(m.PeerAddr, frameDrop, Drop{Session: session})
	return err
}

// Migrate transfers one session's state to a peer and waits for it to
// install and activate it. On a nil return the target owns the session.
// trace carries the moving request's trace context (may be empty).
func (c *Client) Migrate(m Member, session string, st SessionState, trace string) error {
	pc, err := c.hello(m.PeerAddr, PurposeMigrate, session, trace)
	if err != nil {
		return err
	}
	defer pc.close()
	// A checkpoint image can be large; give the whole transfer a wider
	// window than a single control round-trip.
	pc.c.SetDeadline(time.Now().Add(4 * c.timeout))
	if err := WriteState(pc.c, st); err != nil {
		return fmt.Errorf("cluster: migrating %s to %s: %w", session, m.Name, err)
	}
	if _, err := readAck(pc.br); err != nil {
		return fmt.Errorf("cluster: migrating %s to %s: %w", session, m.Name, err)
	}
	return nil
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
	pc      *peerConn
	session string
	buf     []byte // SendRecord's encode buffer
	// Target is the member the stream is attached to.
	Target Member
}

// OpenReplStream attaches a replication stream for session to a peer and
// completes the initial state sync: the peer resets any previous replica
// of the session and installs st. The single ack after the sync barrier
// confirms the replica is caught up.
func (c *Client) OpenReplStream(m Member, session string, st SessionState) (*ReplStream, error) {
	pc, err := c.hello(m.PeerAddr, PurposeReplicate, session, "")
	if err != nil {
		return nil, err
	}
	pc.c.SetDeadline(time.Now().Add(4 * c.timeout))
	if err := WriteState(pc.c, st); err != nil {
		pc.close()
		return nil, fmt.Errorf("cluster: replica sync of %s to %s: %w", session, m.Name, err)
	}
	if _, err := readAck(pc.br); err != nil {
		pc.close()
		return nil, fmt.Errorf("cluster: replica sync of %s to %s: %w", session, m.Name, err)
	}
	return &ReplStream{pc: pc, session: session, Target: m}, nil
}

// SendRecord streams one WAL record; the returned ack makes it durable
// on the replica per that node's fsync policy. trace, when non-empty,
// carries the producing request's trace context so the replica's apply
// work joins the distributed trace.
func (r *ReplStream) SendRecord(rec *wal.Record, trace string) error {
	r.buf = appendRecordEnvelope(r.buf[:0], rec, trace)
	_, err := r.pc.send(frameRecord, r.buf)
	return err
}

// SendCheckpoint installs a fresh checkpoint image on the replica.
func (r *ReplStream) SendCheckpoint(image []byte) error {
	_, err := r.pc.send(frameCheckpoint, image)
	return err
}

// SendReset truncates the replica's log — the records are covered by the
// checkpoint just sent.
func (r *ReplStream) SendReset() error {
	_, err := r.pc.send(frameReset, nil)
	return err
}

// Close tears the stream down.
func (r *ReplStream) Close() { r.pc.close() }
