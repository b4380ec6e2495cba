package cluster

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"parulel/internal/wal"
)

func TestRingOwnerAndOrder(t *testing.T) {
	members := []string{"n0", "n1", "n2"}
	r := NewRing(members, 64)

	counts := make(map[string]int)
	for i := 0; i < 3000; i++ {
		key := fmt.Sprintf("s-n0-%d", i)
		owner := r.Owner(key)
		counts[owner]++

		order := r.Order(key)
		if len(order) != len(members) {
			t.Fatalf("Order(%q) = %v: want every member exactly once", key, order)
		}
		seen := make(map[string]bool)
		for _, m := range order {
			if seen[m] {
				t.Fatalf("Order(%q) = %v repeats %s", key, order, m)
			}
			seen[m] = true
		}
		if order[0] != owner {
			t.Fatalf("Order(%q)[0] = %s, Owner = %s", key, order[0], owner)
		}
	}
	// With 64 vnodes each of 3 members should own a meaningful share; a
	// grossly imbalanced ring means the vnode hashing is broken.
	for _, m := range members {
		if counts[m] < 300 {
			t.Fatalf("member %s owns only %d/3000 keys: %v", m, counts[m], counts)
		}
	}
}

// TestRingAgreesAcrossInputOrder: two nodes building the ring from the
// same member set in different list orders must route identically.
func TestRingAgreesAcrossInputOrder(t *testing.T) {
	a := NewRing([]string{"n0", "n1", "n2"}, 32)
	b := NewRing([]string{"n2", "n0", "n1"}, 32)
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("s-%d", i)
		if got, want := b.Owner(key), a.Owner(key); got != want {
			t.Fatalf("rings disagree on %q: %s vs %s", key, got, want)
		}
		if got, want := b.Order(key), a.Order(key); !reflect.DeepEqual(got, want) {
			t.Fatalf("orders disagree on %q: %v vs %v", key, got, want)
		}
	}
}

// TestRingFailoverIsSuccessor: the property internal/server's replica
// placement relies on — when a key's owner is excluded, the first live
// candidate is Order(key)[1], so placing the replica there makes failover
// land exactly on the replica holder.
func TestRingFailoverIsSuccessor(t *testing.T) {
	r := NewRing([]string{"n0", "n1", "n2", "n3"}, 64)
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("s-%d", i)
		order := r.Order(key)
		down := order[0]
		first := ""
		for _, m := range order {
			if m != down {
				first = m
				break
			}
		}
		if first != order[1] {
			t.Fatalf("failover for %q landed on %s, replica is on %s", key, first, order[1])
		}
	}
}

func TestParseMembers(t *testing.T) {
	ms, err := ParseMembers("a=127.0.0.1:7467=http://h1:8467, b=127.0.0.1:7468=http://h2:8467/")
	if err != nil {
		t.Fatal(err)
	}
	want := []Member{
		{Name: "a", PeerAddr: "127.0.0.1:7467", PublicURL: "http://h1:8467"},
		{Name: "b", PeerAddr: "127.0.0.1:7468", PublicURL: "http://h2:8467"},
	}
	if !reflect.DeepEqual(ms, want) {
		t.Fatalf("got %+v, want %+v", ms, want)
	}
	for _, bad := range []string{"", "a=only-two-fields", "nameonly"} {
		if _, err := ParseMembers(bad); err == nil {
			t.Fatalf("ParseMembers(%q) accepted a bad spec", bad)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	members := []Member{
		{Name: "a", PeerAddr: ":1", PublicURL: "http://a"},
		{Name: "b", PeerAddr: ":2", PublicURL: "http://b"},
	}
	good := Config{Node: "a", Members: members}.WithDefaults()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []Config{
		{Node: "", Members: members},                                            // no identity
		{Node: "c", Members: members},                                           // not a member
		{Node: "a", Members: members[:1]},                                       // one node is not a cluster
		{Node: "a", Members: append([]Member{members[0]}, members[0])},          // duplicate
		{Node: "a", Members: members, Replication: "eventually-maybe"},          // bad policy
		{Node: "a", Members: []Member{{Name: "a", PublicURL: "x"}, members[1]}}, // missing peer addr
	}
	for i, c := range cases {
		if c.Replication == "" {
			c.Replication = ReplSync
		}
		if err := c.Validate(); err == nil {
			t.Fatalf("case %d: invalid config accepted: %+v", i, c)
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := map[byte][]byte{
		frameHello:   []byte(`{"node":"a","purpose":"control"}`),
		frameRecord:  []byte(`{"seq":7}`),
		frameCutover: nil,
	}
	for typ, p := range payloads {
		if err := WriteFrame(&buf, typ, p); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < len(payloads); i++ {
		typ, p, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		want := payloads[typ]
		if !bytes.Equal(p, want) && !(len(p) == 0 && len(want) == 0) {
			t.Fatalf("frame %c payload %q, want %q", typ, p, want)
		}
	}
}

// memReplica is a follower's replica store held in memory, recording
// what the peer server asked of it and in what order.
type memReplica struct {
	mu         sync.Mutex // the handler goroutine writes, the test reads
	checkpoint []byte
	log        []wal.Record
	calls      []string
	promoted   *Moved
}

func (r *memReplica) AppendRecord(rec *wal.Record, _ string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.log = append(r.log, *rec)
	r.calls = append(r.calls, "append")
	return nil
}

func (r *memReplica) PutCheckpoint(image []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkpoint, r.log = image, nil
	r.calls = append(r.calls, "checkpoint")
	return nil
}

func (r *memReplica) Sync() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.calls = append(r.calls, "sync")
	return nil
}

func (r *memReplica) Promote(m Moved) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.promoted = &m
	r.calls = append(r.calls, "promote")
	return nil
}

func (r *memReplica) Close() error { return nil }

// memBackend hands out one memReplica per session and refuses the
// session named owned.
type memBackend struct {
	owned    string
	mu       sync.Mutex
	replicas map[string]*memReplica
}

func (b *memBackend) OpenReplica(session string) (Replica, error) {
	if session == b.owned {
		return nil, fmt.Errorf("session %s is owned here", session)
	}
	r := &memReplica{}
	b.mu.Lock()
	b.replicas[session] = r
	b.mu.Unlock()
	return r, nil
}

// replica returns session's replica, locked for the test to read; the
// handler that feeds it is parked on its next frame by then.
func (b *memBackend) replica(session string) *memReplica {
	b.mu.Lock()
	r := b.replicas[session]
	b.mu.Unlock()
	r.mu.Lock()
	return r
}

func (b *memBackend) HandleMoved(Moved)        {}
func (b *memBackend) HandlePing(Ping)          {}
func (b *memBackend) DropReplica(string) error { return nil }

// TestStateRoundTrip: a session state written by WriteState arrives at
// the follower exactly — checkpoint image, then every tail record with
// its sequence number — and is synced before the barrier's ack; live
// frames follow, a checkpoint discarding the records it covers; the
// hand-off promotes under the claim it carries.
func TestStateRoundTrip(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	backend := &memBackend{owned: "s-owned", replicas: make(map[string]*memReplica)}
	srv := NewPeerServer(ln, backend, time.Second, slog.New(slog.NewTextHandler(io.Discard, nil)))
	go srv.Serve()
	defer srv.Close()
	client := NewClient("n0", time.Second)
	defer client.Close()
	peer := Member{Name: "n1", PeerAddr: ln.Addr().String()}

	st := SessionState{
		Checkpoint: []byte("checkpoint-image-bytes"),
		Tail: []wal.Record{
			{Seq: 5, Op: wal.OpAssert, Facts: []wal.Fact{{Template: "item"}}},
			{Seq: 6, Op: wal.OpRun, Count: 3},
		},
	}
	stream, err := client.OpenReplStream(peer, "s1", st)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	// The sync ack has been read, so the follower's handler is parked on
	// the next frame: its replica is ours to inspect.
	rep := backend.replica("s1")
	if !bytes.Equal(rep.checkpoint, st.Checkpoint) {
		t.Fatalf("checkpoint image differs: %q vs %q", rep.checkpoint, st.Checkpoint)
	}
	if !reflect.DeepEqual(rep.log, st.Tail) {
		t.Fatalf("tail differs:\n got %+v\nwant %+v", rep.log, st.Tail)
	}
	if want := []string{"checkpoint", "append", "append", "sync"}; !reflect.DeepEqual(rep.calls, want) {
		t.Fatalf("sync phase ran %v, want %v (synced last, before the ack)", rep.calls, want)
	}
	rep.mu.Unlock()

	// Live: a record, then a checkpoint that covers it, then one more.
	if err := stream.SendRecord(&wal.Record{Seq: 7, Op: wal.OpRun}, ""); err != nil {
		t.Fatal(err)
	}
	if err := stream.SendCheckpoint([]byte("newer-image")); err != nil {
		t.Fatal(err)
	}
	if err := stream.SendRecord(&wal.Record{Seq: 9, Op: wal.OpRun}, "trace-ignored"); err != nil {
		t.Fatal(err)
	}
	rep.mu.Lock()
	if string(rep.checkpoint) != "newer-image" || len(rep.log) != 1 || rep.log[0].Seq != 9 {
		t.Fatalf("checkpoint did not supersede the log: image %q, log %+v", rep.checkpoint, rep.log)
	}
	rep.mu.Unlock()

	claim := Moved{Session: "s1", Target: "n1", Seq: 4}
	if err := stream.HandOff(claim); err != nil {
		t.Fatal(err)
	}
	rep.mu.Lock()
	defer rep.mu.Unlock()
	if rep.promoted == nil || *rep.promoted != claim {
		t.Fatalf("hand-off promoted under %+v, want %+v", rep.promoted, claim)
	}

	// A follower that refuses the session refuses the attach.
	if _, err := client.OpenReplStream(peer, "s-owned", st); err == nil {
		t.Fatal("attach to a node that owns the session succeeded")
	}

	// A hand-off ahead of the sync barrier is refused, not run on a
	// half-synced replica.
	pc, err := client.hello(peer.PeerAddr, PurposeReplicate, "s2")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.close()
	err = pc.send(frameMoved, claim)
	if early := backend.replica("s2"); err == nil || early.promoted != nil {
		t.Fatalf("hand-off before the barrier: err %v, promoted %+v", err, early.promoted)
	}
}
