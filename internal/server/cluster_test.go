package server

// Cluster-mode coverage: an in-process multi-node harness (pre-bound peer
// listeners, real TCP between nodes), ownership routing by proxy and by
// redirect (bodies relayed, not collected), synchronous WAL replication
// with replica promotion after a node kill, live migration via the admin
// move endpoint — attach + hand-off, under writes, to the replica holder,
// refused and with the ack lost — and the session-state stream round trip
// all of it rides on.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"parulel/internal/cluster"
	"parulel/internal/wal"
	"parulel/internal/wm"
)

// testCluster is n paruleld servers wired into one cluster over real
// loopback TCP, with per-node data directories.
type testCluster struct {
	t       *testing.T
	names   []string
	servers map[string]*Server
	https   map[string]*httptest.Server
	dirs    map[string]string
	killed  map[string]bool
}

// newTestCluster boots n nodes. mutate, when non-nil, adjusts each node's
// config (cfg.Cluster is set and shared-defaults applied afterwards).
func newTestCluster(t *testing.T, n int, mutate func(name string, cfg *Config)) *testCluster {
	t.Helper()
	tc := &testCluster{
		t:       t,
		servers: make(map[string]*Server),
		https:   make(map[string]*httptest.Server),
		dirs:    make(map[string]string),
		killed:  make(map[string]bool),
	}
	peerLns := make([]net.Listener, n)
	pubs := make([]*httptest.Server, n)
	members := make([]cluster.Member, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("n%d", i)
		tc.names = append(tc.names, name)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		peerLns[i] = ln
		pubs[i] = httptest.NewUnstartedServer(http.NotFoundHandler())
		members[i] = cluster.Member{
			Name:      name,
			PeerAddr:  ln.Addr().String(),
			PublicURL: "http://" + pubs[i].Listener.Addr().String(),
		}
	}
	for i, name := range tc.names {
		dir := t.TempDir()
		cfg := Config{
			DataDir: dir,
			Fsync:   wal.PolicyAlways,
			Cluster: &cluster.Config{
				Node:         name,
				Members:      members,
				PeerListener: peerLns[i],
				PingInterval: 50 * time.Millisecond,
				SuspectAfter: 2,
			},
		}
		if mutate != nil {
			mutate(name, &cfg)
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		pubs[i].Config.Handler = s
		pubs[i].Start()
		tc.servers[name] = s
		tc.https[name] = pubs[i]
		tc.dirs[name] = dir
	}
	t.Cleanup(func() {
		for _, name := range tc.names {
			if tc.killed[name] {
				continue
			}
			tc.https[name].Close()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			_ = tc.servers[name].Close(ctx)
			cancel()
		}
	})
	return tc
}

func (tc *testCluster) url(name string) string { return tc.https[name].URL }

// kill simulates a node death: client connections dropped, public
// listener closed, peer listener and ping loop stopped — no drain.
func (tc *testCluster) kill(name string) {
	tc.t.Helper()
	tc.killed[name] = true
	tc.https[name].CloseClientConnections()
	tc.https[name].Close()
	tc.servers[name].stopCluster()
}

// waitSnapshot polls via the node until a request for the session succeeds,
// returning the response body of the first 200. Fails the test when the
// cluster does not converge within the deadline.
func (tc *testCluster) waitSnapshot(via, id string) string {
	tc.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	var last string
	for time.Now().Before(deadline) {
		resp, err := http.Get(tc.url(via) + "/api/v1/sessions/" + id + "/snapshot")
		if err != nil {
			last = err.Error()
			time.Sleep(25 * time.Millisecond)
			continue
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return string(body)
		}
		last = fmt.Sprintf("status %d: %s", resp.StatusCode, body)
		time.Sleep(25 * time.Millisecond)
	}
	tc.t.Fatalf("session %s never became servable via %s: %s", id, via, last)
	return ""
}

// owner returns the node name that minted the session id (s-<node>-<n>).
func sessionHome(id string) string {
	parts := strings.Split(id, "-")
	if len(parts) < 3 {
		return ""
	}
	return strings.Join(parts[1:len(parts)-1], "-")
}

// TestClusterSessionPlacement: each node mints ids it owns, and every
// node agrees on the owner.
func TestClusterSessionPlacement(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	for _, name := range tc.names {
		info := createSession(t, tc.url(name), createSessionRequest{Source: recoverySrc})
		if home := sessionHome(info.ID); home != name {
			t.Fatalf("session %q minted on %s claims home %q", info.ID, name, home)
		}
		for _, other := range tc.names {
			cs := tc.servers[other].cluster
			if got := cs.ring.Owner(info.ID); got != name {
				t.Fatalf("node %s thinks %s owns %q; %s minted it", other, got, info.ID, name)
			}
		}
	}
}

// TestClusterProxyAndRedirect: a non-owner proxies by default and 307
// redirects when configured; the owner serves locally either way.
func TestClusterProxyAndRedirect(t *testing.T) {
	tc := newTestCluster(t, 3, func(name string, cfg *Config) {
		if name == "n1" {
			cfg.Cluster.Redirect = true
		}
	})
	info := createSession(t, tc.url("n0"), createSessionRequest{Source: recoverySrc})
	urlOwner := tc.url("n0") + "/api/v1/sessions/" + info.ID
	assertTasks(t, urlOwner, 0, 3)
	runSession(t, urlOwner)
	want := exportSnapshot(t, urlOwner)

	// n2 proxies to the owner transparently.
	if got := exportSnapshot(t, tc.url("n2")+"/api/v1/sessions/"+info.ID); got != want {
		t.Fatalf("proxied snapshot differs:\n-- got --\n%s\n-- want --\n%s", got, want)
	}
	var m metricsPayload
	if st := call(t, "GET", tc.url("n2")+"/metrics", nil, &m); st != http.StatusOK {
		t.Fatalf("metrics: status %d", st)
	}
	if m.Cluster == nil || m.Cluster.Proxied == 0 {
		t.Fatalf("proxying not reflected in metrics: %+v", m.Cluster)
	}

	// n1 answers with a 307 naming the owner.
	noFollow := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	resp, err := noFollow.Get(tc.url("n1") + "/api/v1/sessions/" + info.ID + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("redirect-mode node answered %d, want 307", resp.StatusCode)
	}
	loc := resp.Header.Get("Location")
	if !strings.HasPrefix(loc, tc.url("n0")) {
		t.Fatalf("redirect location %q does not point at the owner %s", loc, tc.url("n0"))
	}
	if got := exportSnapshot(t, strings.TrimSuffix(loc, "/snapshot")); got != want {
		t.Fatalf("redirected snapshot differs")
	}

	// Forwarded marker breaks loops: a request tagged as forwarded is
	// served locally even by a non-owner (here: 404, not a bounce).
	req, _ := http.NewRequest("GET", tc.url("n2")+"/api/v1/sessions/no-such-session", nil)
	req.Header.Set(forwardedHeader, "n0")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("forwarded request for unknown session: status %d, want 404", resp2.StatusCode)
	}

	// Cluster status reports all members up.
	var status struct {
		Members []cluster.PeerStatus `json:"members"`
	}
	if st := call(t, "GET", tc.url("n0")+"/cluster", nil, &status); st != http.StatusOK {
		t.Fatalf("cluster status: %d", st)
	}
	for _, ps := range status.Members {
		if !ps.Up {
			t.Fatalf("member %s reported down on a healthy cluster", ps.Name)
		}
	}
}

// TestClusterStateStreamRoundTrip: the one store-transfer primitive —
// checkpoint image plus WAL tail, written by WriteState and applied by a
// real follower — lands in the replica directory unchanged, and the
// promotion over that directory serves the session byte-identically,
// gensym values, time tags and counters included.
func TestClusterStateStreamRoundTrip(t *testing.T) {
	tc := newTestCluster(t, 2, func(_ string, cfg *Config) {
		cfg.CheckpointEvery = 3
		cfg.Cluster.Replication = cluster.ReplOff // the test drives the stream itself
	})
	n0, n1 := tc.servers["n0"], tc.servers["n1"]
	info := createSession(t, tc.url("n0"), createSessionRequest{Source: recoverySrc})
	url := tc.url("n0") + "/api/v1/sessions/" + info.ID
	driveSession(t, url) // 5 mutations: a checkpoint plus a live WAL tail
	wantSnap := exportSnapshot(t, url)
	wantInfo := getInfo(t, url)

	ctx := context.Background()
	sess, err := n0.holdSession(ctx, info.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	st, err := n0.diskState(sess)
	sess.release()
	if err != nil {
		t.Fatal(err)
	}
	if st.Checkpoint == nil || len(st.Tail) == 0 {
		t.Fatalf("test premise broken: want checkpoint AND tail, got %d checkpoint bytes, %d tail records",
			len(st.Checkpoint), len(st.Tail))
	}

	// Attach: hello, WriteState, the barrier's ack. On return the replica
	// directory holds the state, fsynced.
	stream, err := n0.cluster.client.OpenReplStream(n0.cluster.members["n1"], info.ID, st)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	replDir := filepath.Join(tc.dirs["n1"], "replicas", info.ID)
	image, err := os.ReadFile(filepath.Join(replDir, checkpointFile))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(image, st.Checkpoint) {
		t.Fatalf("checkpoint image changed in transit: %d vs %d bytes", len(image), len(st.Checkpoint))
	}
	scan, err := wal.ScanFile(filepath.Join(replDir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(scan.Records, st.Tail) {
		t.Fatalf("WAL tail changed in transit:\n got %+v\nwant %+v", scan.Records, st.Tail)
	}

	// Hand off: the follower promotes the directory and owns the session.
	mv := cluster.Moved{Session: info.ID, Target: "n1", Seq: 1}
	if err := stream.HandOff(mv); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(replDir); !os.IsNotExist(err) {
		t.Fatalf("promotion left the replica directory behind: %v", err)
	}
	if ov, ok := n1.cluster.override(info.ID); !ok || ov != mv {
		t.Fatalf("promotion recorded claim %+v, want %+v", ov, mv)
	}
	urlB := tc.url("n1") + "/api/v1/sessions/" + info.ID
	gotInfo := getInfo(t, urlB)
	if gotInfo.Cycles != wantInfo.Cycles || gotInfo.Firings != wantInfo.Firings ||
		gotInfo.Runs != wantInfo.Runs || gotInfo.WMSize != wantInfo.WMSize {
		t.Fatalf("restored counters differ:\n got %+v\nwant %+v", gotInfo, wantInfo)
	}
	if gotSnap := exportSnapshot(t, urlB); gotSnap != wantSnap {
		t.Fatalf("restored snapshot differs:\n-- got --\n%s\n-- want --\n%s", gotSnap, wantSnap)
	}
}

// TestClusterReplicationFailover: acked mutations survive the owner's
// death. The replica holder (the next member in the session's ring
// order) promotes its replica on the first request after the cluster
// marks the owner down, and serves the exact pre-kill state.
func TestClusterReplicationFailover(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	info := createSession(t, tc.url("n0"), createSessionRequest{Source: recoverySrc})
	url := tc.url("n0") + "/api/v1/sessions/" + info.ID
	driveSession(t, url)
	want := exportSnapshot(t, url)

	// The replica must be on the session's ring successor.
	replicaOn := tc.servers["n0"].cluster.ring.Order(info.ID)[1]
	replDir := filepath.Join(tc.dirs[replicaOn], "replicas", info.ID)
	if _, err := os.Stat(filepath.Join(replDir, walFile)); err != nil {
		t.Fatalf("no replica on ring successor %s: %v", replicaOn, err)
	}

	tc.kill("n0")

	// Ask a node that does NOT hold the replica: it must route to the
	// promoted owner once failure detection converges.
	var via string
	for _, name := range tc.names {
		if name != "n0" && name != replicaOn {
			via = name
		}
	}
	if got := tc.waitSnapshot(via, info.ID); got != want {
		t.Fatalf("failover lost acked state:\n-- got --\n%s\n-- want --\n%s", got, want)
	}

	var m metricsPayload
	if st := call(t, "GET", tc.url(replicaOn)+"/metrics", nil, &m); st != http.StatusOK {
		t.Fatalf("metrics: status %d", st)
	}
	if m.Cluster == nil || m.Cluster.Promotions == 0 {
		t.Fatalf("promotion not reflected in %s's metrics: %+v", replicaOn, m.Cluster)
	}

	// The promoted session is a full primary: it accepts new mutations.
	newURL := tc.url(replicaOn) + "/api/v1/sessions/" + info.ID
	assertTasks(t, newURL, 100, 102)
	if run := runSession(t, newURL); run.Firings == 0 {
		t.Fatal("promoted session fired nothing on new facts")
	}
}

// TestClusterAdminMove: POST /cluster/move live-migrates a session; the
// move can be requested via any node, the state arrives byte-identical,
// and routing converges cluster-wide to the new owner.
func TestClusterAdminMove(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	info := createSession(t, tc.url("n0"), createSessionRequest{Source: recoverySrc})
	url := tc.url("n0") + "/api/v1/sessions/" + info.ID
	driveSession(t, url)
	want := exportSnapshot(t, url)

	// Ask n1 (a non-owner) to move the session to n2: the request is
	// forwarded to the owner, which executes the transfer.
	var moved struct {
		Moved  bool   `json:"moved"`
		Target string `json:"target"`
	}
	if st := call(t, "POST", tc.url("n1")+"/cluster/move",
		map[string]string{"session": info.ID, "target": "n2"}, &moved); st != http.StatusOK {
		t.Fatalf("move: status %d", st)
	}
	if !moved.Moved || moved.Target != "n2" {
		t.Fatalf("unexpected move result: %+v", moved)
	}

	// The old owner no longer holds the session's files.
	if _, err := os.Stat(filepath.Join(tc.dirs["n0"], "sessions", info.ID)); !os.IsNotExist(err) {
		t.Fatalf("old owner kept the migrated session's files: %v", err)
	}
	// The new owner serves the identical state — via itself and via the
	// old owner (which now proxies).
	for _, via := range []string{"n2", "n0"} {
		if got := tc.waitSnapshot(via, info.ID); got != want {
			t.Fatalf("migrated snapshot differs via %s", via)
		}
	}
	// Routing reflects the override everywhere.
	for _, name := range []string{"n0", "n1", "n2"} {
		var status struct {
			Route clusterRoute `json:"route"`
		}
		if st := call(t, "GET", tc.url(name)+"/cluster?session="+info.ID, nil, &status); st != http.StatusOK {
			t.Fatalf("cluster status via %s: %d", name, st)
		}
		if status.Route.Owner != "n2" || !status.Route.Overridden {
			t.Fatalf("node %s routes %q to %+v, want overridden owner n2", name, info.ID, status.Route)
		}
	}
	// The moved session keeps working and keeps replicating: mutations
	// accepted by n2 re-attach a replica on another node.
	newURL := tc.url("n2") + "/api/v1/sessions/" + info.ID
	assertTasks(t, newURL, 50, 53)
	if run := runSession(t, newURL); run.Firings == 0 {
		t.Fatal("migrated session fired nothing on new facts")
	}
	var m metricsPayload
	if st := call(t, "GET", tc.url("n2")+"/metrics", nil, &m); st != http.StatusOK {
		t.Fatalf("metrics: status %d", st)
	}
	if m.Cluster == nil || m.Cluster.MigrationsIn == 0 || m.Cluster.ReplStreams == 0 {
		t.Fatalf("migration/replication not reflected in n2's metrics: %+v", m.Cluster)
	}

	// Moving a session that does not exist 404s.
	if st := call(t, "POST", tc.url("n0")+"/cluster/move",
		map[string]string{"session": "s-n0-9999", "target": "n2"}, nil); st != http.StatusNotFound {
		t.Fatalf("move of unknown session: status %d, want 404", st)
	}
}

// clusterChaosWriter hammers one session through a set of endpoints,
// failing over to the next endpoint when one stops answering, and
// records exactly which fact keys were acknowledged.
type clusterChaosWriter struct {
	id    int
	urls  []string
	cur   int
	acked []string
}

func (w *clusterChaosWriter) run(t *testing.T, sessID string, stop <-chan struct{}) {
	for n := 0; ; n++ {
		select {
		case <-stop:
			return
		default:
		}
		key := fmt.Sprintf("c%d-%d", w.id, n)
		req := assertRequest{Facts: []factPayload{itemFact(key)}}
		// Try each endpoint once; an ack from any of them counts.
		for attempt := 0; attempt < len(w.urls); attempt++ {
			url := w.urls[(w.cur+attempt)%len(w.urls)]
			st, err := tryCall("POST", url+"/api/v1/sessions/"+sessID+"/facts", req)
			if err == nil && st == http.StatusOK {
				w.cur = (w.cur + attempt) % len(w.urls)
				w.acked = append(w.acked, key)
				break
			}
		}
	}
}

// TestClusterKillNodeMidSoak is the acceptance chaos check: three nodes
// under concurrent writes to sessions on every node, one node killed
// mid-run, zero acked mutations lost.
func TestClusterKillNodeMidSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test skipped with -short")
	}
	tc := newTestCluster(t, 3, nil)
	urls := make([]string, len(tc.names))
	sessions := make([]string, len(tc.names))
	for i, name := range tc.names {
		urls[i] = tc.url(name)
		info := createSession(t, tc.url(name), createSessionRequest{Source: contractSrc})
		sessions[i] = info.ID
	}

	ws := make([]*clusterChaosWriter, 6)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := range ws {
		ws[i] = &clusterChaosWriter{id: i, urls: urls, cur: i % len(urls)}
		wg.Add(1)
		go func(w *clusterChaosWriter, sessID string) {
			defer wg.Done()
			w.run(t, sessID, stop)
		}(ws[i], sessions[i%len(sessions)])
	}

	time.Sleep(400 * time.Millisecond)
	tc.kill("n0") // takes down one owner AND one replica holder
	time.Sleep(600 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Every session must be servable from some live node with every acked
	// fact present — including the session n0 owned.
	liveURLs := []string{tc.url("n1"), tc.url("n2")}
	for si, sessID := range sessions {
		var keys map[string]bool
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			st, err := tryCall("GET", liveURLs[si%2]+"/api/v1/sessions/"+sessID+"/wm?template=item", nil)
			if err == nil && st == http.StatusOK {
				keys = presentKeys(t, liveURLs[si%2]+"/api/v1/sessions/"+sessID)
				break
			}
			time.Sleep(50 * time.Millisecond)
		}
		if keys == nil {
			t.Fatalf("session %s never became servable after the kill", sessID)
		}
		lost := 0
		for wi, w := range ws {
			if sessions[wi%len(sessions)] != sessID {
				continue
			}
			for _, key := range w.acked {
				if !keys[key] {
					lost++
					t.Errorf("acked fact %s lost from session %s", key, sessID)
				}
			}
		}
		if lost > 0 {
			t.Logf("session %s: %d acked facts lost, %d present", sessID, lost, len(keys))
		}
	}
}

// ackGate wraps a node's peer listener so a test can park a replication
// stream mid-send: once armed, the node's next write on a connection
// opened for replication — the ack of the frame it just took — waits for
// release, and parked reports that it is waiting.
type ackGate struct {
	net.Listener
	armed   atomic.Bool
	parked  chan struct{}
	release chan struct{}
}

func newAckGate(ln net.Listener) *ackGate {
	return &ackGate{Listener: ln, parked: make(chan struct{}), release: make(chan struct{})}
}

func (g *ackGate) Accept() (net.Conn, error) {
	c, err := g.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &gatedConn{Conn: c, g: g}, nil
}

// gatedConn is read and written by its one peer-server handler goroutine.
type gatedConn struct {
	net.Conn
	g     *ackGate
	hello []byte // what arrived before the first write: the hello frame
	wrote bool
}

func (c *gatedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if !c.wrote {
		c.hello = append(c.hello, p[:n]...)
	}
	return n, err
}

func (c *gatedConn) Write(p []byte) (int, error) {
	c.wrote = true
	if bytes.Contains(c.hello, []byte(`"purpose":"replicate"`)) && c.g.armed.CompareAndSwap(true, false) {
		c.g.parked <- struct{}{}
		<-c.g.release
	}
	return c.Conn.Write(p)
}

// TestClusterSessionClosedMidReplication: deleting a session, or dropping
// it because its ownership moved, evicts it without its slot — while the
// slot holder may be parked inside a replication send. The evicting side
// closes the stream; the holder sees the send fail, detaches and answers.
// Run under -race: the two sides used to share sess.repl unsynchronized,
// and the holder dereferenced the pointer the evictor had just cleared.
func TestClusterSessionClosedMidReplication(t *testing.T) {
	for name, closeSession := range map[string]func(t *testing.T, tc *testCluster, id string){
		"delete": func(t *testing.T, tc *testCluster, id string) {
			if st, err := tryCall("DELETE", tc.url("n0")+"/api/v1/sessions/"+id, nil); err != nil || st != http.StatusOK {
				t.Errorf("delete: status %d, %v", st, err)
			}
		},
		"ownership moved": func(_ *testing.T, tc *testCluster, id string) {
			(&clusterBackend{tc.servers["n0"]}).HandleMoved(cluster.Moved{Session: id, Target: "n1", Seq: 1})
		},
	} {
		t.Run(name, func(t *testing.T) {
			var gate *ackGate
			tc := newTestCluster(t, 2, func(name string, cfg *Config) {
				if name == "n1" {
					gate = newAckGate(cfg.Cluster.PeerListener)
					cfg.Cluster.PeerListener = gate
				}
			})
			defer close(gate.release) // before the cluster's cleanup waits on n1's peer handlers
			info := createSession(t, tc.url("n0"), createSessionRequest{Source: recoverySrc})
			url := tc.url("n0") + "/api/v1/sessions/" + info.ID
			assertTasks(t, url, 0, 1) // attaches the stream to n1

			gate.armed.Store(true)
			answered := make(chan error, 1)
			go func() {
				var req assertRequest
				req.Facts = append(req.Facts, factPayload{Template: "task", Fields: map[string]jsonValue{"n": {V: wm.Int(1)}}})
				_, err := tryCall("POST", url+"/facts", req)
				answered <- err
			}()
			select {
			case <-gate.parked:
			case <-time.After(5 * time.Second):
				t.Fatal("the replicated mutation never reached the follower")
			}
			closeSession(t, tc, info.ID)
			select {
			case err := <-answered:
				if err != nil {
					t.Fatalf("the parked mutation got no answer (its handler died?): %v", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("closing the session did not unpark the replication send")
			}
		})
	}
}

// clusterMetrics scrapes one node's cluster counters.
func (tc *testCluster) clusterMetrics(name string) clusterPayload {
	tc.t.Helper()
	var m metricsPayload
	if st := call(tc.t, "GET", tc.url(name)+"/metrics", nil, &m); st != http.StatusOK || m.Cluster == nil {
		tc.t.Fatalf("metrics of %s: status %d, cluster %+v", name, st, m.Cluster)
	}
	return *m.Cluster
}

// move asks via to move the session to target, returning the status.
func (tc *testCluster) move(via, id, target string) int {
	tc.t.Helper()
	return call(tc.t, "POST", tc.url(via)+"/cluster/move", map[string]string{"session": id, "target": target}, nil)
}

// assertMoved checks what a 200 from POST /cluster/move promises: the
// target holds the session's directory, the source holds nothing of it.
func (tc *testCluster) assertMoved(id, from, to string) {
	tc.t.Helper()
	if _, err := os.Stat(filepath.Join(tc.dirs[to], "sessions", id, walFile)); err != nil {
		tc.t.Fatalf("target %s does not hold the moved session: %v", to, err)
	}
	for _, sub := range []string{"sessions", "replicas"} {
		if _, err := os.Stat(filepath.Join(tc.dirs[from], sub, id)); !os.IsNotExist(err) {
			tc.t.Fatalf("source %s kept %s/%s: %v", from, sub, id, err)
		}
	}
	if _, err := os.Stat(filepath.Join(tc.dirs[to], "replicas", id)); !os.IsNotExist(err) {
		tc.t.Fatalf("target %s kept the replica directory it promoted: %v", to, err)
	}
}

// TestClusterMoveToReplicaHolder: moving a session to the node that
// already follows it needs no second state sync — the live stream is
// caught up, so the move is the hand-off alone.
func TestClusterMoveToReplicaHolder(t *testing.T) {
	tc := newTestCluster(t, 3, func(_ string, cfg *Config) { cfg.CheckpointEvery = 3 })
	info := createSession(t, tc.url("n0"), createSessionRequest{Source: recoverySrc})
	url := tc.url("n0") + "/api/v1/sessions/" + info.ID
	driveSession(t, url)
	want := exportSnapshot(t, url)
	wantInfo := getInfo(t, url)

	holder := tc.servers["n0"].cluster.ring.Order(info.ID)[1]
	before := tc.clusterMetrics("n0")
	if before.ReplStreams != 1 {
		t.Fatalf("test premise broken: %d replication streams opened before the move, want 1", before.ReplStreams)
	}
	if st := tc.move("n0", info.ID, holder); st != http.StatusOK {
		t.Fatalf("move: status %d", st)
	}
	tc.assertMoved(info.ID, "n0", holder)
	after := tc.clusterMetrics("n0")
	if after.ReplStreams != before.ReplStreams {
		t.Fatalf("move to the replica holder opened %d more stream(s): a second full sync", after.ReplStreams-before.ReplStreams)
	}
	if after.MigrationsOut != 1 {
		t.Fatalf("source counts %d migrations out, want 1", after.MigrationsOut)
	}
	if m := tc.clusterMetrics(holder); m.MigrationsIn != 1 || m.Promotions != 0 {
		t.Fatalf("target counts %d migrations in, %d promotions; want 1, 0 (a hand-off is not a failover)", m.MigrationsIn, m.Promotions)
	}
	for _, via := range tc.names {
		if got := tc.waitSnapshot(via, info.ID); got != want {
			t.Fatalf("moved snapshot differs via %s:\n-- got --\n%s\n-- want --\n%s", via, got, want)
		}
	}
	newURL := tc.url(holder) + "/api/v1/sessions/" + info.ID
	if got := getInfo(t, newURL); got.Cycles != wantInfo.Cycles || got.Firings != wantInfo.Firings || got.Runs != wantInfo.Runs {
		t.Fatalf("moved counters differ:\n got %+v\nwant %+v", got, wantInfo)
	}
	// And back: the new owner's follower is whoever it picked; either way
	// the session returns intact and keeps working.
	assertTasks(t, newURL, 50, 52)
	runSession(t, newURL)
	want = exportSnapshot(t, newURL)
	if st := tc.move(holder, info.ID, "n0"); st != http.StatusOK {
		t.Fatalf("move back: status %d", st)
	}
	tc.assertMoved(info.ID, holder, "n0")
	if got := tc.waitSnapshot(holder, info.ID); got != want {
		t.Fatal("snapshot differs after moving back")
	}
}

// itemCounts lists how many item facts carry each key.
func itemCounts(t *testing.T, url string) map[string]int {
	t.Helper()
	var resp struct {
		Facts []struct {
			Fields map[string]any `json:"fields"`
		} `json:"facts"`
	}
	if st := call(t, "GET", url+"/wm?template=item", nil, &resp); st != http.StatusOK {
		t.Fatalf("wm: status %d", st)
	}
	counts := make(map[string]int, len(resp.Facts))
	for _, f := range resp.Facts {
		k, _ := f.Fields["k"].(string)
		counts[k]++
	}
	return counts
}

// TestClusterMoveUnderConcurrentWrites: writers keep asserting through
// every node while the session moves. Every acked fact is on the target,
// none twice, and from the moment the move answers 200 no request, through
// any node, finds the session missing: the target owned it before the
// source let go, and the source knows where it went before its peers do.
func TestClusterMoveUnderConcurrentWrites(t *testing.T) {
	tc := newTestCluster(t, 3, func(_ string, cfg *Config) { cfg.CheckpointEvery = 16 })
	info := createSession(t, tc.url("n0"), createSessionRequest{Source: contractSrc})
	path := "/api/v1/sessions/" + info.ID

	type outcome struct {
		key       string
		status    int
		afterMove bool
	}
	var (
		moved   atomic.Bool
		stop    = make(chan struct{})
		wg      sync.WaitGroup
		results = make([][]outcome, 2*len(tc.names))
	)
	for w := range results {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			via := tc.url(tc.names[w%len(tc.names)])
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				o := outcome{key: fmt.Sprintf("w%d-%d", w, n), afterMove: moved.Load()}
				o.status, _ = tryCall("POST", via+path+"/facts", assertRequest{Facts: []factPayload{itemFact(o.key)}})
				results[w] = append(results[w], o)
			}
		}(w)
	}
	time.Sleep(150 * time.Millisecond)
	target := "n2"
	if tc.servers["n0"].cluster.ring.Order(info.ID)[1] == target {
		target = "n1" // not the replica holder: the move is attach + hand-off
	}
	if st := tc.move("n1", info.ID, target); st != http.StatusOK {
		t.Fatalf("move under load: status %d", st)
	}
	moved.Store(true)
	tc.assertMoved(info.ID, "n0", target)
	time.Sleep(150 * time.Millisecond)
	close(stop)
	wg.Wait()

	counts := itemCounts(t, tc.url(target)+path)
	acked, ackedAfter := 0, 0
	for _, outcomes := range results {
		for _, o := range outcomes {
			if o.afterMove && o.status != http.StatusOK {
				t.Errorf("request for %s issued after the move answered %d", o.key, o.status)
			}
			if o.status != http.StatusOK {
				continue
			}
			acked++
			if o.afterMove {
				ackedAfter++
			}
			if counts[o.key] != 1 {
				t.Errorf("acked fact %s is on the target %d times", o.key, counts[o.key])
			}
		}
	}
	for k, n := range counts {
		if n > 1 {
			t.Errorf("fact %s applied %d times", k, n)
		}
	}
	if acked == 0 || ackedAfter == 0 {
		t.Fatalf("test premise broken: %d acked writes, %d after the move", acked, ackedAfter)
	}
}

// handOffGate wraps a node's peer listener so a test can lose the ack of
// a hand-off: once armed, a replication connection that has just read a
// hand-off frame is closed in place of the node's next write on it.
type handOffGate struct {
	net.Listener
	armed atomic.Bool
}

func (g *handOffGate) Accept() (net.Conn, error) {
	c, err := g.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &handOffConn{Conn: c, g: g}, nil
}

// handOffConn is read and written by its one peer-server handler
// goroutine. Live replication is one frame, one ack, so the first read
// that follows a write starts on a frame's type byte. Only that read
// decides whether a hand-off frame is coming in, and the decision holds
// until the next write: a frame that arrives in several reads keeps it.
type handOffConn struct {
	net.Conn
	g       *handOffGate
	decided bool // a read since the last write has set handOff
	handOff bool
}

func (c *handOffConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 && !c.decided {
		c.decided, c.handOff = true, p[0] == 'M'
	}
	return n, err
}

func (c *handOffConn) Write(p []byte) (int, error) {
	handOff := c.handOff
	c.decided, c.handOff = false, false
	if handOff && c.g.armed.CompareAndSwap(true, false) {
		c.Conn.Close()
		return 0, net.ErrClosed
	}
	return c.Conn.Write(p)
}

// TestClusterHandOffFailureKeepsSource: a hand-off the target refuses, or
// whose ack never arrives, leaves the session on the source — same state,
// still writable, still the node every peer routes to — and nothing of
// it on the target, even when the target had already promoted its copy.
func TestClusterHandOffFailureKeepsSource(t *testing.T) {
	for name, sabotage := range map[string]func(tc *testCluster, gate *handOffGate, id string){
		"target refuses": func(tc *testCluster, _ *handOffGate, id string) {
			// The target believes it owns the session already.
			tc.servers["n1"].store.MarkKnown(id)
		},
		"ack lost": func(_ *testCluster, gate *handOffGate, _ string) { gate.armed.Store(true) },
	} {
		t.Run(name, func(t *testing.T) {
			var gate *handOffGate
			tc := newTestCluster(t, 2, func(name string, cfg *Config) {
				if name == "n1" {
					gate = &handOffGate{Listener: cfg.Cluster.PeerListener}
					cfg.Cluster.PeerListener = gate
				}
			})
			info := createSession(t, tc.url("n0"), createSessionRequest{Source: recoverySrc})
			url := tc.url("n0") + "/api/v1/sessions/" + info.ID
			driveSession(t, url) // n1 follows it from here on
			want := exportSnapshot(t, url)

			sabotage(tc, gate, info.ID)
			if st := tc.move("n0", info.ID, "n1"); st != http.StatusInternalServerError {
				t.Fatalf("sabotaged move: status %d, want 500", st)
			}
			if got := exportSnapshot(t, url); got != want {
				t.Fatalf("failed move changed the session on its source:\n-- got --\n%s\n-- want --\n%s", got, want)
			}
			if m := tc.clusterMetrics("n0"); m.MigrationsOut != 0 {
				t.Fatalf("failed move counted as %d migrations out", m.MigrationsOut)
			}
			// The source's newer claim reaches the target, which discards
			// whatever it made of the hand-off.
			deadline := time.Now().Add(5 * time.Second)
			for tc.servers["n1"].owns(info.ID) {
				if time.Now().After(deadline) {
					t.Fatal("the target kept its copy of a session the source still owns")
				}
				time.Sleep(10 * time.Millisecond)
			}
			// Still writable, replicating again, and reachable via the peer.
			assertTasks(t, url, 100, 102)
			if run := runSession(t, url); run.Firings == 0 {
				t.Fatal("session fired nothing after the failed move")
			}
			want = exportSnapshot(t, url)
			if got := tc.waitSnapshot("n1", info.ID); got != want {
				t.Fatal("session differs via the node that failed to take it")
			}
			if _, err := os.Stat(filepath.Join(tc.dirs["n0"], "sessions", info.ID, walFile)); err != nil {
				t.Fatalf("source lost the session's files: %v", err)
			}
			// And a second, unsabotaged move goes through.
			if st := tc.move("n0", info.ID, "n1"); st != http.StatusOK {
				t.Fatalf("move after the failed one: status %d", st)
			}
			tc.assertMoved(info.ID, "n0", "n1")
			if got := tc.waitSnapshot("n0", info.ID); got != want {
				t.Fatal("snapshot differs after the second move")
			}
		})
	}
}

// TestClusterOpenReplicaRefusesOwnedSession: a node does not follow a
// session it owns, live or evicted to disk — a promotion would otherwise
// find sessions/<id> taken and serve that stale directory.
func TestClusterOpenReplicaRefusesOwnedSession(t *testing.T) {
	tc := newTestCluster(t, 2, nil)
	info := createSession(t, tc.url("n0"), createSessionRequest{Source: recoverySrc})
	n0 := tc.servers["n0"]
	backend := &clusterBackend{n0}
	check := func(state string) {
		t.Helper()
		if rep, err := backend.OpenReplica(info.ID); err == nil {
			rep.Close()
			t.Fatalf("OpenReplica accepted a session the node owns (%s)", state)
		}
		if _, err := os.Stat(filepath.Join(tc.dirs["n0"], "replicas", info.ID)); !os.IsNotExist(err) {
			t.Fatalf("refused OpenReplica left a replica directory (%s): %v", state, err)
		}
	}
	check("live in the pool")
	n0.mu.Lock()
	n0.evictLocked(n0.sessions[info.ID])
	n0.mu.Unlock()
	check("evicted, on disk")
	// The peer that really follows it is unaffected.
	assertTasks(t, tc.url("n0")+"/api/v1/sessions/"+info.ID, 0, 2)
	if _, err := os.Stat(filepath.Join(tc.dirs["n1"], "replicas", info.ID, walFile)); err != nil {
		t.Fatalf("no replica on the follower: %v", err)
	}
}

// TestClusterStreamThroughNonOwner: a paced NDJSON stream sent to a node
// that does not own the session is relayed frame by frame — the client
// writes frame 2 only after it has read frame 1's result, which a proxy
// that collects the body before dialing the owner never delivers.
func TestClusterStreamThroughNonOwner(t *testing.T) {
	tc := newTestCluster(t, 2, nil)
	info := createSession(t, tc.url("n0"), createSessionRequest{Source: contractSrc})
	frame := func(key string) []byte {
		b, err := json.Marshal(map[string]any{"facts": []factPayload{itemFact(key)}, "run": true})
		if err != nil {
			t.Fatal(err)
		}
		return append(b, '\n')
	}

	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, tc.url("n1")+"/api/v1/sessions/"+info.ID+"/stream", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	done := make(chan error, 1)
	go func() {
		done <- func() error {
			go pw.Write(frame("a")) // a pipe write waits for the transport to read it
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("status %d", resp.StatusCode)
			}
			dec := json.NewDecoder(resp.Body)
			for i, key := range []string{"b", ""} {
				var line streamFrameResult
				if err := dec.Decode(&line); err != nil {
					return fmt.Errorf("result %d: %w", i+1, err)
				}
				if line.Frame != i+1 || line.Error != "" || line.Asserted != 1 || line.Run == nil || line.Run.Firings != 1 {
					return fmt.Errorf("result %d: %+v", i+1, line)
				}
				if key == "" {
					break
				}
				if _, err := pw.Write(frame(key)); err != nil { // only now
					return err
				}
			}
			pw.Close()
			var extra streamFrameResult
			if err := dec.Decode(&extra); err != io.EOF {
				return fmt.Errorf("after the last frame: %+v, %v", extra, err)
			}
			return nil
		}()
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		pw.CloseWithError(io.ErrClosedPipe)
		t.Fatal("paced stream through a non-owner deadlocked")
	}
	if counts := itemCounts(t, tc.url("n0")+"/api/v1/sessions/"+info.ID); counts["a"] != 1 || counts["b"] != 1 {
		t.Fatalf("streamed facts on the owner: %v", counts)
	}
	if m := tc.clusterMetrics("n1"); m.Proxied == 0 {
		t.Fatal("the stream was not proxied")
	}
}
