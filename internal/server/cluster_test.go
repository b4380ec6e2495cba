package server

// Cluster-mode coverage: an in-process multi-node harness (pre-bound peer
// listeners, real TCP between nodes), ownership routing by proxy and by
// redirect, synchronous WAL replication with replica promotion after a
// node kill, live migration via the admin move endpoint, and the
// session-state stream round trip that both replication and migration
// ride on.

import (
	"bytes"
	"context"
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

// TestClusterStateStreamRoundTrip: the migration/replication transport —
// checkpoint image plus WAL tail through an io.Pipe — reproduces a
// session byte-identically, including gensym values and time tags.
func TestClusterStateStreamRoundTrip(t *testing.T) {
	cfg := Config{DataDir: t.TempDir(), Fsync: wal.PolicyAlways, CheckpointEvery: 3}
	s, ts := newTestServer(t, cfg)
	info := createSession(t, ts.URL, createSessionRequest{Source: recoverySrc, Workers: 2})
	url := ts.URL + "/api/v1/sessions/" + info.ID
	driveSession(t, url) // 5 mutations: a checkpoint plus a live WAL tail
	wantSnap := exportSnapshot(t, url)
	wantInfo := getInfo(t, url)

	ctx := context.Background()
	sess, err := s.sessionByID(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.acquire(ctx); err != nil {
		t.Fatal(err)
	}
	st, err := s.diskState(sess)
	sess.release()
	if err != nil {
		t.Fatal(err)
	}
	if st.Checkpoint == nil || len(st.Tail) == 0 {
		t.Fatalf("test premise broken: want checkpoint AND tail, got %d checkpoint bytes, %d tail records",
			len(st.Checkpoint), len(st.Tail))
	}

	// Stream through an io.Pipe — the same shape the peer protocol uses.
	pr, pw := io.Pipe()
	var got cluster.SessionState
	done := make(chan error, 1)
	go func() {
		var rerr error
		got, rerr = cluster.ReadState(pr)
		done <- rerr
	}()
	if err := cluster.WriteState(pw, st); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if string(got.Checkpoint) != string(st.Checkpoint) {
		t.Fatalf("checkpoint image changed in transit: %d vs %d bytes", len(got.Checkpoint), len(st.Checkpoint))
	}
	if !reflect.DeepEqual(got.Tail, st.Tail) {
		t.Fatalf("WAL tail changed in transit:\n got %+v\nwant %+v", got.Tail, st.Tail)
	}

	// Install the streamed state into a fresh data directory the way
	// InstallMigrated does, and serve it: the restored session must match
	// the original byte for byte (gensym ids and time tags included).
	dirB := t.TempDir()
	sessDir := filepath.Join(dirB, "sessions", info.ID)
	if err := os.MkdirAll(sessDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(sessDir, checkpointFile), got.Checkpoint, 0o644); err != nil {
		t.Fatal(err)
	}
	l, _, err := wal.Open(filepath.Join(sessDir, walFile), wal.Options{Policy: wal.PolicyAlways})
	if err != nil {
		t.Fatal(err)
	}
	for i := range got.Tail {
		if err := l.AppendKeepSeq(&got.Tail[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	_, tsB := newTestServer(t, Config{DataDir: dirB, Fsync: wal.PolicyAlways})
	urlB := tsB.URL + "/api/v1/sessions/" + info.ID
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
	info := createSession(t, tc.url("n0"), createSessionRequest{Source: recoverySrc, Workers: 2})
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
	info := createSession(t, tc.url("n0"), createSessionRequest{Source: recoverySrc, Workers: 2})
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
