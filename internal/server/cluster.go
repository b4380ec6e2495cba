package server

// Cluster mode glues internal/cluster's mechanics to the session pool.
// Each node owns the slice of the session-id keyspace the consistent-hash
// ring assigns it; any node accepts any request and proxies (or 307
// redirects) those for sessions it does not own. A session's WAL frames
// stream to a follower — the next distinct member in the session's ring
// preference order — so when the owner dies, the node requests fail over
// to is exactly the node holding the replica, which promotes it through
// the ordinary recovery path: cluster failover is "recovery over the
// wire". Live migration is the same two steps on request: point the
// replication stream at the target (reusing it when it already is) and
// ask the target to run that promotion, with the session slot held so
// mutations block only for the transfer itself.
//
// Explicit ownership transfers (admin moves, promotions) are recorded as
// route overrides and broadcast to every peer; pings piggyback the
// override table so nodes that were down converge after rejoining.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"net/http/httputil"
	"net/url"
	"strconv"
	"sync"
	"time"

	"parulel/internal/checkpoint"
	"parulel/internal/cluster"
	"parulel/internal/obs"
	"parulel/internal/store"
	"parulel/internal/wal"
)

// forwardedHeader marks a proxied peer request. A node receiving one
// serves it locally even if it believes another node owns the session:
// the two nodes' routing disagreed (membership churn), and bouncing the
// request back would loop.
const forwardedHeader = "X-Parulel-Forwarded"

// clusterState is one node's runtime view of the cluster.
type clusterState struct {
	cfg     cluster.Config
	members map[string]cluster.Member
	ring    *cluster.Ring
	mship   *cluster.Membership
	client  *cluster.Client
	peerSrv *cluster.PeerServer

	mu        sync.Mutex
	overrides map[string]cluster.Moved
	moveSeq   uint64
	replicas  map[string]*serverReplica // open replica handles, by session
}

// startCluster wires the node into the cluster: peer listener, health
// pings, replica root. Called from New after the store is open.
func (s *Server) startCluster(cfg cluster.Config) error {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return err
	}
	if s.store == nil {
		return errors.New("cluster: mode requires a data directory (replication streams WAL frames)")
	}
	cs := &clusterState{
		cfg:       cfg,
		members:   make(map[string]cluster.Member, len(cfg.Members)),
		mship:     cluster.NewMembership(cfg),
		client:    cluster.NewClient(cfg.Node, cfg.IOTimeout),
		overrides: make(map[string]cluster.Moved),
		replicas:  make(map[string]*serverReplica),
	}
	names := make([]string, 0, len(cfg.Members))
	for _, m := range cfg.Members {
		cs.members[m.Name] = m
		names = append(names, m.Name)
	}
	cs.ring = cluster.NewRing(names, cfg.VNodes)
	if err := s.store.EnableReplicas(); err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	ln := cfg.PeerListener
	if ln == nil {
		addr := cfg.PeerAddr
		if addr == "" {
			addr = cs.members[cfg.Node].PeerAddr
		}
		var err error
		if ln, err = net.Listen("tcp", addr); err != nil {
			return fmt.Errorf("cluster: peer listener: %w", err)
		}
	}
	cs.peerSrv = cluster.NewPeerServer(ln, &clusterBackend{s}, cfg.IOTimeout, s.cfg.Logger)
	go cs.peerSrv.Serve()
	cs.mship.Start(cfg.PingInterval, func(m cluster.Member) error {
		return cs.client.Ping(m, cs.snapshotOverrides())
	})
	s.cluster = cs
	s.metrics.Cluster = &clusterPayload{Node: cfg.Node}
	s.cfg.Logger.Info("cluster mode up",
		"node", cfg.Node, "members", len(cfg.Members), "peer_addr", ln.Addr().String(),
		"replication", cfg.Replication, "redirect", cfg.Redirect)
	return nil
}

// stopCluster tears the node out of the cluster during Close.
func (s *Server) stopCluster() {
	cs := s.cluster
	if cs == nil {
		return
	}
	cs.mship.Stop()
	cs.peerSrv.Close() // waits for its handlers, each of which closes its replica
	cs.client.Close()
}

// ---- routing ----

// override returns the explicit-transfer claim recorded for a session.
func (cs *clusterState) override(id string) (cluster.Moved, bool) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	ov, ok := cs.overrides[id]
	return ov, ok
}

// candidates returns the preference order for a session id: the route
// override's target first (an explicit transfer beats hash placement),
// then the ring walk.
func (cs *clusterState) candidates(id string) []string {
	order := cs.ring.Order(id)
	ov, ok := cs.override(id)
	if !ok {
		return order
	}
	out := make([]string, 0, len(order)+1)
	out = append(out, ov.Target)
	for _, n := range order {
		if n != ov.Target {
			out = append(out, n)
		}
	}
	return out
}

// effectiveOwner is the first live candidate — the node a request for the
// session should be served by right now. Empty when every candidate is
// down (never the case for self-owned keys: self is always up).
func (cs *clusterState) effectiveOwner(id string) string {
	return cs.mship.FirstUp(cs.candidates(id))
}

// replicaTarget picks the node that should hold id's replica: the first
// live candidate that is not this node, skipping names that already
// failed during this request. Ring property: with no override, this is
// exactly the node effectiveOwner falls back to if this node dies.
func (cs *clusterState) replicaTarget(id string, failed map[string]bool) (cluster.Member, bool) {
	for _, name := range cs.candidates(id) {
		if name == cs.cfg.Node || failed[name] || !cs.mship.Up(name) {
			continue
		}
		return cs.members[name], true
	}
	return cluster.Member{}, false
}

// routed wraps a session-scoped handler with the ownership check. Not in
// cluster mode it is the handler unchanged.
func (s *Server) routed(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		cs := s.cluster
		if cs == nil {
			h(w, r)
			return
		}
		id := r.PathValue("id")
		owner := cs.effectiveOwner(id)
		switch {
		case owner == cs.cfg.Node:
			if err := s.adoptIfNeeded(r.Context(), id); err != nil {
				writeError(w, http.StatusInternalServerError, "replica promotion failed: "+err.Error())
				return
			}
			h(w, r)
		case r.Header.Get(forwardedHeader) != "" && !cs.movedTo(id, owner):
			// A peer already decided we own this; serve locally rather than
			// bounce a routing disagreement around the cluster. A claim held
			// here is not a disagreement: a peer yet to hear of the move
			// still forwards here, and the request goes on along the claim
			// (claims only lead to newer ones, so it ends).
			h(w, r)
		case owner == "":
			writeError(w, http.StatusServiceUnavailable, fmt.Sprintf("no live owner for session %q", id))
		case cs.cfg.Redirect:
			s.metrics.inc(&s.metrics.Cluster.Redirected)
			http.Redirect(w, r, cs.members[owner].PublicURL+r.URL.RequestURI(), http.StatusTemporaryRedirect)
		default:
			s.forward(w, r, cs.members[owner])
		}
	}
}

// movedTo reports whether a claim held here names node as id's owner.
func (cs *clusterState) movedTo(id, node string) bool {
	ov, ok := cs.override(id)
	return ok && ov.Target == node
}

// forward proxies the request to a peer, tagging it against loops. Bodies
// are relayed as they arrive, both ways: an NDJSON stream whose client
// reads frame 1's result before it writes frame 2 passes through.
func (s *Server) forward(w http.ResponseWriter, r *http.Request, m cluster.Member) {
	cs := s.cluster
	s.metrics.inc(&s.metrics.Cluster.Proxied)
	base, err := url.Parse(m.PublicURL)
	if err != nil {
		writeError(w, http.StatusBadGateway, err.Error())
		return
	}
	proxySp := s.startSpan(r.Context(), stageProxy)
	proxySp.SetAttr("target", m.Name)
	defer proxySp.End()
	// Without this the HTTP/1 server drains the request body before it
	// releases the response header (see handleStream).
	_ = http.NewResponseController(w).EnableFullDuplex()
	proxy := httputil.ReverseProxy{
		FlushInterval: -1,
		Rewrite: func(pr *httputil.ProxyRequest) {
			pr.SetURL(base)
			pr.Out.Header.Set(forwardedHeader, cs.cfg.Node)
			// Hand the trace on with this hop's proxy span as the parent, so
			// the owner's ingress span nests under it (and the origin request
			// id rides along for its access log).
			if ts := s.traceString(r.Context(), proxySp.ID()); ts != "" {
				pr.Out.Header.Set(obs.TraceHeader, ts)
			}
		},
		ModifyResponse: func(resp *http.Response) error {
			resp.Header.Del(obs.TraceHeader) // this node's ServeHTTP already set its own
			return nil
		},
		ErrorHandler: func(w http.ResponseWriter, _ *http.Request, err error) {
			cs.mship.ReportFailure(m.Name)
			writeError(w, http.StatusBadGateway, fmt.Sprintf("proxy to %s: %v", m.Name, err))
		},
	}
	proxy.ServeHTTP(w, r)
}

// ---- replica promotion (failover and hand-off) ----

// owns reports whether this node holds session id, in the pool or on disk.
func (s *Server) owns(id string) bool {
	s.mu.Lock()
	_, live := s.sessions[id]
	s.mu.Unlock()
	return live || s.store.Has(id)
}

// promoteReplica turns this node's replica of id into the session, owned
// here under the claim mv: fence the handle, have the store promote the
// directory — the ordinary lazy-rehydration path does the rest — and
// record the claim. Failover runs it when the owner is dead, a hand-off
// when the owner asks. False: nothing to promote (a promoter or Drop won).
func (s *Server) promoteReplica(id string, mv cluster.Moved) (bool, error) {
	cs := s.cluster
	// Fence the replica handle first: a zombie replication stream from a
	// presumed-dead primary must not append into the promoted session.
	// Closing it also fsyncs the log.
	cs.closeReplica(id)
	cs.mu.Lock() // so that two concurrent requests promote once
	if s.store.Has(id) {
		cs.mu.Unlock()
		return false, nil
	}
	err := s.store.Promote(id)
	cs.mu.Unlock()
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			err = nil // lost a race with a Drop
		}
		return false, err
	}
	if !cs.setOverride(mv) {
		// Out-claimed meanwhile: a hand-off its source gave up waiting for.
		s.dropLocalSession(context.Background(), id)
		return false, fmt.Errorf("claim %d on %s is superseded", mv.Seq, id)
	}
	return true, nil
}

// adoptIfNeeded is failover: this node just became a session's effective
// owner, the session is neither in the pool nor in the store, but its
// replica is here — promote it and tell the cluster.
func (s *Server) adoptIfNeeded(ctx context.Context, id string) error {
	cs := s.cluster
	if s.owns(id) {
		return nil
	}
	if !s.store.HasReplica(id) {
		return nil // no replica either; the handler 404s as usual
	}
	mv := cluster.Moved{Session: id, Target: cs.cfg.Node, Seq: cs.nextMoveSeq(id)}
	if promoted, err := s.promoteReplica(id, mv); !promoted {
		return err
	}
	s.metrics.inc(&s.metrics.Cluster.Promotions)
	cs.announce(mv)
	s.log(ctx).Warn("promoted replica to primary", "session_id", id)
	return nil
}

// ---- route overrides ----

// setOverride merges one explicit-transfer claim; highest Seq wins.
// Returns whether the claim was news.
func (cs *clusterState) setOverride(mv cluster.Moved) bool {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cur, ok := cs.overrides[mv.Session]; ok && cur.Seq >= mv.Seq {
		return false
	}
	cs.overrides[mv.Session] = mv
	if mv.Seq > cs.moveSeq {
		cs.moveSeq = mv.Seq
	}
	return true
}

func (cs *clusterState) snapshotOverrides() []cluster.Moved {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	out := make([]cluster.Moved, 0, len(cs.overrides))
	for _, mv := range cs.overrides {
		out = append(out, mv)
	}
	return out
}

// nextMoveSeq mints a claim sequence number strictly above every claim
// this node has seen, so competing claims from different nodes order by
// recency of cluster knowledge.
func (cs *clusterState) nextMoveSeq(id string) uint64 {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	n := cs.moveSeq + 1
	if ov, ok := cs.overrides[id]; ok && ov.Seq >= n {
		n = ov.Seq + 1
	}
	cs.moveSeq = n
	return n
}

// broadcast sends one control frame to every peer, best-effort: a down
// peer converges later via ping piggyback.
func (cs *clusterState) broadcast(send func(cluster.Member) error) {
	for name, m := range cs.members {
		if name == cs.cfg.Node {
			continue
		}
		go func(m cluster.Member) {
			if err := send(m); err != nil {
				cs.mship.ReportFailure(m.Name)
			}
		}(m)
	}
}

// announce broadcasts one ownership claim.
func (cs *clusterState) announce(mv cluster.Moved) {
	cs.broadcast(func(m cluster.Member) error { return cs.client.SendMoved(m, mv) })
}

// ---- replication (primary side) ----

// replicate makes rec durable on the session's replica: it sends rec on
// the session's live replication stream, attaching one (full state sync)
// when none exists, and re-targeting once when the stream or the attach
// fails. An attach counts as delivery: the state sync reads the local
// disk, which already holds rec. A nil rec means the record is already
// folded into the on-disk state (a checkpoint just compacted it) and only
// a caught-up replica is required. A false return fails the request: the
// mutation is locally durable but not replicated, and acking it would
// break the no-acked-loss contract. With every other member down the
// node proceeds unreplicated — a lone survivor must not refuse all
// writes. Caller holds the session slot.
func (s *Server) replicate(ctx context.Context, sess *session, rec *wal.Record) bool {
	cs := s.cluster
	if cs == nil || cs.cfg.Replication == cluster.ReplOff || sess.dur == nil {
		return true
	}
	failed := make(map[string]bool)
	ackSp := s.startSpan(ctx, stageReplAck)
	defer ackSp.End()
	for attempt := 0; attempt < 2; attempt++ {
		stream := sess.repl.Load()
		switch {
		case stream != nil && rec == nil:
			// The live stream already mirrored the state (checkpoint push
			// succeeded before this call).
			return true
		case stream != nil:
			if err := stream.SendRecord(rec, s.traceString(ctx, ackSp.ID())); err != nil {
				name := stream.Target.Name
				failed[name] = true
				cs.mship.ReportFailure(name)
				s.metrics.inc(&s.metrics.Cluster.ReplFailures)
				s.log(ctx).Warn("replication send failed", "session_id", sess.id, "target", name, "err", err)
				sess.dropRepl(stream)
				continue
			}
		case sess.closed.Load():
			return false // deleted, or moved away, under us: no replica should outlive it
		default:
			target, ok := cs.replicaTarget(sess.id, failed)
			if !ok {
				s.metrics.inc(&s.metrics.Cluster.ReplUnprotected)
				s.log(ctx).Warn("no live replica target; proceeding unreplicated", "session_id", sess.id)
				return true
			}
			var err error
			if stream, err = s.attachRepl(sess, target); err != nil {
				failed[target.Name] = true
				s.log(ctx).Warn("replica attach failed", "session_id", sess.id, "target", target.Name, "err", err)
				continue
			}
			ackSp.SetAttr("attach", "1")
		}
		s.metrics.inc(&s.metrics.Cluster.ReplRecords)
		ackSp.SetAttr("target", stream.Target.Name)
		return true
	}
	return false
}

// attachRepl opens a replication stream from sess to target — a full
// state sync off the local disk, durable on the target when this returns
// — and makes it the session's live stream. Caller holds the session slot.
func (s *Server) attachRepl(sess *session, target cluster.Member) (*cluster.ReplStream, error) {
	cs := s.cluster
	st, err := s.diskState(sess)
	if err != nil {
		return nil, fmt.Errorf("reading session state: %w", err)
	}
	stream, err := cs.client.OpenReplStream(target, sess.id, st)
	if err != nil {
		cs.mship.ReportFailure(target.Name)
		s.metrics.inc(&s.metrics.Cluster.ReplFailures)
		return nil, err
	}
	sess.repl.Store(stream)
	if sess.closed.Load() {
		// Evicted under us (deleted, or its ownership moved) before the
		// store: closeFiles saw no stream, so closing it is ours.
		stream.Close()
	}
	s.metrics.inc(&s.metrics.Cluster.ReplStreams)
	return stream, nil
}

// replicateCheckpoint mirrors a freshly written checkpoint to the live
// replica, which empties its log as the primary just did, keeping the
// replica as compact as the primary. Best-effort: on failure the stream
// is dropped and the next mutation re-attaches with a full state sync
// that includes this checkpoint. Caller holds the session slot.
func (s *Server) replicateCheckpoint(ctx context.Context, sess *session) {
	stream := sess.repl.Load()
	if stream == nil || sess.dur == nil {
		return
	}
	image, err := sess.dur.CheckpointImage()
	if err == nil {
		err = stream.SendCheckpoint(image)
	}
	if err != nil {
		s.metrics.inc(&s.metrics.Cluster.ReplFailures)
		s.log(ctx).Warn("checkpoint replication failed; stream dropped", "session_id", sess.id, "err", err)
		sess.dropRepl(stream)
	}
}

// diskState snapshots a session's transferable state from its on-disk
// files: the checkpoint image plus the WAL records past it. Caller
// holds the session slot, so nothing appends concurrently; the open log
// handle is unaffected by the read-only read.
func (s *Server) diskState(sess *session) (cluster.SessionState, error) {
	img := sess.dur.Image()
	err := img.WALErr
	if img.Checkpoint == nil && img.CheckpointErr != nil {
		err = img.CheckpointErr // unread; a corrupt image travels as it is
	}
	return cluster.SessionState{Checkpoint: img.Checkpoint, Tail: img.Tail()}, err
}

// ---- replica store (follower side) ----

// serverReplica implements cluster.Replica over a replica directory that
// mirrors a session directory (wal.log + checkpoint), with the primary's
// sequence numbers preserved — promotion is a rename plus the ordinary
// recovery path. The files are held through the same handle a live
// session uses; closing it is the fence: later stream frames fail rather
// than touch files a promotion or drop is about to take.
type serverReplica struct {
	s *Server
	d *store.Session
}

func (r *serverReplica) AppendRecord(rec *wal.Record, trace string) error {
	t0 := time.Now()
	_, err := r.d.Append(rec, true)
	// The producing request's trace arrived with the record; record the
	// follower-side apply into this node's span store so the assembled
	// cluster trace shows both sides of the replication hop.
	if tc, ok := obs.ParseTraceContext(trace); ok {
		r.s.spans.Record(obs.Span{
			TraceID:  tc.TraceID,
			Parent:   tc.Parent,
			Stage:    stageReplApply,
			StartUNN: t0.UnixNano(),
			DurNS:    time.Since(t0).Nanoseconds(),
			Attrs: map[string]string{
				"session": r.d.ID(),
				"seq":     strconv.FormatUint(rec.Seq, 10),
			},
		})
	}
	return err
}

func (r *serverReplica) PutCheckpoint(image []byte) error {
	return r.d.Checkpoint(func(w io.Writer, _ *checkpoint.LedgerCommit) error {
		_, err := w.Write(image)
		return err
	})
}

func (r *serverReplica) Sync() error { return r.d.Sync() }

func (r *serverReplica) Promote(mv cluster.Moved) error {
	// A fenced handle's directory is someone else's to promote.
	if err := r.d.Sync(); err != nil {
		return err
	}
	promoted, err := r.s.promoteReplica(r.d.ID(), mv)
	if err == nil && !promoted {
		err = errors.New("no replica left to promote")
	}
	if err == nil {
		r.s.metrics.inc(&r.s.metrics.Cluster.MigrationsIn)
		r.s.cfg.Logger.Info("session migrated in", "session_id", r.d.ID())
	}
	return err
}

func (r *serverReplica) Close() error {
	err := r.d.Close()
	cs := r.s.cluster
	cs.mu.Lock()
	if cs.replicas[r.d.ID()] == r {
		delete(cs.replicas, r.d.ID())
	}
	cs.mu.Unlock()
	return err
}

// closeReplica fences the open replica handle for id, if any.
func (cs *clusterState) closeReplica(id string) {
	cs.mu.Lock()
	rep := cs.replicas[id]
	cs.mu.Unlock()
	if rep != nil {
		rep.Close()
	}
}

// ---- peer protocol backend ----

// clusterBackend implements cluster.Backend for the peer server.
type clusterBackend struct{ s *Server }

func (b *clusterBackend) OpenReplica(id string) (cluster.Replica, error) {
	s := b.s
	cs := s.cluster
	// A node does not follow a session it owns: promotion would find
	// sessions/<id> taken and serve that directory, not this replica.
	if s.owns(id) {
		return nil, fmt.Errorf("session %s is owned by %s", id, cs.cfg.Node)
	}
	// A new stream always starts with a full state sync: fence and discard
	// whatever a previous stream left.
	cs.closeReplica(id)
	d, err := s.store.OpenReplica(id)
	if err != nil {
		return nil, err
	}
	rep := &serverReplica{s: s, d: d}
	cs.mu.Lock()
	cs.replicas[id] = rep
	cs.mu.Unlock()
	return rep, nil
}

func (b *clusterBackend) HandleMoved(mv cluster.Moved) {
	cs := b.s.cluster
	if !cs.setOverride(mv) {
		return // stale claim
	}
	if mv.Target != cs.cfg.Node {
		// Ownership went elsewhere; any local copy is stale.
		b.s.dropLocalSession(context.Background(), mv.Session)
	}
}

func (b *clusterBackend) HandlePing(p cluster.Ping) {
	for _, mv := range p.Overrides {
		b.HandleMoved(mv)
	}
	// Seeing a peer's ping is itself evidence it is up.
	b.s.cluster.mship.ReportSuccess(p.Node)
}

func (b *clusterBackend) DropReplica(id string) error {
	b.s.cluster.closeReplica(id)
	return b.s.store.DropReplica(id)
}

// ---- live migration ----

// migrateSession moves one session to target: checkpoint (compacting the
// transferable state), point the replication stream at the target, hand
// the session off on it — all with the session slot held (mutations block
// for exactly the transfer). The target owns the session, fsynced and
// routable, before it acks; only then is the local copy dropped and the
// route broadcast. On any error the session stays here, untouched.
func (s *Server) migrateSession(ctx context.Context, id string, target cluster.Member) error {
	cs := s.cluster
	sess, err := s.holdSession(ctx, id, 0)
	if err != nil {
		return err
	}
	defer sess.release()
	if sess.dur == nil {
		return errors.New("session has no durable state to migrate")
	}
	t0 := time.Now()
	migSp := s.startSpan(ctx, stageMigrate)
	migSp.SetAttr("session", id)
	migSp.SetAttr("target", target.Name)
	defer migSp.End()
	_ = s.checkpointSession(ctx, sess) // failure just means a longer WAL tail

	// A live stream to the target is caught up (a stream that misses a
	// frame is dropped), so the hand-off is the whole transfer; any other
	// stream is replaced by one to the target, a full state sync.
	stream := sess.repl.Load()
	reused, oldReplica := stream != nil, ""
	if reused && stream.Target.Name != target.Name {
		reused, oldReplica = false, stream.Target.Name
		sess.dropRepl(stream)
	}
	if !reused {
		if stream, err = s.attachRepl(sess, target); err != nil {
			return err
		}
	}
	mv := cluster.Moved{Session: id, Target: target.Name, Seq: cs.nextMoveSeq(id)}
	if err := stream.HandOff(mv); err != nil {
		// Refused — or the ack was lost and the target holds a promoted
		// copy. A newer claim naming this node keeps the session here and
		// has the target discard whatever it made of the hand-off.
		sess.dropRepl(stream)
		mv = cluster.Moved{Session: id, Target: cs.cfg.Node, Seq: cs.nextMoveSeq(id)}
		cs.setOverride(mv)
		cs.announce(mv)
		return err
	}

	// Cutover: the target owns the session from here on.
	cs.setOverride(mv)
	sess.dropRepl(stream)
	s.dropLocalSession(ctx, id)
	cs.announce(mv)
	if m, ok := cs.members[oldReplica]; ok {
		go func() { _ = cs.client.SendDrop(m, id) }()
	}
	s.metrics.inc(&s.metrics.Cluster.MigrationsOut)
	s.log(ctx).Info("session migrated out",
		"session_id", id, "target", target.Name, "stream_reused", reused,
		"duration_ms", time.Since(t0).Milliseconds())
	return nil
}

// ---- HTTP handlers ----

// clusterRoute is the ?session= route answer on GET /cluster.
type clusterRoute struct {
	Session    string   `json:"session"`
	Owner      string   `json:"owner"`
	Candidates []string `json:"candidates"`
	Overridden bool     `json:"overridden"`
}

func (s *Server) handleClusterStatus(w http.ResponseWriter, r *http.Request) {
	cs := s.cluster
	if cs == nil {
		writeError(w, http.StatusNotFound, "not running in cluster mode")
		return
	}
	resp := map[string]any{
		"node":        cs.cfg.Node,
		"replication": cs.cfg.Replication,
		"redirect":    cs.cfg.Redirect,
		"members":     cs.mship.Snapshot(),
		"overrides":   cs.snapshotOverrides(),
		"replicas":    s.store.ReplicaCount(),
	}
	if id := r.URL.Query().Get("session"); id != "" {
		_, overridden := cs.override(id)
		resp["route"] = clusterRoute{
			Session:    id,
			Owner:      cs.effectiveOwner(id),
			Candidates: cs.candidates(id),
			Overridden: overridden,
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleClusterMove(w http.ResponseWriter, r *http.Request) {
	cs := s.cluster
	if cs == nil {
		writeError(w, http.StatusNotFound, "not running in cluster mode")
		return
	}
	var req struct {
		Session string `json:"session"`
		Target  string `json:"target"`
	}
	// Buffer the body: a non-owner re-sends this request to the owner.
	raw, err := io.ReadAll(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading body: "+err.Error())
		return
	}
	if err := json.Unmarshal(raw, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad JSON: "+err.Error())
		return
	}
	if req.Session == "" || req.Target == "" {
		writeError(w, http.StatusBadRequest, "session and target are required")
		return
	}
	target, ok := cs.members[req.Target]
	if !ok {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown member %q", req.Target))
		return
	}
	owner := cs.effectiveOwner(req.Session)
	switch {
	case owner == "":
		writeError(w, http.StatusServiceUnavailable, "no live owner for the session")
		return
	case owner != cs.cfg.Node && r.Header.Get(forwardedHeader) == "":
		r.Body = io.NopCloser(bytes.NewReader(raw))
		s.forward(w, r, cs.members[owner]) // the owner executes the move
		return
	case owner != cs.cfg.Node:
		writeError(w, http.StatusServiceUnavailable, "routing disagreement; retry")
		return
	}
	if target.Name == cs.cfg.Node {
		writeJSON(w, http.StatusOK, map[string]any{
			"moved": false, "session": req.Session, "target": target.Name,
			"note": "session is already on this node",
		})
		return
	}
	if !cs.mship.Up(target.Name) {
		writeError(w, http.StatusServiceUnavailable, fmt.Sprintf("target %s is down", target.Name))
		return
	}
	if err := s.migrateSession(r.Context(), req.Session, target); err != nil {
		status := http.StatusInternalServerError
		if !s.owns(req.Session) {
			status = http.StatusNotFound
		}
		writeError(w, status, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"moved": true, "session": req.Session, "target": target.Name,
	})
}
