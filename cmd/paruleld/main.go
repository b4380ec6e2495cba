// Command paruleld serves PARULEL programs over HTTP/JSON: long-lived
// rule sessions with fact assertion, deadline-bounded runs to quiescence,
// working-memory queries, snapshot export/import, and engine metrics.
//
//	paruleld                      serve on :8467 with defaults
//	paruleld -addr :9000          pick the listen address
//	paruleld -max-sessions 256    widen the session pool
//	paruleld -cluster-node a -cluster-peers a=:7467=http://h1:8467,b=:7468=http://h2:8467 -data-dir /var/parulel
//	                              join a sharded cluster (see docs/SERVER.md "Cluster")
//
// On SIGINT/SIGTERM the daemon stops accepting work, drains in-flight
// runs (bounded by -drain-timeout), and exits. See docs/SERVER.md for the
// API reference.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"parulel/internal/cluster"
	"parulel/internal/obs"
	"parulel/internal/server"
	"parulel/internal/wal"
)

func main() {
	addr := flag.String("addr", ":8467", "listen address")
	maxSessions := flag.Int("max-sessions", 64, "session pool size (LRU eviction beyond it)")
	idleTTL := flag.Duration("idle-ttl", 30*time.Minute, "evict sessions idle for this long")
	maxRuns := flag.Int("max-runs", 8, "engines running concurrently server-wide")
	maxInflight := flag.Int("max-inflight", 0, "admitted runs (executing+queued) before 429; 0 = 8×max-runs, negative = unlimited")
	queueDepth := flag.Int("queue-depth", 32, "per-session mutation queue depth before 429; negative = unlimited")
	runSlice := flag.Int("run-slice", 0, "engine cycles per run-queue slot before requeueing (0 = run to quiescence in one slot)")
	runTimeout := flag.Duration("run-timeout", 30*time.Second, "default per-run deadline")
	maxRunTimeout := flag.Duration("max-run-timeout", 5*time.Minute, "cap on client-requested run deadlines")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight runs")
	dataDir := flag.String("data-dir", "", "durability root: write-ahead logs + checkpoints under <dir>/sessions (empty = sessions are memory-only)")
	fsync := flag.String("fsync", "interval", "WAL fsync policy: always, interval or never")
	fsyncInterval := flag.Duration("fsync-interval", 100*time.Millisecond, "flush period under -fsync interval")
	merkle := flag.Bool("merkle", true, "keep a tamper-evident merkle ledger per session (merkle.log, chained checkpoint roots, /proof endpoint)")
	checkpointEvery := flag.Int("checkpoint-every", 256, "checkpoint a session after this many WAL records")
	traceCycles := flag.Int("trace-cycles", obs.DefaultRingCapacity, "per-session cycle-trace ring size served at /sessions/{id}/trace")
	spanCapacity := flag.Int("span-capacity", obs.DefaultSpanCapacity, "per-node span ring size served at /debug/spans")
	slowRequest := flag.Duration("slow-request", time.Second, "capture requests at least this slow into the flight recorder (negative = disabled)")
	flightSize := flag.Int("flight-recorder", obs.DefaultFlightRecorderCapacity, "slow-request flight-recorder ring size")
	clusterNode := flag.String("cluster-node", "", "this node's name in -cluster-peers; empty = single-node mode")
	clusterPeers := flag.String("cluster-peers", "", "full static member list: name=peerAddr=publicURL,... (must include this node)")
	peerAddr := flag.String("peer-addr", "", "peer-protocol listen address (empty = this node's address from -cluster-peers)")
	clusterRepl := flag.String("cluster-repl", "sync", "WAL replication to the follower node: sync, async or off")
	clusterRedirect := flag.Bool("cluster-redirect", false, "answer requests for remote sessions with 307 redirects instead of proxying")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty = disabled)")
	logJSON := flag.Bool("log-json", false, "emit structured logs as JSON instead of text")
	quiet := flag.Bool("quiet", false, "suppress per-event logging")
	flag.Parse()

	// -quiet leaves this process's own errors — what it exits on — on
	// stderr, and hands the server no logger at all.
	var logOpts slog.HandlerOptions
	if *quiet {
		logOpts.Level = slog.LevelError
	}
	var handler slog.Handler
	if *logJSON {
		handler = slog.NewJSONHandler(os.Stderr, &logOpts)
	} else {
		handler = slog.NewTextHandler(os.Stderr, &logOpts)
	}
	logger := slog.New(handler)
	fatal := func(msg string, err error) {
		logger.Error(msg, "err", err)
		os.Exit(1)
	}
	policy, err := wal.ParsePolicy(*fsync)
	if err != nil {
		fatal("bad -fsync policy", err)
	}
	var clusterCfg *cluster.Config
	if *clusterNode != "" || *clusterPeers != "" {
		if *clusterNode == "" || *clusterPeers == "" {
			fatal("cluster mode", errors.New("-cluster-node and -cluster-peers must be set together"))
		}
		if *dataDir == "" {
			fatal("cluster mode", errors.New("-data-dir is required: replication and migration stream WAL frames and checkpoints"))
		}
		members, err := cluster.ParseMembers(*clusterPeers)
		if err != nil {
			fatal("bad -cluster-peers", err)
		}
		clusterCfg = &cluster.Config{
			Node:        *clusterNode,
			Members:     members,
			PeerAddr:    *peerAddr,
			Replication: *clusterRepl,
			Redirect:    *clusterRedirect,
		}
	}
	cfg := server.Config{
		MaxSessions:          *maxSessions,
		IdleTTL:              *idleTTL,
		MaxConcurrentRuns:    *maxRuns,
		MaxInflightRuns:      *maxInflight,
		MutationQueueDepth:   *queueDepth,
		RunSlice:             *runSlice,
		DefaultRunTimeout:    *runTimeout,
		MaxRunTimeout:        *maxRunTimeout,
		DataDir:              *dataDir,
		Fsync:                policy,
		FsyncInterval:        *fsyncInterval,
		DisableMerkle:        !*merkle,
		CheckpointEvery:      *checkpointEvery,
		TraceCycles:          *traceCycles,
		SpanCapacity:         *spanCapacity,
		SlowRequestThreshold: *slowRequest,
		FlightRecorderSize:   *flightSize,
		Cluster:              clusterCfg,
		Logger:               logger,
	}
	if *quiet {
		cfg.Logger = nil
	}
	srv, err := server.New(cfg)
	if err != nil {
		fatal("starting server", err)
	}
	if clusterCfg != nil {
		logger.Info("cluster mode", "node", clusterCfg.Node, "members", len(clusterCfg.Members), "replication", *clusterRepl)
	}

	// pprof lives on its own listener so profiling is never exposed on the
	// service port by accident.
	if *pprofAddr != "" {
		pprofMux := http.NewServeMux()
		pprofMux.HandleFunc("/debug/pprof/", pprof.Index)
		pprofMux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pprofMux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pprofMux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pprofMux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			logger.Info("pprof listening", "addr", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, pprofMux); err != nil {
				logger.Error("pprof listener failed", "err", err)
			}
		}()
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// SIGQUIT dumps the slow-request flight recorder (trace ids, stage
	// spans) to stderr without stopping the daemon — the classic "what was
	// slow just now" black-box pull.
	quitCh := make(chan os.Signal, 1)
	signal.Notify(quitCh, syscall.SIGQUIT)
	go func() {
		for range quitCh {
			recs := srv.FlightRecords()
			logger.Info("flight recorder dump", "records", len(recs))
			enc := json.NewEncoder(os.Stderr)
			enc.SetIndent("", "  ")
			_ = enc.Encode(recs)
		}
	}()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	logger.Info("serving", "addr", *addr, "sessions", *maxSessions, "concurrent_runs", *maxRuns)

	select {
	case err := <-errCh:
		fatal("listen", err)
	case <-ctx.Done():
	}

	logger.Info("signal received; draining", "timeout", drainTimeout.String())
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Shutdown stops the listener and waits for in-flight HTTP requests;
	// srv.Close additionally waits for engine runs and stops the janitor.
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.Canceled) {
		logger.Error("http shutdown", "err", err)
	}
	if err := srv.Close(drainCtx); err != nil {
		logger.Error("drain", "err", err)
		os.Exit(1)
	}
	logger.Info("drained cleanly")
}
