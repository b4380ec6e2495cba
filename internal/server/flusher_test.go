package server

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"parulel/internal/wal"
)

// flushers counts the goroutines running a store's flusher.
func flushers() int {
	buf := make([]byte, 4<<20)
	return bytes.Count(buf[:runtime.Stack(buf, true)], []byte("store.(*Store).flusher("))
}

// TestOneFlusherPerDaemon: under -fsync interval the store's one flusher
// syncs every log, so opening 64 durable sessions and 8 replicas starts no
// goroutine, and Close leaves no flusher behind.
func TestOneFlusherPerDaemon(t *testing.T) {
	s, err := New(Config{DataDir: t.TempDir(), Fsync: wal.PolicyInterval, MaxSessions: 128})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	before, base := flushers(), runtime.NumGoroutine()
	for i := 0; i < 64; i++ {
		serve(t, s, "POST", "/api/v1/sessions", []byte(`{"program":"quickstart"}`))
	}
	if err := s.store.EnableReplicas(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		r, err := s.store.OpenReplica(fmt.Sprintf("r%d", i))
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
	}
	if n := runtime.NumGoroutine(); n > base+1 {
		t.Fatalf("64 sessions and 8 replicas took the daemon from %d goroutines to %d", base, n)
	}
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if after := flushers(); after != before-1 {
		t.Fatalf("%d flusher goroutines before Close, %d after", before, after)
	}
}
