package server

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"parulel/internal/wal"
)

// goroutines returns every goroutine's stack by its id.
func goroutines() map[string]string {
	buf := make([]byte, 4<<20)
	all := map[string]string{}
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		id, _, _ := strings.Cut(strings.TrimPrefix(g, "goroutine "), " ")
		all[id] = g
	}
	return all
}

// isFlusher: the goroutine runs a store's flusher, or store.Open started
// it and it has not run yet (its stack then shows only a wrapper).
func isFlusher(stack string) bool {
	return strings.Contains(stack, "store.(*Store).flusher(") ||
		strings.Contains(stack, "created by parulel/internal/store.Open ")
}

// TestOneFlusherPerDaemon: under -fsync interval the store's one flusher
// syncs every log, so opening 64 durable sessions and 8 replicas starts no
// goroutine, and Close leaves no flusher behind.
//
// Goroutines are told apart by id, not counted: the rest of the test
// binary starts and ends its own (timers, finalizers, a flusher of an
// earlier test still returning) while this one runs. A goroutine is the
// daemon's when the test's own goroutine started it — every handler here
// runs on it — or when it runs store or wal code.
func TestOneFlusherPerDaemon(t *testing.T) {
	pre := goroutines()
	s, err := New(Config{DataDir: t.TempDir(), Fsync: wal.PolicyInterval, MaxSessions: 128})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var flusher []string
	base := goroutines()
	for id, g := range base {
		if isFlusher(g) && pre[id] == "" {
			flusher = append(flusher, id)
		}
	}
	if len(flusher) != 1 {
		t.Fatalf("New started %d flushers (goroutines %v), want 1", len(flusher), flusher)
	}
	buf := make([]byte, 64)
	self, _, _ := strings.Cut(strings.TrimPrefix(string(buf[:runtime.Stack(buf, false)]), "goroutine "), " ")
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
	for id, g := range goroutines() {
		if base[id] != "" {
			continue
		}
		if strings.Contains(g, "in goroutine "+self+"\n") ||
			strings.Contains(g, "parulel/internal/store.") || strings.Contains(g, "parulel/internal/wal.") {
			t.Fatalf("64 sessions and 8 replicas started goroutine %s:\n%s", id, g)
		}
	}
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
	// Close waits for the flusher to close its done channel; the goroutine
	// returns just after, so it is given until the deadline to be gone.
	for goroutines()[flusher[0]] != "" {
		if ctx.Err() != nil {
			t.Fatalf("Close left flusher goroutine %s running", flusher[0])
		}
		time.Sleep(time.Millisecond)
	}
}
