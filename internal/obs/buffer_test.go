package obs

import (
	"slices"
	"sync"
	"testing"
)

// TestBufferMechanics pushes 0, 1, 2, … into buffers of several
// capacities, one at a time and in one batch, and checks after every push
// what a reader sees: the newest min(pushed, capacity) items oldest first,
// every newest-n limit, Total, Capacity, and room that starts at ringStart
// and doubles on demand, never past capacity.
func TestBufferMechanics(t *testing.T) {
	for _, capacity := range []int{1, 3, 16, 17, 100} {
		one := NewBuffer[int](capacity)
		pushed := 2*capacity + 5
		for n := 1; n <= pushed; n++ {
			one.Push(n - 1)
			want := make([]int, 0, capacity)
			for v := max(0, n-capacity); v < n; v++ {
				want = append(want, v)
			}
			if got := one.Items(0); !slices.Equal(got, want) {
				t.Fatalf("capacity %d after %d pushes: Items(0) = %v, want %v", capacity, n, got, want)
			}
			for limit := 1; limit <= len(want)+1; limit++ {
				if got, w := one.Items(limit), want[max(0, len(want)-limit):]; !slices.Equal(got, w) {
					t.Fatalf("capacity %d after %d pushes: Items(%d) = %v, want %v", capacity, n, limit, got, w)
				}
			}
			var viewed []int
			one.View(func(older, newer []int) { viewed = append(slices.Clone(older), newer...) })
			if !slices.Equal(viewed, want) {
				t.Fatalf("capacity %d after %d pushes: View gave %v, want %v", capacity, n, viewed, want)
			}
			room := min(capacity, ringStart)
			for room < min(n, capacity) {
				room = min(2*room, capacity)
			}
			if one.Total() != uint64(n) || one.Capacity() != capacity || cap(one.buf) != room {
				t.Fatalf("capacity %d after %d pushes: Total %d, Capacity %d, room %d; want %d, %d, %d",
					capacity, n, one.Total(), one.Capacity(), cap(one.buf), n, capacity, room)
			}
		}
		batch := NewBuffer[int](capacity)
		all := make([]int, pushed)
		for i := range all {
			all[i] = i
		}
		batch.Push(all...)
		if !slices.Equal(batch.Items(0), one.Items(0)) || batch.Total() != one.Total() {
			t.Fatalf("capacity %d: one batch kept %v (total %d), one at a time %v (total %d)",
				capacity, batch.Items(0), batch.Total(), one.Items(0), one.Total())
		}
	}
	if got := NewBuffer[int](4).Items(0); got == nil || len(got) != 0 {
		t.Fatalf("an empty buffer's Items = %#v, want an empty non-nil slice", got)
	}
}

// TestBufferConcurrentPushAndRead: readers see, at every moment, a
// contiguous oldest-first run of at most capacity items that Total
// already counts, while a writer pushes (run it under -race).
func TestBufferConcurrentPushAndRead(t *testing.T) {
	const capacity, pushes = 24, 5000
	b := NewBuffer[int](capacity)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				items := b.Items(r * 5)
				total := b.Total()
				if len(items) > capacity {
					t.Errorf("read %d items, capacity %d", len(items), capacity)
				}
				for i, v := range items {
					if v != items[0]+i {
						t.Errorf("items not contiguous oldest-first: %v", items)
						break
					}
				}
				if n := len(items); n > 0 && uint64(items[n-1]) >= total {
					t.Errorf("newest item %d, Total (read after) %d", items[n-1], total)
				}
				b.View(func(older, newer []int) {
					if len(older)+len(newer) > capacity {
						t.Errorf("viewed %d items, capacity %d", len(older)+len(newer), capacity)
					}
				})
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	for i := 0; i < pushes; i++ {
		b.Push(i)
	}
	close(done)
	wg.Wait()
	if got := b.Items(0); b.Total() != pushes || len(got) != capacity || got[capacity-1] != pushes-1 {
		t.Fatalf("after %d pushes: Total %d, kept %v", pushes, b.Total(), got)
	}
}
