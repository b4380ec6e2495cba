package obs

import "sync"

// Buffer keeps the newest capacity items pushed to it and counts every
// push. It is what each of the daemon's bounded histories is built on —
// a session's cycle trace, the node's span store, the flight recorder and
// the /metrics cycle window — and it is safe to push and read at once
// from any goroutines.
//
// A new buffer has room for ringStart items and doubles its room on
// demand up to capacity, so a bound nobody fills costs nothing.
type Buffer[T any] struct {
	mu       sync.Mutex
	capacity int
	buf      []T // all of it live; once len reaches capacity, the oldest is at start
	start    int
	total    uint64
}

// ringStart is the room a new buffer has: most runs are a dozen cycles, and
// theirs should not be the ones that pay for growing it.
const ringStart = 16

// NewBuffer returns an empty buffer keeping the newest capacity items;
// capacity must be positive.
func NewBuffer[T any](capacity int) *Buffer[T] {
	return &Buffer[T]{capacity: capacity, buf: make([]T, 0, min(capacity, ringStart))}
}

// Push appends items, newest last, evicting the oldest beyond capacity.
func (b *Buffer[T]) Push(items ...T) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, v := range items {
		switch n := len(b.buf); {
		case n == b.capacity:
			b.buf[b.start] = v
			b.start = (b.start + 1) % b.capacity
		case n == cap(b.buf):
			grown := make([]T, n, min(2*n, b.capacity))
			copy(grown, b.buf)
			b.buf = append(grown, v)
		default:
			b.buf = append(b.buf, v)
		}
	}
	b.total += uint64(len(items))
}

// View calls fn with the retained items, oldest first, as two runs: older
// then newer (either may be empty). fn runs under the buffer's lock, so it
// must neither keep the slices nor push.
func (b *Buffer[T]) View(fn func(older, newer []T)) {
	b.mu.Lock()
	defer b.mu.Unlock()
	fn(b.buf[b.start:], b.buf[:b.start])
}

// Items returns a copy of the newest limit items, oldest first; limit <= 0
// means every retained item.
func (b *Buffer[T]) Items(limit int) []T {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := len(b.buf)
	if limit > 0 && limit < n {
		n = limit
	}
	out := make([]T, n)
	first := b.start + len(b.buf) - n // skip the oldest beyond limit
	for i := range out {
		out[i] = b.buf[(first+i)%len(b.buf)]
	}
	return out
}

// Total returns the number of items ever pushed, evicted ones included.
func (b *Buffer[T]) Total() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.total
}

// Capacity returns how many items the buffer keeps.
func (b *Buffer[T]) Capacity() int { return b.capacity }
