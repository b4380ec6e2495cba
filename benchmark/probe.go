package main

import (
	"runtime"
	"sort"
	"sync"
	"time"
)

// A shared host does not run at one speed. On the 2-vCPU VM this was
// written on, identical work takes 10-30% longer or shorter for minutes at
// a time (other tenants on the same memory system; steal time stays under
// 1%, so the guest cannot see it): ten runs of one commit spread 13-35% on
// every time-based metric, which no bound the contract allows (25% at
// most) survives. hostProbe is a fixed piece of work that owes nothing to
// the program under test: how long it takes says how fast the host is
// running now. Result files carry every time-based end-to-end metric as
// measured (raw) and scaled to the reference host speed — see README.md,
// "Host speed".
//
// The probe is dependent loads through a 4 MB table, then a sort of a
// fixed array. Both were chosen by measurement: interleaved with slices of
// the workloads, they tracked the workloads' slow-downs as well as any of
// nine candidate kernels and better than most; arithmetic alone (SHA-256)
// did not track them. It allocates nothing, so the collector's pace, which
// the program under test sets, does not reach it.
//
// Editing this file edits the benchmark: results from before and after do
// not compare, as with any other change to what a run does.
type hostProbe struct {
	chain    []uint32
	unsorted []int
	scratch  [][]int // one sort buffer per core
	sink     uint32  // keeps the loads from being optimised away
}

// probeReferenceMS is one probe sample on the reference host state. It
// only fixes the scale of the scaled values: a host on which the probe
// takes 40 ms reports its times unchanged.
const probeReferenceMS = 40.0

func newHostProbe(cores int) *hostProbe {
	if cores > 4 {
		cores = 4
	}
	p := &hostProbe{chain: make([]uint32, 1<<20), unsorted: make([]int, 150_000), scratch: make([][]int, cores)}
	// One cycle through the whole table, in a scrambled order.
	n := uint32(len(p.chain))
	idx, step := uint32(0), uint32(2654435761)%n|1
	for i := uint32(0); i < n; i++ {
		next := (idx + step) % n
		p.chain[idx] = next
		idx = next
	}
	for i := range p.unsorted {
		p.unsorted[i] = int(uint32(i) * 2654435761)
	}
	for c := range p.scratch {
		p.scratch[c] = make([]int, len(p.unsorted))
	}
	return p
}

// once runs the probe on one goroutine: 400,000 dependent loads and one
// sort.
func (p *hostProbe) once(scratch []int) (time.Duration, uint32) {
	t0 := time.Now()
	j := uint32(0)
	for i := 0; i < 400_000; i++ {
		j = p.chain[j]
	}
	copy(scratch, p.unsorted)
	sort.Ints(scratch)
	return time.Since(t0), j
}

// pass runs the probe on every core at once — the workloads use them all —
// and returns the mean time in milliseconds.
func (p *hostProbe) pass() float64 {
	cores := len(p.scratch)
	var wg sync.WaitGroup
	d := make([]time.Duration, cores)
	sinks := make([]uint32, cores)
	for c := 0; c < cores; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			d[c], sinks[c] = p.once(p.scratch[c])
		}(c)
	}
	wg.Wait()
	var sum float64
	for c := range d {
		sum += ms(d[c])
		p.sink += sinks[c]
	}
	return sum / float64(cores)
}

// sample measures the host, not what the program under test left behind.
// The clients are idle when it is called. A collection is run to its end
// first, so no mark or sweep work of the program's heap is pending; then
// one pass goes untimed, because the workload has evicted the probe's
// tables from the caches and whatever the server still had in flight ends
// within it; then one pass is timed.
func (p *hostProbe) sample() float64 {
	runtime.GC()
	p.pass()
	return p.pass()
}
