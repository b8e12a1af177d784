package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark runs on is shared. Its speed for code like the
// simulator's (branchy, heap-ordered, scattered over tens of MB) swings
// by up to 40% within seconds and between minutes, while a pure
// arithmetic loop or a DRAM pointer chase stays within a few per cent.
// So every timed window is split into refSlices slices, each followed by
// its share of one pass of a fixed reference kernel shaped like a
// discrete-event loop, and host times are reported in reference units: a
// run's seconds ÷ its pass's seconds × refSeconds. A change to the
// simulator moves the numerator only; the kernel is the benchmark's own
// code and stays fixed.

// refSeconds is the nominal duration of one reference pass: a reported
// time reads as host seconds on a machine where a pass takes this long,
// about what a quiet 2.1 GHz Xeon vCPU takes.
const refSeconds = 0.1

// refSlices is how many slices a window is split into. A slice of
// clos_write is about 90 ms, short enough to follow the host's swings.
const refSlices = 8

const (
	refStateWords = 1 << 24 // 128 MiB of state, scattered updates
	refPending    = 1 << 14 // pending events in the kernel's queue
	refSteps      = 400_000 // pops (each with a push) per pass
)

// refKernel is a 4-ary min-heap of pending events whose every pop
// updates a random word of a 128 MiB state array and pushes a successor.
// The state is larger than any workload's live heap (clos_write's is
// 82 MB). Over six 15-second clos_write invocations, their scaled
// run_s medians spread over 10% with 128 MiB, 12% with 32 MiB, 16% with
// one whole 32 MiB pass before the window, and 30% unscaled.
//
// The state lives outside the Go heap (an anonymous mapping), so it
// neither counts in live_heap_mb nor changes the GC's pacing of the
// simulator's runs.
type refKernel struct {
	mem   []byte // the mapping
	state []uint64
	heap  []refEvent
}

type refEvent struct {
	at  uint64
	idx uint32
}

func newRefKernel() (*refKernel, error) {
	b, err := syscall.Mmap(-1, 0, refStateWords*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map reference kernel state: %w", err)
	}
	k := &refKernel{
		mem:   b,
		state: unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), refStateWords),
		heap:  make([]refEvent, 0, refPending+1),
	}
	k.reset()
	k.steps(refSteps) // fault the mapping in
	return k, nil
}

// unmap releases the kernel's state; k must not be used after.
func (k *refKernel) unmap() {
	syscall.Munmap(k.mem)
	k.mem, k.state = nil, nil
}

// reset refills the queue with the same refPending events, so every
// pass of refSteps steps does the same work.
func (k *refKernel) reset() {
	k.heap = k.heap[:0]
	x := uint64(3)
	for range refPending {
		x = splitmix(x + 1)
		k.push(refEvent{x % 1_000_000, uint32(x >> 40)})
	}
}

// steps pops n events, each updating the state and pushing a successor,
// and returns their host time.
func (k *refKernel) steps(n int) time.Duration {
	t := time.Now()
	for range n {
		e := k.pop()
		j := e.idx & (refStateWords - 1)
		k.state[j] = splitmix(k.state[j] + e.at)
		k.push(refEvent{e.at + k.state[j]%1000, uint32(k.state[j] >> 40)})
	}
	return time.Since(t)
}

func (k *refKernel) push(e refEvent) {
	h := append(k.heap, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if h[p].at <= h[i].at {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	k.heap = h
}

func (k *refKernel) pop() refEvent {
	h := k.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for j := c + 1; j < c+4 && j < n; j++ {
			if h[j].at < h[m].at {
				m = j
			}
		}
		if h[i].at <= h[m].at {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	k.heap = h
	return top
}

func splitmix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
