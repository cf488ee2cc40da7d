package serve

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"flowpulse/internal/trace"
)

// TestRingSPSCOrder pushes records through a tiny ring from a producer
// goroutine while the consumer pops — capacity 4 forces wraparound and
// constant full-ring backpressure — and checks order and integrity.
func TestRingSPSCOrder(t *testing.T) {
	const n = 10000
	r := newRing(4)
	done := make(chan error, 1)
	go func() {
		next := uint32(1)
		for got := 0; got < n; {
			e := r.peek()
			if e == nil {
				runtime.Gosched()
				continue
			}
			if e.win.Iter != next {
				done <- fmt.Errorf("iter %d, want %d", e.win.Iter, next)
				return
			}
			next++
			got++
			r.pop()
		}
		done <- nil
	}()
	for i := 1; i <= n; i++ {
		e := r.reserve()
		e.win.Iter = uint32(i)
		e.rec = trace.Record{Kind: trace.KindWindow, Window: &e.win}
		r.push()
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if r.depth() != 0 {
		t.Fatalf("depth %d after drain", r.depth())
	}
}

// TestRingSizesToPowerOfTwo: capacity rounds up so the mask works.
func TestRingSizesToPowerOfTwo(t *testing.T) {
	for _, tc := range []struct{ in, want int }{{1, 1}, {3, 4}, {256, 256}, {257, 512}} {
		if got := len(newRing(tc.in).slots); got != tc.want {
			t.Errorf("newRing(%d) -> %d slots, want %d", tc.in, got, tc.want)
		}
	}
}

// TestRingCountersOnSeparateCacheLines: head (consumer-written) and
// tail (producer-written) must not share a 64-byte line with each other
// or with the fields both sides only read.
func TestRingCountersOnSeparateCacheLines(t *testing.T) {
	var r ring
	head, tail := unsafe.Offsetof(r.head), unsafe.Offsetof(r.tail)
	if tail < head+cacheLine {
		t.Errorf("head at %d, tail at %d: less than %d bytes apart", head, tail, cacheLine)
	}
	if readOnly := unsafe.Offsetof(r.space) + unsafe.Sizeof(r.space); head < readOnly+cacheLine-8 {
		t.Errorf("head at %d shares a line with the read-only fields ending at %d", head, readOnly)
	}
	if end := unsafe.Sizeof(r); end < tail+cacheLine {
		t.Errorf("tail at %d, struct ends at %d: a neighbouring allocation can share its line", tail, end)
	}
}
