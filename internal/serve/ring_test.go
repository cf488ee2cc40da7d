package serve

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"testing"
	"unsafe"

	"flowpulse/internal/trace"
)

// TestRingSPSCOrder runs the batch protocol between a producer and a
// consumer goroutine: the producer pushes records in batches of random
// size from 1 to the capacity, publishing each (and publishing early
// when the ring is full, as a session does); the consumer takes each
// published batch whole. Capacity 8 forces wraparound, and the ring is
// filled to the brim before the consumer starts. Run under -race.
func TestRingSPSCOrder(t *testing.T) {
	const n, capacity = 20000, 8
	r := newRing(capacity)
	rng := rand.New(rand.NewPCG(1, 2))
	next := uint32(1)
	produce := func() {
		e := r.reserve()
		e.win.Iter = next
		e.rec = trace.Record{Kind: trace.KindWindow, Window: &e.win}
		r.push()
		next++
	}

	// Pushed records stay invisible until published.
	for i := 0; i < capacity; i++ {
		produce()
	}
	if h, tl := r.batch(); h != tl || r.depth() != 0 {
		t.Fatalf("unpublished records visible: batch [%d, %d), depth %d", h, tl, r.depth())
	}
	if !r.full() {
		t.Fatal("ring of capacity pushed records not full")
	}
	r.publish()
	if r.depth() != capacity {
		t.Fatalf("depth %d after publish, want %d", r.depth(), capacity)
	}

	done := make(chan error, 1)
	go func() {
		want := uint32(1)
		for want <= n {
			h, tl := r.batch()
			if h == tl {
				runtime.Gosched()
				continue
			}
			for i := h; i != tl; i++ {
				if e := r.at(i); e.win.Iter != want || e.rec.Window != &e.win {
					done <- fmt.Errorf("iter %d, want %d", e.win.Iter, want)
					return
				}
				want++
			}
			r.release(tl)
		}
		done <- nil
	}()
	fulls := 0
	for next <= n {
		for k := 1 + rng.IntN(capacity); k > 0 && next <= n; k-- {
			if r.full() {
				fulls++
				r.publish()
			}
			produce()
		}
		r.publish()
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if r.depth() != 0 {
		t.Fatalf("depth %d after drain", r.depth())
	}
	t.Logf("%d records, ring full mid-batch %d times", n, fulls)
}

// TestRingSizesToPowerOfTwo: capacity rounds up so the mask works.
func TestRingSizesToPowerOfTwo(t *testing.T) {
	for _, tc := range []struct{ in, want int }{{1, 1}, {3, 4}, {256, 256}, {257, 512}} {
		if got := int(newRing(tc.in).mask) + 1; got != tc.want {
			t.Errorf("newRing(%d) -> %d slots, want %d", tc.in, got, tc.want)
		}
	}
}

// TestRingCountersOnSeparateCacheLines: head (consumer-written), tail
// (producer-written, consumer-read) and the producer's private cursor
// must each sit on a 64-byte line of their own, away from each other
// and from the fields both sides only read.
func TestRingCountersOnSeparateCacheLines(t *testing.T) {
	var r ring
	head, tail, next := unsafe.Offsetof(r.head), unsafe.Offsetof(r.tail), unsafe.Offsetof(r.next)
	if tail < head+cacheLine {
		t.Errorf("head at %d, tail at %d: less than %d bytes apart", head, tail, cacheLine)
	}
	if next < tail+cacheLine {
		t.Errorf("tail at %d, producer-private next at %d: less than %d bytes apart", tail, next, cacheLine)
	}
	if seen := unsafe.Offsetof(r.headSeen); seen < next || seen+8 > next+cacheLine {
		t.Errorf("headSeen at %d is off the producer's line at %d", seen, next)
	}
	if readOnly := unsafe.Offsetof(r.space) + unsafe.Sizeof(r.space); head < readOnly+cacheLine-8 {
		t.Errorf("head at %d shares a line with the read-only fields ending at %d", head, readOnly)
	}
	if end := unsafe.Sizeof(r); end < next+cacheLine {
		t.Errorf("next at %d, struct ends at %d: a neighbouring allocation can share its line", next, end)
	}
}
