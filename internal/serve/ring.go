package serve

import (
	"sync/atomic"

	"flowpulse/internal/trace"
)

// entry is one ring slot: a decoded record plus the slot-owned window
// storage it decodes into. Window records point rec.Window at &win, so
// a reused slot reaches a steady state where decoding allocates
// nothing; other record kinds carry their own freshly decoded payloads.
// win owns everything the shard reads, the copy of the deferred sender
// section and the prediction rows included, so the session may decode
// the next windows into the slots ahead while this one waits.
type entry struct {
	rec trace.Record
	win trace.WindowRecord
}

// ring is the SPSC queue between one session's reader goroutine
// (producer) and the shard goroutine that owns the bucket (consumer).
// Single producer, single consumer, fixed capacity, slots allocated at
// the first reserve (a session that sends only a header and a trailer
// never allocates them), and both sides work in batches: the producer
// reserves the slot at its private next, decodes into it and pushes
// (next++), then publishes everything pushed so far with one store to
// tail; the consumer takes [head, tail) as one batch, processes it, and
// frees it with one store to head and one space signal. A full ring is
// backpressure — the producer waits on space, which stalls its TCP read
// loop, which stalls the remote producer: flow control end to end with
// no drops.
//
// head is written by the shard goroutine and tail by the session
// goroutine; side by side in one cache line, every store by one core
// would invalidate the line under the other (false sharing). The pads
// keep each counter on a line of its own, away from the read-only
// fields too, and the producer's private cursor on a third line the
// consumer never reads.
type ring struct {
	slots []entry
	mask  uint64
	space chan struct{} // consumer → producer: a batch was freed
	_     [cacheLine]byte
	head  atomic.Uint64 // consumer position
	_     [cacheLine - 8]byte
	tail  atomic.Uint64 // published producer position
	_     [cacheLine - 8]byte
	// Producer-private: next is one past the last pushed slot (≥ tail);
	// headSeen is head as the producer last loaded it, reloaded only
	// when the ring looks full.
	next     uint64
	headSeen uint64
	_        [cacheLine - 16]byte
}

// cacheLine is the coherence granule the ring pads to (64 bytes on
// amd64 and most arm64 parts).
const cacheLine = 64

// newRing sizes the queue to the next power of two ≥ capacity; the
// slots themselves wait for the first reserve.
func newRing(capacity int) *ring {
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &ring{mask: uint64(n - 1), space: make(chan struct{}, 1)}
}

// full reports whether every slot is pushed and not yet freed by the
// consumer. Only the producer calls it.
func (r *ring) full() bool {
	if r.next-r.headSeen <= r.mask {
		return false
	}
	r.headSeen = r.head.Load()
	return r.next-r.headSeen > r.mask
}

// reserve returns the producer-side slot to decode into, blocking
// while the ring is full (backpressure). Only the producer calls it,
// and it must publish before reserving on a full ring: the consumer
// frees only published slots. The slot stays invisible to the consumer
// until push and publish.
func (r *ring) reserve() *entry {
	for r.full() {
		// The signal channel holds at most one token, so re-check
		// before sleeping again.
		<-r.space
	}
	if r.slots == nil {
		// Published before the consumer can look: the tail store
		// orders this allocation before every at.
		r.slots = make([]entry, r.mask+1)
	}
	return &r.slots[r.next&r.mask]
}

// push commits the previously reserved slot; publish makes it visible.
func (r *ring) push() { r.next++ }

// publish makes every slot pushed since the last publish visible to
// the consumer with one store.
func (r *ring) publish() { r.tail.Store(r.next) }

// batch returns the consumer's view: the published, unconsumed
// positions [head, tail). Only the consumer calls it.
func (r *ring) batch() (head, tail uint64) { return r.head.Load(), r.tail.Load() }

// at returns the slot at position i.
func (r *ring) at(i uint64) *entry { return &r.slots[i&r.mask] }

// release frees every slot before head and signals the producer, once
// per batch. The consumer calls it after each batch, an empty one too:
// quiesce waits on the signal for the shard's last word on a bucket.
func (r *ring) release(head uint64) {
	r.head.Store(head)
	select {
	case r.space <- struct{}{}:
	default:
	}
}

// depth reports the published, unconsumed record count (either side
// may call it).
func (r *ring) depth() int { return int(r.tail.Load() - r.head.Load()) }
