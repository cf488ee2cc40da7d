package serve

import (
	"sync/atomic"

	"flowpulse/internal/trace"
)

// entry is one ring slot: a decoded record plus the slot-owned window
// storage it decodes into. Window records point rec.Window at &win, so
// a slot reused for the same (job, leaf) stream reaches a steady state
// where decoding allocates nothing; other record kinds carry their own
// freshly decoded payloads. win owns everything the shard reads, the
// copy of the deferred sender section and the prediction rows included,
// so the session may decode the bucket's next windows into the slots
// ahead while this one waits.
type entry struct {
	rec trace.Record
	win trace.WindowRecord
}

// ring is the SPSC queue between one session's reader goroutine
// (producer) and the shard goroutine that owns the bucket (consumer).
// Single producer, single consumer, fixed capacity: the producer
// reserves the slot at tail, decodes into it, and publishes by
// advancing tail; the consumer processes [head, tail) and advances
// head. A full ring is backpressure — the producer waits on space,
// which stalls its TCP read loop, which stalls the remote producer:
// flow control end to end with no drops.
//
// head is written by the shard goroutine and tail by the session
// goroutine, each on every record; side by side in one cache line,
// every advance by one core would invalidate the line under the other
// (false sharing). The pads keep each counter on a line of its own,
// away from the read-only fields too.
type ring struct {
	slots []entry
	mask  uint64
	space chan struct{} // consumer → producer: slots freed
	_     [cacheLine]byte
	head  atomic.Uint64 // consumer position
	_     [cacheLine - 8]byte
	tail  atomic.Uint64 // producer position
	_     [cacheLine - 8]byte
}

// cacheLine is the coherence granule the ring pads to (64 bytes on
// amd64 and most arm64 parts).
const cacheLine = 64

// newRing sizes the queue to the next power of two ≥ capacity.
func newRing(capacity int) *ring {
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &ring{
		slots: make([]entry, n),
		mask:  uint64(n - 1),
		space: make(chan struct{}, 1),
	}
}

// reserve returns the producer-side slot to decode into, blocking
// while the ring is full (backpressure). Only the producer calls it;
// reserving does not publish — the slot stays invisible to the
// consumer until push.
func (r *ring) reserve() *entry {
	for {
		t := r.tail.Load()
		if t-r.head.Load() < uint64(len(r.slots)) {
			return &r.slots[t&r.mask]
		}
		// Full: wait for the consumer to free slots. The signal channel
		// holds at most one token, so re-check before sleeping again.
		<-r.space
	}
}

// push publishes the previously reserved slot.
func (r *ring) push() { r.tail.Add(1) }

// peek returns the consumer-side slot at head, nil when empty. Only
// the consumer calls it; the slot stays valid until pop.
func (r *ring) peek() *entry {
	h := r.head.Load()
	if h == r.tail.Load() {
		return nil
	}
	return &r.slots[h&r.mask]
}

// pop releases the slot returned by peek and signals the producer.
func (r *ring) pop() {
	r.head.Add(1)
	select {
	case r.space <- struct{}{}:
	default:
	}
}

// depth reports the queued record count (either side may call it).
func (r *ring) depth() int { return int(r.tail.Load() - r.head.Load()) }
