package serve

import "sync"

// shard is one goroutine-owned lane of the ingestion path. A session's
// bucket is pinned to shard id % shards, so its records are always
// processed by the same goroutine, in ring order — the SPSC discipline
// every pipeline requires — while different producers progress in
// parallel across shards.
type shard struct {
	id   int
	work chan *bucket
	done chan struct{}
}

func newShard(id int, queue int) *shard {
	return &shard{id: id, work: make(chan *bucket, queue), done: make(chan struct{})}
}

// run is the shard goroutine: drain whichever bucket signals work.
func (s *shard) run(wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		select {
		case b := <-s.work:
			s.consume(b)
		case <-s.done:
			// Drain stragglers enqueued before the stop signal.
			for {
				select {
				case b := <-s.work:
					s.consume(b)
				default:
					return
				}
			}
		}
	}
}

// consume drains a bucket handed over through the work queue. queued
// clears BEFORE draining, so a producer publishing mid-drain either
// gets its batch drained or wins the 0→1 edge; the re-check loop then
// reclaims the token locally instead of self-enqueueing (the shard
// must never block sending to its own queue).
func (s *shard) consume(b *bucket) {
	for {
		b.queued.Store(0)
		b.drain()
		if b.ring.depth() == 0 || !b.queued.CompareAndSwap(0, 1) {
			return
		}
	}
}

// enqueue hands a bucket with fresh records to its shard. Called by
// the producer after publish; the 0→1 edge on queued deduplicates, and a
// full work queue blocks the producer (backpressure), never the shard.
func (s *shard) enqueue(b *bucket) {
	if b.queued.CompareAndSwap(0, 1) {
		s.work <- b
	}
}

func (s *shard) stop() { close(s.done) }
