package serve

import (
	"hash/fnv"
	"sync"
)

// shard is one goroutine-owned lane of the ingestion path. Buckets are
// pinned to shards by (session, job, leaf) hash, so one bucket's
// records are always processed by the same goroutine, in ring order —
// the SPSC discipline every pipeline requires — while different
// buckets (different jobs, different leaves, different producers)
// progress in parallel across shards.
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

// bucketShard pins a bucket key to a shard.
func bucketShard(nShards int, sessionID uint64, job uint16, leafOrd int) int {
	h := fnv.New64a()
	var k [8 + 2 + 4]byte
	for i := 0; i < 8; i++ {
		k[i] = byte(sessionID >> (8 * i))
	}
	k[8], k[9] = byte(job), byte(job>>8)
	k[10], k[11], k[12], k[13] = byte(leafOrd), byte(leafOrd>>8), byte(leafOrd>>16), byte(leafOrd>>24)
	h.Write(k[:])
	return int(h.Sum64() % uint64(nShards))
}
