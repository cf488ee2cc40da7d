package serve

import (
	"math"
	"sync/atomic"

	"flowpulse/internal/monitor"
	"flowpulse/internal/remediate"
	"flowpulse/internal/trace"
)

// bucket is the unit of sharded work: one ordered record stream with
// its own SPSC ring and its own trace.Replayer, pinned to one shard
// goroutine by hash. Which records reach it is the session's routing
// rule (see the mode constants): a sequential session opens one bucket
// for the whole stream, which therefore replays the global event/action
// order and reproduces the trailer fingerprint bit for bit; a fan-out
// session opens one per (job, leaf) — the finest split that preserves
// the ordering the detector's baseline and the per-bucket fingerprint
// need — and routes only that substream's windows to it.
type bucket struct {
	sess  *session
	shard *shard
	ring  *ring
	job   uint16 // the deviation gauge's label
	rp    *trace.Replayer

	// queued: 1 while the bucket sits in (or is being handed to) the
	// shard's work queue; the producer only enqueues on the 0→1 edge,
	// so a bucket is never queued twice.
	queued atomic.Int32

	// marked: the session goroutine's note that the ring holds pushed,
	// unpublished records (see session.push).
	marked bool

	// lastScore is the bucket's most recent detector score bits
	// (math.Float64bits), exported as a deviation gauge.
	lastScore atomic.Uint64

	err error // first processing error; poisons the session
}

// newBucket builds the bucket for (job, leafOrd) and pins it to its
// shard. Only fan-out buckets feed the deviation gauge (rp.OnWindow
// set): a sequential bucket spans jobs and leaves.
func newBucket(s *session, job uint16, leafOrd int) (*bucket, error) {
	rp, err := trace.NewReplayer(s.hdr, s.topo, trace.ReplayOptions{NoHistory: true})
	if err != nil {
		return nil, err
	}
	b := &bucket{
		sess: s, ring: newRing(s.srv.cfg.RingSize), job: job, rp: rp,
		shard: s.srv.shards[bucketShard(len(s.srv.shards), s.id, job, leafOrd)],
	}
	rp.OnEvent = func(e monitor.Event) { s.srv.publishEvent(s, &e) }
	rp.OnAction = func(a remediate.Action) { s.srv.publishAction(s, &a) }
	if s.mode == ModeFanout {
		rp.OnWindow = func(ws monitor.WindowScore) {
			if ws.Scored {
				b.lastScore.Store(math.Float64bits(ws.Score))
			}
		}
	}
	return b, nil
}

// drain feeds one batch — every entry published when it starts — on
// the shard goroutine, then frees the batch with one release.
func (b *bucket) drain() {
	h, t := b.ring.batch()
	for i := h; i != t; i++ {
		if b.err == nil {
			if err := b.rp.Feed(&b.ring.at(i).rec); err != nil {
				b.err = err
				b.sess.poison(err)
			}
		}
	}
	b.ring.release(t)
}
