package serve

import (
	"math"
	"sync/atomic"

	"flowpulse/internal/monitor"
	"flowpulse/internal/remediate"
	"flowpulse/internal/topology"
	"flowpulse/internal/trace"
)

// bucket is a session's unit of sharded work: one SPSC ring, one
// trace.Replayer and the shard goroutine that feeds the one to the
// other. Every record but the trailer reaches it in stream order, so
// the replayer re-derives the recording's global event/action stream
// (the trailer's fingerprint) and, alongside it, the per-(job, leaf)
// BucketFingerprint; the session's mode only picks which one its
// status reports.
type bucket struct {
	sess  *session
	shard *shard
	ring  *ring
	rp    *trace.Replayer

	// queued: 1 while the bucket sits in (or is being handed to) the
	// shard's work queue; the producer only enqueues on the 0→1 edge,
	// so a bucket is never queued twice.
	queued atomic.Int32

	// marked: the session goroutine's note that the ring holds pushed,
	// unpublished records (see session.push).
	marked bool

	// dev holds the deviation gauge's inputs, one entry per header job.
	dev []jobScores

	err error // first processing error; poisons the session
}

// jobScores is one job's latest detector score per leaf, written by
// the shard and read by /metrics scrapes.
type jobScores struct {
	job    uint16
	scored atomic.Bool     // set once any of the job's windows scored
	leaf   []atomic.Uint64 // math.Float64bits of each leaf's latest score
}

// newBucket builds a session's bucket from its stream header and pins
// it to the session's shard.
func newBucket(s *session, hdr *trace.Header, topo *topology.Topology) (*bucket, error) {
	rp, err := trace.NewReplayer(hdr, topo, trace.ReplayOptions{NoHistory: true})
	if err != nil {
		return nil, err
	}
	b := &bucket{
		sess: s, ring: newRing(s.srv.cfg.RingSize), rp: rp,
		shard: s.srv.shards[s.id%uint64(len(s.srv.shards))],
		dev:   make([]jobScores, len(hdr.Jobs)),
	}
	for i := range b.dev {
		b.dev[i].job = hdr.Jobs[i].Job
		b.dev[i].leaf = make([]atomic.Uint64, len(topo.Leaves()))
	}
	rp.OnEvent = func(e monitor.Event) { s.srv.publishEvent(s, &e) }
	rp.OnAction = func(a remediate.Action) { s.srv.publishAction(s, &a) }
	rp.OnWindow = func(ws monitor.WindowScore) {
		if !ws.Scored {
			return
		}
		job := hdr.PipelineJob(ws.Window.Job)
		for i := range b.dev {
			if js := &b.dev[i]; js.job == job {
				js.leaf[ws.Window.LeafOrdinal].Store(math.Float64bits(ws.Score))
				if !js.scored.Load() {
					js.scored.Store(true)
				}
				return
			}
		}
	}
	return b, nil
}

// deviation is the job's gauge value: the largest of its leaves'
// latest scores.
func (js *jobScores) deviation() float64 {
	d := 0.0
	for i := range js.leaf {
		d = max(d, math.Float64frombits(js.leaf[i].Load()))
	}
	return d
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
