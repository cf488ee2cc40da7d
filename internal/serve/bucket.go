package serve

import (
	"fmt"
	"math"
	"sync/atomic"

	"flowpulse/internal/monitor"
	"flowpulse/internal/remediate"
	"flowpulse/internal/telemetry"
	"flowpulse/internal/trace"
)

// bucket is the unit of sharded work: one ordered record stream with
// its own SPSC ring and its own detection state, pinned to one shard
// goroutine by hash. A fan-out session opens one bucket per (job,
// leaf) — the finest split that preserves the ordering the detector's
// baseline and the per-bucket fingerprint need. A sequential session
// opens exactly one bucket for the whole stream and runs the full
// offline Replayer through it, which preserves the global event/action
// order and therefore reproduces the trailer fingerprint bit for bit.
type bucket struct {
	sess  *session
	shard *shard
	ring  *ring

	// queued: 1 while the bucket sits in (or is being handed to) the
	// shard's work queue; the producer only enqueues on the 0→1 edge,
	// so a bucket is never queued twice.
	queued atomic.Int32

	// Sequential mode: the whole session replayed in stream order.
	rp *trace.Replayer

	// Fan-out mode: one (job, leaf) substream through its own
	// detect → localize pipeline, fed by recorded prediction snapshots.
	job     uint16
	leafOrd int
	pred    *trace.SnapshotPredictor
	pipe    *monitor.Pipeline
	fp      trace.StreamFP
	win     telemetry.Window // reused per record

	// lastScore is the bucket's most recent detector score bits
	// (math.Float64bits), exported as a deviation gauge.
	lastScore atomic.Uint64

	windows atomic.Int64
	err     error // first processing error; poisons the session
}

// newSeqBucket builds the single whole-session bucket.
func newSeqBucket(s *session) (*bucket, error) {
	rp, err := trace.NewReplayer(s.hdr, s.topo, trace.ReplayOptions{NoHistory: true})
	if err != nil {
		return nil, err
	}
	b := &bucket{sess: s, ring: newRing(s.srv.cfg.RingSize), rp: rp}
	rp.OnEvent = func(e monitor.Event) { s.srv.publishEvent(s, &e) }
	rp.OnAction = func(a remediate.Action) { s.srv.publishAction(s, &a) }
	return b, nil
}

// newFanoutBucket builds one (job, leaf) substream bucket.
func newFanoutBucket(s *session, job uint16, leafOrd int) (*bucket, error) {
	jh := s.hdr.Job(s.hdr.PipelineJob(job))
	if jh == nil {
		return nil, fmt.Errorf("serve: window for job %d not in stream header", job)
	}
	if leafOrd < 0 || leafOrd >= len(s.topo.Leaves()) {
		return nil, fmt.Errorf("serve: window leaf ordinal %d out of range", leafOrd)
	}
	b := &bucket{
		sess: s, ring: newRing(s.srv.cfg.RingSize),
		job: job, leafOrd: leafOrd,
		pred: &trace.SnapshotPredictor{},
		fp:   trace.NewStreamFP(),
	}
	b.pipe, _ = monitor.Build(monitor.Spec{
		Topo: s.topo, Pred: b.pred, Detect: jh.DetectConfig(), NoHistory: true,
		OnEvent: func(e monitor.Event) {
			b.fp.Event(&e)
			s.srv.publishEvent(s, &e)
		},
		OnWindow: func(ws monitor.WindowScore) {
			if ws.Scored {
				b.lastScore.Store(math.Float64bits(ws.Score))
			}
		},
	})
	return b, nil
}

// process consumes one published ring entry on the shard goroutine.
func (b *bucket) process(e *entry) error {
	if b.rp != nil {
		return b.rp.Feed(&e.rec)
	}
	// Fan-out: only window records reach fan-out rings, and the bucket
	// was opened for their (checked) leaf ordinal.
	wr := e.rec.Window
	b.pred.Set(wr.Ready, wr.PortPred, wr.SenderPred)
	b.win = wr.Window(b.sess.topo)
	b.pipe.OnOwnedWindow(&b.win)
	b.windows.Add(1)
	return nil
}

// drain processes every published entry, on the shard goroutine.
func (b *bucket) drain() {
	for {
		e := b.ring.peek()
		if e == nil {
			return
		}
		if b.err == nil {
			if err := b.process(e); err != nil {
				b.err = err
				b.sess.poison(err)
			}
		}
		b.ring.pop()
	}
}
