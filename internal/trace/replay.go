package trace

import (
	"fmt"
	"io"

	"flowpulse/internal/fabric"
	"flowpulse/internal/metrics"
	"flowpulse/internal/monitor"
	"flowpulse/internal/predict"
	"flowpulse/internal/remediate"
	"flowpulse/internal/sim"
	"flowpulse/internal/telemetry"
	"flowpulse/internal/topology"
)

// ReplayOptions are the what-if knobs of an offline replay. The zero
// value replays the recording exactly as it ran online.
type ReplayOptions struct {
	// Threshold overrides every job's detection threshold (0: recorded).
	Threshold float64
	// Predictor selects the offline load model: "" or "recorded" uses
	// the per-window prediction snapshots; "learned" trains a fresh
	// learned model on the replayed windows (the would-the-learned-
	// model-have-caught-it counterfactual). Remediation is skipped for
	// "learned": its quarantine schedule could not match the recorded
	// probe stream.
	Predictor string
	// FirstIter/LastIter clip the replay to an iteration range
	// (0: open end).
	FirstIter, LastIter uint32
	// NoHistory drops per-window retention (Scores, Events, Actions,
	// recorded streams): the replay keeps only fingerprints, counters
	// and callbacks. Long-running consumers (flowpulse-serve sessions)
	// set it so memory stays flat however long the stream runs;
	// ReplayResult.Samples and Sweep are unavailable with it. Without
	// it, each window costs one compact score record (key fields and
	// port rows, no sender matrix; see monitor.Pipeline.Scores).
	NoHistory bool
}

// JobReplay is one job's offline pipeline after a replay.
type JobReplay struct {
	Job uint16
	// Pipeline holds the offline Scores and Events, exactly as a
	// monitor.Pipeline accumulates them online.
	Pipeline *monitor.Pipeline
	// MaxIter is the highest iteration any replayed window carried.
	MaxIter uint32
}

// ReplayResult is everything an offline replay produced.
type ReplayResult struct {
	Header *Header
	Topo   *topology.Topology
	Jobs   []*JobReplay

	// Events and Actions are the offline detection/remediation stream
	// in emission order; Fingerprint is its FNV-64a sum. On a replay
	// with no overrides it must equal Trailer.Fingerprint — that is the
	// bit-identical-replay guarantee the simtest oracle enforces.
	Events      []monitor.Event
	Actions     []remediate.Action
	Fingerprint uint64

	// BucketFingerprint is the order-insensitive variant: events fold
	// into one FNV-64a stream per (job, leaf) bucket — the subsequence
	// order a consumer sharded by (job, leaf) would preserve — and the
	// per-bucket sums XOR together. It is what a flowpulse-serve fanout
	// session reports; when all events came from a single bucket it
	// equals Fingerprint. Actions never fold here (a remediated stream
	// is served sequentially).
	BucketFingerprint uint64

	// EventCount and ActionCount survive NoHistory replays.
	EventCount, ActionCount int

	// Remediator is the offline control plane (nil when the recording
	// ran without one, or under the learned-predictor counterfactual).
	Remediator *remediate.Remediator

	// Faults is the recorded ground-truth fault schedule; Windows
	// counts replayed windows; Trailer is nil for truncated recordings.
	Faults  []*FaultRecord
	Windows int
	Trailer *Trailer

	// RecordedEvents and RecordedActions are the online streams as
	// decoded from the trace, for side-by-side comparison.
	RecordedEvents  []*monitor.Event
	RecordedActions []*remediate.Action
}

// Matches reports whether the offline stream reproduced the online one
// bit-identically (false when the recording has no trailer).
func (r *ReplayResult) Matches() bool {
	return r.Trailer != nil && r.Fingerprint == r.Trailer.Fingerprint
}

// Samples labels every replayed (job, iteration) with its offline
// detection score and the ground-truth fault schedule — the exact
// sample construction the online evaluation uses, so ROC points from
// one recording match re-simulated ones.
func (r *ReplayResult) Samples() []metrics.Sample {
	var out []metrics.Sample
	for _, jr := range r.Jobs {
		scores := jr.Pipeline.IterationScores()
		for iter := uint32(1); iter <= jr.MaxIter; iter++ {
			out = append(out, metrics.Sample{Score: scores[iter], Positive: faultActiveAt(r.Faults, iter)})
		}
	}
	return out
}

// Sweep computes ROC points across thresholds from this one replay.
// Scores are threshold-independent, so a single recording answers the
// whole sweep — fig5a without re-simulation.
func (r *ReplayResult) Sweep(thresholds []float64) []metrics.ROCPoint {
	return metrics.ROC(r.Samples(), thresholds)
}

// faultActiveAt reports whether any recorded fault is active during
// iter: injected before it (strictly after OnsetIter, matching the
// online evaluation's "faulty from the iteration after onset" label)
// and not yet cleared.
func faultActiveAt(faults []*FaultRecord, iter uint32) bool {
	for _, f := range faults {
		if f.Clear || iter <= f.OnsetIter {
			continue
		}
		cleared := false
		for _, c := range faults {
			if c.Clear && sameFaultSite(c, f) && c.OnsetIter >= f.OnsetIter && iter > c.OnsetIter {
				cleared = true
				break
			}
		}
		if !cleared {
			return true
		}
	}
	return false
}

func sameFaultSite(a, b *FaultRecord) bool {
	return a.LeafOrd == b.LeafOrd && a.SpineOrd == b.SpineOrd && a.Trunk == b.Trunk && a.Upstream == b.Upstream
}

// SnapshotPredictor serves a per-window recorded prediction snapshot.
// It implements predict.IterPredictor so the detector takes the same
// iteration-aligned code path it took online; every method answers
// from the window currently being replayed, which is exactly the
// snapshot the online detector consumed for it. The Replayer drives
// every job's pipeline with one, offline and in every flowpulse-serve
// bucket.
type SnapshotPredictor struct {
	ready  bool
	port   []float64
	sender [][]float64
	// job, under a Replayer, is the job being fed: asking for the
	// sender reference — which the pipeline does only to localize an
	// alert — first builds that window's deferred sender matrix.
	job *replayJob
}

// Set loads the snapshot recorded with the window about to be fed. The
// slices are borrowed, not copied: they must stay untouched until the
// detector has consumed the window, and may be reused after that.
func (p *SnapshotPredictor) Set(ready bool, port []float64, sender [][]float64) {
	p.ready, p.port, p.sender = ready, port, sender
}

func (p *SnapshotPredictor) Name() string                     { return "recorded" }
func (p *SnapshotPredictor) Ready(int) bool                   { return p.ready }
func (p *SnapshotPredictor) PortLoad(int) []float64           { return p.port }
func (p *SnapshotPredictor) PortLoadAt(int, uint32) []float64 { return p.port }

func (p *SnapshotPredictor) SenderLoad(int) [][]float64 {
	if p.job != nil {
		p.job.buildSenders()
	}
	return p.sender
}

func (p *SnapshotPredictor) SenderLoadAt(leafOrdinal int, _ uint32) [][]float64 {
	return p.SenderLoad(leafOrdinal)
}

// offlinePlane answers the remediator's control-plane calls during
// replay: quarantine/re-admit ChangeSets commit unconditionally as
// no-ops (there is no fabric to push to), reconciliation never finds
// divergence (the recording carries no belief/truth state to
// re-derive, so divergence runs replay for their data, not their
// fingerprints — see DESIGN.md decision 15), and probes queue until
// the recorded round result reaches them in the stream — at exactly
// the position (between ticks) the callbacks fired online.
type offlinePlane struct {
	topo    *topology.Topology
	pending map[topology.LinkID][]func(sim.Time, bool)
}

func (f *offlinePlane) Topology() *topology.Topology              { return f.topo }
func (f *offlinePlane) Quarantine(sim.Time, topology.LinkID) bool { return true }
func (f *offlinePlane) Readmit(sim.Time, topology.LinkID) bool    { return true }
func (f *offlinePlane) Reconcile(sim.Time) bool                   { return false }
func (f *offlinePlane) Tick(sim.Time)                             {}
func (f *offlinePlane) ProbeLink(link topology.LinkID, _ fabric.Direction, _ int, onResult func(sim.Time, bool)) {
	f.pending[link] = append(f.pending[link], onResult)
}

// deliver resolves one recorded probe round against the queued
// callbacks. The per-callback split of losses is immaterial — the
// remediator only counts them — so the first Lost callbacks report
// undelivered. Rounds with no queued probes (a what-if override
// diverged from the recorded quarantine schedule) are ignored.
func (f *offlinePlane) deliver(p *ProbeRecord) {
	cbs := f.pending[p.Link]
	if len(cbs) == 0 {
		return
	}
	delete(f.pending, p.Link)
	for i, cb := range cbs {
		cb(p.At, i >= p.Lost)
	}
}

// replayJob is one job's offline stack while the stream is replayed.
type replayJob struct {
	jr   *JobReplay
	pred *SnapshotPredictor // nil under the learned counterfactual
	win  telemetry.Window   // reused per fed window

	// rec is the record behind win while Feed runs, nil once its
	// sender matrix is in win; built counts the matrices built.
	rec   *WindowRecord
	built int
}

// buildSenders puts the fed window's sender matrix into win, building
// it from the record's section the first time it is asked for.
func (j *replayJob) buildSenders() {
	if j.rec == nil {
		return
	}
	if j.rec.pending {
		j.built++
	}
	j.win.SenderBytes = j.rec.Senders()
	j.rec = nil
}

// Replayer re-drives the detect → localize → remediate stack from
// decoded trace records, one Feed call at a time — the incremental
// core of Replay that flowpulse-serve runs against live streams. Feed
// records in stream order; Result seals the fingerprints.
type Replayer struct {
	hdr  *Header
	topo *topology.Topology
	opts ReplayOptions

	res     *ReplayResult
	fp      fpState
	buckets map[uint64]*fpState // per (job, leaf) of the events folded in
	fab     *offlinePlane
	jobs    map[uint16]*replayJob

	// OnEvent and OnAction, when set, observe the offline stream as it
	// is re-derived (flowpulse-serve routes them to its alert hub).
	// OnWindow, when set, sees every replayed window with its detector
	// score (flowpulse-serve's deviation gauge).
	OnEvent  func(e monitor.Event)
	OnAction func(a remediate.Action)
	OnWindow func(ws monitor.WindowScore)
}

// NewReplayer builds the offline stack for a decoded header. topo must
// be the topology rebuilt from that header (Reader.Topo).
func NewReplayer(hdr *Header, topo *topology.Topology, opts ReplayOptions) (*Replayer, error) {
	if len(hdr.Jobs) == 0 {
		return nil, fmt.Errorf("trace: header lists no jobs")
	}
	useLearned := false
	switch opts.Predictor {
	case "", "recorded":
	case "learned":
		useLearned = true
	default:
		return nil, fmt.Errorf("trace: unknown replay predictor %q (want recorded or learned)", opts.Predictor)
	}

	rp := &Replayer{
		hdr:     hdr,
		topo:    topo,
		opts:    opts,
		res:     &ReplayResult{Header: hdr, Topo: topo},
		fp:      newFP(),
		buckets: map[uint64]*fpState{},
		fab:     &offlinePlane{topo: topo, pending: map[topology.LinkID][]func(sim.Time, bool){}},
		jobs:    make(map[uint16]*replayJob, len(hdr.Jobs)),
	}

	faults := predict.NewFaultSet()
	if hdr.Remediate != nil && !useLearned {
		rp.res.Remediator = remediate.New(rp.fab, faults, nil, *hdr.Remediate)
		rp.res.Remediator.OnAction = func(a remediate.Action) {
			fpAction(&rp.fp, &a)
			rp.res.ActionCount++
			if !opts.NoHistory {
				rp.res.Actions = append(rp.res.Actions, a)
			}
			if rp.OnAction != nil {
				rp.OnAction(a)
			}
		}
	}

	var rem monitor.RemediateStage
	if rp.res.Remediator != nil {
		rem = rp.res.Remediator
	}
	for i := range hdr.Jobs {
		jh := &hdr.Jobs[i]
		if rp.jobs[jh.Job] != nil {
			return nil, fmt.Errorf("trace: duplicate job %d in header", jh.Job)
		}
		dcfg := jh.DetectConfig()
		if opts.Threshold != 0 {
			dcfg.Threshold = opts.Threshold
		}
		j := &replayJob{jr: &JobReplay{Job: jh.Job}}
		var pred predict.Predictor
		if useLearned {
			pred = predict.NewLearned(len(topo.Leaves()), predict.LearnedConfig{})
		} else {
			j.pred = &SnapshotPredictor{job: j}
			pred = j.pred
		}
		j.jr.Pipeline, _ = monitor.Build(monitor.Spec{
			Topo: topo, Pred: pred, Detect: dcfg, Faults: faults,
			Remediate: rem, NoHistory: opts.NoHistory,
			OnEvent: func(e monitor.Event) {
				fpEvent(&rp.fp, &e)
				bk := cacheKey(e.Alert.Job, e.Alert.LeafOrdinal)
				b := rp.buckets[bk]
				if b == nil {
					fp := newFP()
					b = &fp
					rp.buckets[bk] = b
				}
				fpEvent(b, &e)
				rp.res.EventCount++
				if !rp.opts.NoHistory {
					rp.res.Events = append(rp.res.Events, e)
				}
				if rp.OnEvent != nil {
					rp.OnEvent(e)
				}
			},
			OnWindow: func(ws monitor.WindowScore) {
				if rp.OnWindow != nil {
					rp.OnWindow(ws)
				}
			},
		})
		rp.jobs[jh.Job] = j
		rp.res.Jobs = append(rp.res.Jobs, j.jr)
	}
	return rp, nil
}

// Feed advances the offline stack by one decoded record. It keeps no
// reference to rec itself or to a window's storage once it returns: the
// pipeline copies what it retains (key fields, PortBytes, AggPortBytes)
// into its own score records, and the job's SnapshotPredictor only borrows
// PortPred/SenderPred until the next Feed. So the caller may overwrite
// the Record and the WindowRecord — a NextInto slot — as soon as Feed
// returns. A window's sender matrix is built (WindowRecord.Senders) only
// when something reads it: the localizer, through the SnapshotPredictor,
// on a window that raised an alert, or the learned counterfactual's
// observer, on every window. The other payloads (Event, Action, Fault,
// Trailer) are retained by pointer; the Reader allocates those fresh
// per record.
func (rp *Replayer) Feed(rec *Record) error {
	switch rec.Kind {
	case KindWindow:
		wr := rec.Window
		if rp.opts.FirstIter > 0 && wr.Iter < rp.opts.FirstIter {
			return nil
		}
		if rp.opts.LastIter > 0 && wr.Iter > rp.opts.LastIter {
			return nil
		}
		j := rp.jobs[rp.hdr.PipelineJob(wr.Job)]
		if j == nil {
			return fmt.Errorf("trace: window for job %d not in header", wr.Job)
		}
		if wr.LeafOrd < 0 || wr.LeafOrd >= len(rp.topo.Leaves()) {
			return fmt.Errorf("trace: window leaf ordinal %d out of range", wr.LeafOrd)
		}
		if wr.Iter > j.jr.MaxIter {
			j.jr.MaxIter = wr.Iter
		}
		j.win, j.rec = wr.Window(rp.topo), wr
		if j.pred != nil {
			j.pred.Set(wr.Ready, wr.PortPred, wr.SenderPred)
		} else {
			j.buildSenders()
		}
		j.jr.Pipeline.OnWindow(&j.win)
		j.rec = nil
		rp.res.Windows++
	case KindProbe:
		rp.fab.deliver(rec.Probe)
	case KindEvent:
		if !rp.opts.NoHistory {
			rp.res.RecordedEvents = append(rp.res.RecordedEvents, rec.Event)
		}
	case KindAction:
		if !rp.opts.NoHistory {
			rp.res.RecordedActions = append(rp.res.RecordedActions, rec.Action)
		}
	case KindFault:
		rp.res.Faults = append(rp.res.Faults, rec.Fault)
	case KindTrailer:
		rp.res.Trailer = rec.Trailer
	}
	return nil
}

// Result seals and returns the replay outcome. The Replayer may keep
// being fed afterwards; Result reflects everything fed so far.
func (rp *Replayer) Result() *ReplayResult {
	rp.res.Fingerprint, rp.res.BucketFingerprint = rp.fp.h, 0
	for _, b := range rp.buckets {
		rp.res.BucketFingerprint ^= b.h
	}
	return rp.res
}

// Replay runs a recorded trace back through the detect → localize →
// remediate stack offline, entirely without the fabric. Every window
// decodes into one reused slot (see Feed for why that is safe).
func Replay(src io.Reader, opts ReplayOptions) (*ReplayResult, error) {
	rd, err := NewReader(src)
	if err != nil {
		return nil, err
	}
	rp, err := NewReplayer(rd.Header(), rd.Topo(), opts)
	if err != nil {
		return nil, err
	}
	var slot WindowRecord
	dest := func(uint16, int) *WindowRecord { return &slot }
	for {
		rec, err := rd.NextInto(dest)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if err := rp.Feed(&rec); err != nil {
			return nil, err
		}
	}
	return rp.Result(), nil
}
