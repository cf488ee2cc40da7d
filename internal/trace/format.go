// Package trace is FlowPulse's record-once / analyze-many layer: a
// versioned, streamable binary format (.fpt) capturing everything the
// pipeline downstream of the dataplane consumes — measurement windows
// with their live per-window predictions and per-sender breakdowns,
// localized alerts, remediation actions and probe rounds, job and
// topology metadata, and the injected fault schedule as ground truth.
//
// Because detect → localize → remediate reads only windows and
// predictions, a recorded run can be replayed offline, entirely
// without the fabric: re-detection at a different threshold, a
// would-the-learned-model-have-caught-it counterfactual, or a full ROC
// sweep all cost one file scan instead of a re-simulation. The Writer
// attaches to a live core.System via telemetry/monitor hooks and
// encodes with zero steady-state allocations; the Reader and Replay
// drive the same detector/localizer/remediator code the online run
// used, and the shared event fingerprint proves the offline stream is
// bit-identical to the online one.
//
// Format: an 8-byte magic, then length-prefixed records, each framed
// as uvarint(len) ‖ payload ‖ CRC32C(payload). Payloads open with a
// one-byte record kind; integers are varints (zigzag + delta for
// counters and times), predictions XOR-fold against the previous
// window of the same (job, leaf) so stable baselines cost one byte per
// float. Compatibility rule: readers accept any trace whose header
// FormatVersion is ≤ their own Version and must tolerate unknown
// record kinds (skip; the frame length makes every record skippable);
// any change that breaks either property bumps Version.
package trace

import (
	"flowpulse/internal/detect"
	"flowpulse/internal/localize"
	"flowpulse/internal/monitor"
	"flowpulse/internal/remediate"
	"flowpulse/internal/sim"
	"flowpulse/internal/telemetry"
	"flowpulse/internal/topology"
)

// Magic opens every trace file.
var Magic = [8]byte{'F', 'P', 'T', 'R', 'A', 'C', 'E', '\n'}

// Version is the current format version, written into the header.
// Version 2 appends ECN congestion fields: each job header carries the
// detector's CEDiscount and each window record its CE-marked byte
// count. Both are trailing fields, so version-1 traces decode with the
// fields zero — exactly the pre-ECN semantics they recorded.
const Version = 2

// The record kinds of format version 1.
const (
	KindHeader  byte = 1
	KindWindow  byte = 2
	KindEvent   byte = 3
	KindAction  byte = 4
	KindProbe   byte = 5
	KindFault   byte = 6
	KindTrailer byte = 7
)

// maxFrame bounds one record's payload: far above any real window
// record (a 64×64 fat tree's sender matrix is ~40 KiB), low enough
// that a corrupt length prefix cannot drive a giant allocation.
const maxFrame = 1 << 26

// maxTopoDim bounds each header topology dimension (leaves, spines,
// hosts per leaf, trunk) when the reader rebuilds the fabric.
const maxTopoDim = 4096

// Header is the trace's opening record: enough metadata to rebuild
// the monitored topology and every job's pipeline configuration
// offline.
type Header struct {
	// FormatVersion is the writer's format version.
	FormatVersion int
	// Label is free-form run metadata (scenario description).
	Label string
	// Leaves, Spines, HostsPerLeaf, Trunk, LinkRateBPS describe the
	// fat-tree fabric (trace v1 records two-level leaf/spine systems).
	Leaves, Spines, HostsPerLeaf, Trunk int
	LinkRateBPS                         int64
	// Shared marks a multi-job recording (core sets it when it monitors
	// more than one job); see PipelineJob for what it decides.
	Shared bool
	// Jobs holds one entry per monitored pipeline, in registration
	// order.
	Jobs []JobHeader
	// Remediate is the effective (defaulted) configuration of the
	// attached control plane, nil when the recording ran without one.
	Remediate *remediate.Config
}

// JobHeader is one pipeline's configuration as it ran online.
type JobHeader struct {
	Job       uint16
	Predictor string
	// Threshold, MinPredicted, AggregateSymmetry, CEDiscount are the
	// effective (defaulted) detector configuration. CEDiscount is a
	// format-v2 field; v1 traces decode it as zero (disabled).
	Threshold         float64
	MinPredicted      float64
	AggregateSymmetry bool
	CEDiscount        float64
}

// DetectConfig is the detector configuration the pipeline ran with.
func (j *JobHeader) DetectConfig() detect.Config {
	return detect.Config{
		Threshold:         j.Threshold,
		MinPredicted:      j.MinPredicted,
		AggregateSymmetry: j.AggregateSymmetry,
		CEDiscount:        j.CEDiscount,
	}
}

// PipelineJob maps a window's job tag to the id of the header job whose
// pipeline consumes it: a multi-job recording demuxes by job id, as the
// monitoring plane did online; a single-pipeline recording sends every
// window through its one pipeline. The header must list at least one
// job (NewReplayer rejects one that does not).
func (h *Header) PipelineJob(job uint16) uint16 {
	if h.Shared {
		return job
	}
	return h.Jobs[0].Job
}

// WindowRecord is one recorded measurement window plus the prediction
// that was live when the online detector checked it. Snapshotting the
// prediction per window is what makes replay robust against baseline
// evolution (learned-model adoption, post-quarantine rebaselines)
// without re-running the load model's inputs.
type WindowRecord struct {
	Job                uint16
	LeafOrd            int
	Iter               uint32
	OpenedAt, ClosedAt sim.Time
	Packets            int64
	PortBytes          []int64
	AggPortBytes       []int64
	// SenderBytes is the per-sender matrix, which only localization
	// reads. Reader.Next returns it built; NextInto leaves it empty
	// until Senders builds it from the record's own copy of the encoded
	// section.
	SenderBytes [][]int64
	// Ready mirrors Predictor.Ready at window close; PortPred and
	// SenderPred are only present when true.
	Ready      bool
	PortPred   []float64
	SenderPred [][]float64
	// CEBytes is the window's ECN congestion-experienced byte count
	// (format v2; zero when replaying v1 traces or ECN-less fabrics).
	CEBytes int64

	// sec is the per-sender section as encoded (row count, then each
	// row's length and deltas), copied out of the frame and checked
	// when the window was decoded; pending says SenderBytes is not yet
	// built from it. predFlat backs the SenderPred rows.
	sec      []byte
	pending  bool
	predFlat []float64
}

// Senders returns the per-sender matrix, first building SenderBytes
// from the record's section if NextInto deferred it. The record owns
// the section, so this is valid for as long as the record is, however
// far the Reader has moved on.
func (wr *WindowRecord) Senders() [][]int64 {
	if wr.pending {
		wr.buildSenders()
	}
	return wr.SenderBytes
}

// buildSenders decodes the deferred section into SenderBytes. The
// decoder checked every length and varint of it already, so the error
// is always nil; the fuzz targets hold it to that.
func (wr *WindowRecord) buildSenders() error {
	d := dec{b: wr.sec}
	n := d.count(1)
	wr.SenderBytes = i64Rows(wr.SenderBytes, n)
	for i := 0; i < n && d.err == nil; i++ {
		wr.SenderBytes[i] = i64Slice(wr.SenderBytes[i], d.count(1))
		d.deltaRow(wr.SenderBytes[i])
	}
	wr.pending = false
	return d.done()
}

// Window returns the record as the telemetry window a pipeline
// consumes. The slices are shared with the record, not copied (a
// deferred SenderBytes stays empty: see Senders), and LeafOrd must
// already be checked against topo.
func (wr *WindowRecord) Window(topo *topology.Topology) telemetry.Window {
	return telemetry.Window{
		Leaf:         topo.Leaves()[wr.LeafOrd],
		LeafOrdinal:  wr.LeafOrd,
		Job:          wr.Job,
		Iter:         wr.Iter,
		PortBytes:    wr.PortBytes,
		SenderBytes:  wr.SenderBytes,
		Packets:      wr.Packets,
		CEBytes:      wr.CEBytes,
		AggPortBytes: wr.AggPortBytes,
		OpenedAt:     wr.OpenedAt,
		ClosedAt:     wr.ClosedAt,
	}
}

// ProbeRecord is one completed OAM probe round on a quarantined link.
type ProbeRecord struct {
	At         sim.Time
	Link       topology.LinkID
	Sent, Lost int
}

// FaultRecord is ground truth: one injected (or healed, Clear=true)
// fault. OnsetIter labels iterations: the fault is active for
// iterations strictly after OnsetIter, until a matching Clear record's
// OnsetIter.
type FaultRecord struct {
	At        sim.Time
	Kind      string // "bernoulli", "blackhole", "gilbert-elliott", "flap", ...
	LeafOrd   int
	SpineOrd  int
	Trunk     int
	Upstream  bool
	Rate      float64
	OnsetIter uint32
	Clear     bool
	// FlapPeriod, FlapDown, FlapPhase parameterize flap faults.
	FlapPeriod, FlapDown, FlapPhase sim.Duration
}

// Trailer closes a trace: record counts, the final simulation time,
// and the online event/action fingerprint (the replay-equivalence
// reference). A missing trailer means the recording was truncated.
type Trailer struct {
	Windows, Events, Actions, ProbeRounds, Faults uint64
	EndTime                                       sim.Time
	Fingerprint                                   uint64
}

// Record is one decoded trace record; exactly one pointer field is
// non-nil, selected by Kind.
type Record struct {
	Kind    byte
	Header  *Header
	Window  *WindowRecord
	Event   *monitor.Event
	Action  *remediate.Action
	Probe   *ProbeRecord
	Fault   *FaultRecord
	Trailer *Trailer
}

// --- header encoding ---

func encodeHeader(e *enc, h *Header) {
	e.kind(KindHeader)
	e.u(uint64(h.FormatVersion))
	e.u(0) // flags, reserved
	e.s(h.Label)
	e.u(uint64(h.Leaves))
	e.u(uint64(h.Spines))
	e.u(uint64(h.HostsPerLeaf))
	e.u(uint64(h.Trunk))
	e.u(uint64(h.LinkRateBPS))
	e.bit(h.Shared)
	e.u(uint64(len(h.Jobs)))
	for _, j := range h.Jobs {
		e.u(uint64(j.Job))
		e.s(j.Predictor)
		e.f(j.Threshold)
		e.f(j.MinPredicted)
		e.bit(j.AggregateSymmetry)
		e.f(j.CEDiscount)
	}
	e.bit(h.Remediate != nil)
	if h.Remediate != nil {
		r := h.Remediate
		e.u(uint64(r.ConfirmWindows))
		e.u(uint64(r.CleanProbes))
		e.i(int64(r.ProbeInterval))
		e.u(uint64(r.ProbePackets))
		e.u(uint64(r.ProbeBytes))
		e.f(r.Penalty)
		e.f(r.Suppress)
		e.f(r.Reuse)
		e.i(int64(r.HalfLife))
		e.i(int64(r.CorroborateWindows))
		e.i(int64(r.CorroborateHorizon))
	}
}

func decodeHeader(d *dec) *Header {
	h := &Header{}
	h.FormatVersion = int(d.u())
	d.u() // flags
	h.Label = d.s()
	h.Leaves = int(d.u())
	h.Spines = int(d.u())
	h.HostsPerLeaf = int(d.u())
	h.Trunk = int(d.u())
	h.LinkRateBPS = int64(d.u())
	h.Shared = d.bit()
	nJobs := d.count(12)
	for i := 0; i < nJobs && d.err == nil; i++ {
		jh := JobHeader{
			Job:               uint16(d.u()),
			Predictor:         d.s(),
			Threshold:         d.f(),
			MinPredicted:      d.f(),
			AggregateSymmetry: d.bit(),
		}
		if h.FormatVersion >= 2 {
			jh.CEDiscount = d.f()
		}
		h.Jobs = append(h.Jobs, jh)
	}
	if d.bit() {
		h.Remediate = &remediate.Config{
			ConfirmWindows:     int(d.u()),
			CleanProbes:        int(d.u()),
			ProbeInterval:      sim.Duration(d.i()),
			ProbePackets:       int(d.u()),
			ProbeBytes:         int(d.u()),
			Penalty:            d.f(),
			Suppress:           d.f(),
			Reuse:              d.f(),
			HalfLife:           sim.Duration(d.i()),
			CorroborateWindows: int(d.i()),
			CorroborateHorizon: sim.Duration(d.i()),
		}
	}
	return h
}

// --- event encoding ---

func encodeEvent(e *enc, ev *monitor.Event, last sim.Time) {
	a := ev.Alert
	e.kind(KindEvent)
	e.u(uint64(a.Job))
	e.u(uint64(a.LeafOrdinal))
	e.u(uint64(a.Level))
	e.u(uint64(a.Uplink))
	e.u(uint64(a.Iter))
	e.i(int64(a.At) - int64(last))
	e.f(a.Predicted)
	e.f(a.Observed)
	e.f(a.Deviation)
	v := ev.Verdict
	e.u(uint64(v.Kind))
	e.u(uint64(len(v.Links)))
	for _, l := range v.Links {
		e.u(uint64(l))
	}
	e.u(uint64(len(v.AffectedSenders)))
	for _, s := range v.AffectedSenders {
		e.u(uint64(s))
	}
	e.u(uint64(len(v.CleanSenders)))
	for _, s := range v.CleanSenders {
		e.u(uint64(s))
	}
}

func decodeEvent(d *dec, topo *topology.Topology, last sim.Time) (*monitor.Event, sim.Time) {
	ev := &monitor.Event{}
	a := &ev.Alert
	a.Job = uint16(d.u())
	a.LeafOrdinal = int(d.u())
	a.Level = topology.SwitchKind(d.u())
	a.Uplink = int(d.u())
	a.Iter = uint32(d.u())
	a.At = last + sim.Time(d.i())
	a.Predicted = d.f()
	a.Observed = d.f()
	a.Deviation = d.f()
	if d.err == nil && a.Level == topology.Leaf && a.LeafOrdinal < len(topo.Leaves()) {
		a.Leaf = topo.Leaves()[a.LeafOrdinal]
	}
	v := &ev.Verdict
	v.Kind = localize.Kind(d.u())
	for i, n := 0, d.count(1); i < n && d.err == nil; i++ {
		v.Links = append(v.Links, topology.LinkID(d.u()))
	}
	for i, n := 0, d.count(1); i < n && d.err == nil; i++ {
		v.AffectedSenders = append(v.AffectedSenders, int(d.u()))
	}
	for i, n := 0, d.count(1); i < n && d.err == nil; i++ {
		v.CleanSenders = append(v.CleanSenders, int(d.u()))
	}
	return ev, a.At
}

// --- action / probe / fault / trailer encoding ---

func encodeAction(e *enc, a *remediate.Action, last sim.Time) {
	e.kind(KindAction)
	e.i(int64(a.At) - int64(last))
	e.u(uint64(a.Kind))
	e.u(uint64(a.Link))
	e.s(a.Detail)
}

func decodeAction(d *dec, last sim.Time) (*remediate.Action, sim.Time) {
	a := &remediate.Action{}
	a.At = last + sim.Time(d.i())
	a.Kind = remediate.ActionKind(d.u())
	a.Link = topology.LinkID(d.u())
	a.Detail = d.s()
	return a, a.At
}

func encodeProbe(e *enc, p *ProbeRecord, last sim.Time) {
	e.kind(KindProbe)
	e.i(int64(p.At) - int64(last))
	e.u(uint64(p.Link))
	e.u(uint64(p.Sent))
	e.u(uint64(p.Lost))
}

func decodeProbe(d *dec, last sim.Time) (*ProbeRecord, sim.Time) {
	p := &ProbeRecord{}
	p.At = last + sim.Time(d.i())
	p.Link = topology.LinkID(d.u())
	p.Sent = int(d.u())
	p.Lost = int(d.u())
	return p, p.At
}

func encodeFault(e *enc, f *FaultRecord, last sim.Time) {
	e.kind(KindFault)
	e.i(int64(f.At) - int64(last))
	e.s(f.Kind)
	e.u(uint64(f.LeafOrd))
	e.u(uint64(f.SpineOrd))
	e.u(uint64(f.Trunk))
	e.bit(f.Upstream)
	e.f(f.Rate)
	e.u(uint64(f.OnsetIter))
	e.bit(f.Clear)
	e.i(int64(f.FlapPeriod))
	e.i(int64(f.FlapDown))
	e.i(int64(f.FlapPhase))
}

func decodeFault(d *dec, last sim.Time) (*FaultRecord, sim.Time) {
	f := &FaultRecord{}
	f.At = last + sim.Time(d.i())
	f.Kind = d.s()
	f.LeafOrd = int(d.u())
	f.SpineOrd = int(d.u())
	f.Trunk = int(d.u())
	f.Upstream = d.bit()
	f.Rate = d.f()
	f.OnsetIter = uint32(d.u())
	f.Clear = d.bit()
	f.FlapPeriod = sim.Duration(d.i())
	f.FlapDown = sim.Duration(d.i())
	f.FlapPhase = sim.Duration(d.i())
	return f, f.At
}

func encodeTrailer(e *enc, t *Trailer, last sim.Time) {
	e.kind(KindTrailer)
	e.u(t.Windows)
	e.u(t.Events)
	e.u(t.Actions)
	e.u(t.ProbeRounds)
	e.u(t.Faults)
	e.i(int64(t.EndTime) - int64(last))
	e.raw64(t.Fingerprint)
}

func decodeTrailer(d *dec, last sim.Time) *Trailer {
	t := &Trailer{}
	t.Windows = d.u()
	t.Events = d.u()
	t.Actions = d.u()
	t.ProbeRounds = d.u()
	t.Faults = d.u()
	t.EndTime = last + sim.Time(d.i())
	t.Fingerprint = d.raw64()
	return t
}

// --- fingerprint ---

// fpEvent folds one localized detection into the stream fingerprint.
// The online Writer and the offline replay call this with events
// produced by the same pipeline code, so sum equality means every
// field of every event matched bit for bit, in order.
func fpEvent(f *fpState, ev *monitor.Event) {
	f.u64('E')
	a := ev.Alert
	f.i64(int64(a.Leaf))
	f.i64(int64(a.LeafOrdinal))
	f.u64(uint64(a.Level))
	f.i64(int64(a.Uplink))
	f.u64(uint64(a.Job))
	f.u64(uint64(a.Iter))
	f.f64(a.Predicted)
	f.f64(a.Observed)
	f.f64(a.Deviation)
	f.i64(int64(a.At))
	v := ev.Verdict
	f.u64(uint64(v.Kind))
	f.u64(uint64(len(v.Links)))
	for _, l := range v.Links {
		f.i64(int64(l))
	}
	f.u64(uint64(len(v.AffectedSenders)))
	for _, s := range v.AffectedSenders {
		f.i64(int64(s))
	}
	f.u64(uint64(len(v.CleanSenders)))
	for _, s := range v.CleanSenders {
		f.i64(int64(s))
	}
}

// fpAction folds one remediation action into the stream fingerprint.
func fpAction(f *fpState, a *remediate.Action) {
	f.u64('A')
	f.i64(int64(a.At))
	f.u64(uint64(a.Kind))
	f.i64(int64(a.Link))
	f.str(a.Detail)
}
