// Package flowpulse is a library reproduction of "FlowPulse: Catching
// Network Failures in ML Clusters" (HotNets '25): rapid, low-overhead
// detection of silent network faults in per-packet-spraying training
// fabrics, by checking the temporal symmetry of per-port traffic
// volumes during repeated collectives.
//
// The package bundles a packet-level simulator of a lossless Ethernet
// fat tree (the evaluation substrate), NCCL-style ring collectives, a
// RoCE-like transport, and the FlowPulse system itself: in-switch
// telemetry, three load-prediction models, threshold detection, and
// link localization.
//
// Quick start:
//
//	cluster, err := flowpulse.New(flowpulse.Scenario{
//		Leaves: 32, Spines: 16, BytesPerRank: 16 << 20, Iterations: 6,
//		// After iteration 2, one link silently drops 1.5% of its packets.
//		Faults: []flowpulse.FaultSpec{{
//			Kind: flowpulse.FaultBernoulli, Leaf: 3, Spine: 1, Rate: 0.015, Onset: 2,
//		}},
//	})
//	if err != nil {
//		log.Fatal(err)
//	}
//	mon, _ := cluster.Monitor(flowpulse.MonitorConfig{})
//	if err := cluster.Train(nil); err != nil {
//		log.Fatal(err)
//	}
//	for _, e := range mon.Events() {
//		fmt.Println(e.Alert, e.Verdict)
//	}
package flowpulse

import (
	"io"

	"flowpulse/internal/core"
	"flowpulse/internal/detect"
	"flowpulse/internal/fabric"
	"flowpulse/internal/monitor"
	"flowpulse/internal/remediate"
	"flowpulse/internal/sim"
	"flowpulse/internal/topology"
	"flowpulse/internal/trace"
	"flowpulse/internal/transport"
)

// Scenario describes the simulated cluster and training workload; see
// the field documentation on core.Scenario. The zero value is the
// paper's evaluation setup: a 32-leaf × 16-spine non-blocking fat
// tree, one GPU host per leaf, Ring-AllReduce over all hosts,
// adaptive per-packet spraying, lossless PFC Ethernet at 400 Gb/s.
// Populate Scenario.Jobs to run several concurrent training jobs on
// one fabric (§7 "Parallel Jobs"). Its JSON form is the scenario of a
// flowpulse-sim -scenario file.
type Scenario = core.Scenario

// JobSpec describes one training job of a multi-job scenario
// (Scenario.Jobs); see core.JobScenario for the field semantics and
// defaulting rules.
type JobSpec = core.JobScenario

// Link names a leaf-spine link by (leaf ordinal, spine ordinal, trunk).
type Link = core.LeafSpineLink

// LinkID is a raw topology link identifier (as reported by the
// remediation timeline and localization verdicts).
type LinkID = topology.LinkID

// Event is one fault detection: the Alert (a single port's deviation
// beyond the detection threshold) with the localizer's Verdict.
type Event = core.Event

// Duration is simulated time (picoseconds); use the sim constants
// re-exported below.
type Duration = sim.Duration

// Convenient duration units.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
)

// Collective kinds for Scenario.Collective.
const (
	RingAllReduce = core.RingAllReduce
	ReduceScatter = core.ReduceScatter
	AllGather     = core.AllGatherKind
	AllToAll      = core.AllToAllKind
)

// PredictorKind selects the load model (§5.2).
type PredictorKind = core.PredictorKind

// The three load models of §5.2.
const (
	Analytical PredictorKind = core.AnalyticalModel
	Simulation PredictorKind = core.SimulationModel
	Learned    PredictorKind = core.LearnedModel
)

// RemediateConfig tunes the closed-loop remediator: alert confirmation
// (K consecutive deviating windows), probed re-admission (M clean probe
// rounds), and BGP-style flap damping. The zero value uses the
// documented defaults.
type RemediateConfig = remediate.Config

// RemediationAction is one entry of the remediation timeline.
type RemediationAction = remediate.Action

// RemediationStats counts remediation activity.
type RemediationStats = remediate.Stats

// MonitorConfig tunes the FlowPulse deployment on a cluster.
type MonitorConfig struct {
	// Predictor selects the load model; defaults to Analytical (the
	// paper's evaluation choice).
	Predictor PredictorKind
	// Threshold is the detection threshold; defaults to the paper's 1%.
	Threshold float64
	// OnEvent streams detections as they happen.
	OnEvent func(e Event)
	// Remediate, when non-nil, closes the loop: confirmed faults are
	// quarantined (admin-down + model re-baseline) and probed for
	// re-admission, with flap damping. Use &RemediateConfig{} for the
	// defaults.
	Remediate *RemediateConfig
	// TraceSink, when set, records the run — every measurement window
	// with the prediction in effect, every detection, every remediation
	// action, and the fault schedule — as a .fpt stream for offline
	// replay and threshold sweeps with flowpulse-trace: to a file, or to
	// a serve.Producer connected to a flowpulse-serve instance, turning
	// the live run into a producer.
	TraceSink io.Writer
}

// Cluster is a simulated training cluster: fabric, transport,
// collective workload, and (optionally) a FlowPulse monitor.
type Cluster struct {
	rt *core.Runtime
}

// New builds a cluster from a scenario.
func New(sc Scenario) (*Cluster, error) {
	rt, err := sc.Build()
	if err != nil {
		return nil, err
	}
	return &Cluster{rt: rt}, nil
}

// Monitor deploys FlowPulse on every leaf switch. Call it before
// Train. Deploying twice is an error.
//
// ONE telemetry tap per switch feeds an analysis pipeline for every job
// of the scenario, and — when Remediate is set — a single arbiter
// quarantines confirmed links exactly once, with cross-job
// corroboration when there are several jobs (Scenario.Jobs). Per-job
// results are on Monitor.Jobs; the Simulation predictor is not
// supported with more than one job.
func (c *Cluster) Monitor(cfg MonitorConfig) (*Monitor, error) {
	opts := core.AttachOptions{
		Job: core.JobConfig{
			Kind:    cfg.Predictor,
			Detect:  detect.Config{Threshold: cfg.Threshold},
			OnEvent: cfg.OnEvent,
		},
		Remediate: cfg.Remediate,
	}
	if cfg.TraceSink != nil {
		opts.Trace = trace.NewWriter(cfg.TraceSink)
	}
	sys, err := c.rt.Attach(opts)
	if err != nil {
		return nil, err
	}
	m := &Monitor{sys: sys}
	if len(c.rt.Scenario.Jobs) > 0 {
		for _, j := range sys.Jobs() {
			m.jobs = append(m.jobs, &JobMonitor{job: j.ID, pipe: j.Pipeline})
		}
	}
	return m, nil
}

// FaultSpec is one entry of Scenario.Faults, the silent-fault schedule
// Train applies: what loss process, on which link and direction, armed
// after which iteration and (optionally) healed after which.
type FaultSpec = core.FaultSpec

// Loss processes for FaultSpec.Kind: a Bernoulli drop, and a link that
// degrades periodically. The rest go by name: "blackhole",
// "gilbert-elliott", and "model" for a caller-built FaultSpec.Model.
const (
	FaultBernoulli = core.FaultBernoulli
	FaultFlap      = core.FaultFlap
)

// inject arms f now. The imperative wrappers below keep their
// signatures, so bad input panics here as it always has; a schedule in
// Scenario.Faults is validated by New instead.
func (c *Cluster) inject(f FaultSpec, l Link) {
	f.Leaf, f.Spine, f.Trunk = l.LeafOrd, l.SpineOrd, l.Trunk
	if _, err := c.rt.Inject(f); err != nil {
		panic(err)
	}
}

// BreakLink injects a silent Bernoulli packet-drop fault on the
// downstream (spine→leaf) direction of a link, now — call it from a
// Train hook to script what Scenario.Faults cannot phrase. Routing does
// not react: the fault is silent.
func (c *Cluster) BreakLink(l Link, dropRate float64) {
	c.inject(FaultSpec{Kind: FaultBernoulli, Rate: dropRate}, l)
}

// BreakLinkUpstream faults the leaf→spine direction instead.
func (c *Cluster) BreakLinkUpstream(l Link, dropRate float64) {
	c.inject(FaultSpec{Kind: FaultBernoulli, Rate: dropRate, Upstream: true}, l)
}

// HealLink removes silent faults from a link.
func (c *Cluster) HealLink(l Link) {
	if err := c.rt.Heal(FaultSpec{Leaf: l.LeafOrd, Spine: l.SpineOrd, Trunk: l.Trunk}); err != nil {
		panic(err)
	}
}

// FlapLink makes a link periodically degrade: for downFor out of every
// period it silently drops each packet with probability lossRate (both
// directions), then runs clean for the rest of the cycle — the
// intermittent-optics adversary the remediator's flap damping exists
// for.
func (c *Cluster) FlapLink(l Link, period, downFor, phase Duration, lossRate float64) {
	c.inject(FaultSpec{Kind: FaultFlap, Rate: lossRate, FlapPeriod: period, FlapDown: downFor, FlapPhase: phase}, l)
}

// Train runs the scenario's training to completion, arming and healing
// the faults of Scenario.Faults on the way. onIteration (optional) fires
// after each iteration of the first job with the simulated time and
// iteration number — call BreakLink or HealLink from it to script what a
// schedule cannot phrase. The error is the recording's I/O error
// (MonitorConfig.TraceSink).
func (c *Cluster) Train(onIteration func(now Duration, iter uint32)) error {
	if onIteration == nil {
		return c.TrainAll(nil)
	}
	first := c.rt.Jobs[0].Spec.Job
	return c.TrainAll(func(now Duration, job uint16, iter uint32) {
		if job == first {
			onIteration(now, iter)
		}
	})
}

// TrainAll is Train with onIteration firing after each iteration of
// EACH job.
func (c *Cluster) TrainAll(onIteration func(now Duration, job uint16, iter uint32)) error {
	if onIteration == nil {
		return c.rt.Train(nil)
	}
	return c.rt.Train(func(now sim.Time, job uint16, iter uint32) { onIteration(Duration(now), job, iter) })
}

// Close releases the engine of a cluster that will not be trained (and
// with it the worker pool of one built with Scenario.Shards ≥ 1); Train
// releases it itself. A closed cluster cannot run again, whatever its
// Shards. Safe to call more than once.
func (c *Cluster) Close() { c.rt.Close() }

// Now returns the current simulated time.
func (c *Cluster) Now() Duration { return Duration(c.rt.Engine.Now()) }

// NetworkStats returns fabric-level packet counters.
func (c *Cluster) NetworkStats() fabric.Stats { return c.rt.Net.Stats() }

// TransportStats returns transport-level counters.
func (c *Cluster) TransportStats() transport.Stats { return c.rt.Stack.Stats() }

// Scenario returns the (defaulted) scenario the cluster was built from.
func (c *Cluster) Scenario() Scenario { return c.rt.Scenario }

// Runtime exposes the underlying simulation objects for advanced use
// (direct fault models, custom telemetry, 3-level fabrics).
func (c *Cluster) Runtime() *core.Runtime { return c.rt }

// Monitor is a deployed FlowPulse system: one monitoring plane with an
// analysis pipeline per job of the scenario (see Jobs).
type Monitor struct {
	sys  *core.System
	jobs []*JobMonitor
}

// Jobs returns the per-job monitor handles in Scenario.Jobs order (nil
// when the scenario did not list Jobs).
func (m *Monitor) Jobs() []*JobMonitor { return m.jobs }

// Job returns the handle for one job id (nil if absent, or when the
// scenario did not list Jobs).
func (m *Monitor) Job(id uint16) *JobMonitor {
	for _, j := range m.jobs {
		if j.job == id {
			return j
		}
	}
	return nil
}

// only returns the system's one job, or nil when it monitors several:
// iteration clocks, detectors and expectations are per job, so the
// whole-monitor forms of those answers exist only for a lone job.
func (m *Monitor) only() *core.Job {
	if jobs := m.sys.Jobs(); len(jobs) == 1 {
		return jobs[0]
	}
	return nil
}

// Events returns every detection so far, in order. With several jobs
// their events are concatenated in Scenario.Jobs order; use Jobs for
// the per-job view.
func (m *Monitor) Events() []Event {
	var all []Event
	for _, j := range m.sys.Jobs() {
		all = append(all, j.Pipeline.Events...)
	}
	return all
}

// Windows returns the number of measurement windows processed (summed
// across jobs).
func (m *Monitor) Windows() int {
	n := 0
	for _, j := range m.sys.Jobs() {
		n += j.Pipeline.Windows
	}
	return n
}

// IterationScores returns, per iteration, the maximum absolute
// relative deviation observed across all leaves and ports — the
// statistic the paper's classifier thresholds. Iteration clocks are
// per job, so on a multi-job monitor this is only defined per job
// (Jobs); it returns nil there.
func (m *Monitor) IterationScores() map[uint32]float64 {
	if j := m.only(); j != nil {
		return j.Pipeline.IterationScores()
	}
	return nil
}

// DetectorStats returns detector counters (zero on a multi-job
// monitor, whose detectors are per job).
func (m *Monitor) DetectorStats() detect.Stats {
	if j := m.only(); j != nil {
		return j.Detector.Stats()
	}
	return detect.Stats{}
}

// Rebaselines reports how many times the learned model replaced its
// baseline (0 for other predictors and for multi-job monitors).
func (m *Monitor) Rebaselines() int {
	if j := m.only(); j != nil && j.Learned() != nil {
		return j.Learned().Rebaselines
	}
	return 0
}

// PredictorName reports the active load model (every job runs the
// same kind).
func (m *Monitor) PredictorName() string { return m.sys.Jobs()[0].Predictor.Name() }

// PortPrediction returns the model's expected per-uplink volume for a
// leaf (nil while a learned model warms up, and on multi-job monitors,
// where expectations are per job).
func (m *Monitor) PortPrediction(leafOrdinal int) []float64 {
	if j := m.only(); j != nil && j.Predictor.Ready(leafOrdinal) {
		return j.Predictor.PortLoad(leafOrdinal)
	}
	return nil
}

// RemediationTimeline returns the remediator's action log (nil when
// MonitorConfig.Remediate was not set). This is the ONE arbiter's log:
// cross-job confirmations appear here once, regardless of how many
// jobs flagged the link.
func (m *Monitor) RemediationTimeline() []RemediationAction {
	if r := m.sys.Remediator(); r != nil {
		return r.Timeline
	}
	return nil
}

// RemediationStats returns remediation counters (zero when
// MonitorConfig.Remediate was not set).
func (m *Monitor) RemediationStats() RemediationStats {
	if r := m.sys.Remediator(); r != nil {
		return r.Stats()
	}
	return RemediationStats{}
}

// Quarantined returns the links currently held out of service by the
// remediator, in quarantine order.
func (m *Monitor) Quarantined() []LinkID {
	if r := m.sys.Remediator(); r != nil {
		return r.Quarantined()
	}
	return nil
}

// TraceWriter returns the attached trace writer (nil when
// MonitorConfig.TraceSink was not set). Harnesses read the stream
// fingerprint from it; the injector writes the ground-truth fault
// records.
func (m *Monitor) TraceWriter() *trace.Writer { return m.sys.TraceWriter() }

// JobMonitor is one job's view of a monitor: the results of that job's
// analysis pipeline on the monitoring plane.
type JobMonitor struct {
	job  uint16
	pipe *monitor.Pipeline
}

// ID returns the job id this handle monitors.
func (j *JobMonitor) ID() uint16 { return j.job }

// Events returns this job's detections so far, in order.
func (j *JobMonitor) Events() []Event { return j.pipe.Events }

// Windows returns the number of this job's windows processed.
func (j *JobMonitor) Windows() int { return j.pipe.Windows }

// IterationScores returns this job's per-iteration max deviation.
func (j *JobMonitor) IterationScores() map[uint32]float64 { return j.pipe.IterationScores() }
