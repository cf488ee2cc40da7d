// Package core assembles FlowPulse (§5, Fig 1): per-switch telemetry
// monitors feeding a load model, a deviation detector, and a
// localizer — continuous, in-switch, coordination-free monitoring of
// the training jobs on one fabric for silent network faults.
package core

import (
	"fmt"
	"os"

	"flowpulse/internal/collective"
	"flowpulse/internal/control"
	"flowpulse/internal/detect"
	"flowpulse/internal/monitor"
	"flowpulse/internal/predict"
	"flowpulse/internal/remediate"
	"flowpulse/internal/resilience"
	"flowpulse/internal/sim"
	"flowpulse/internal/telemetry"
	"flowpulse/internal/topology"
	"flowpulse/internal/trace"
	"flowpulse/internal/transport"
	"flowpulse/internal/workload"
)

// PredictorKind selects one of §5.2's load models.
type PredictorKind string

// The three prediction methods of §5.2.
const (
	// AnalyticalModel is the closed-form d/(s−f) model.
	AnalyticalModel PredictorKind = "analytical"
	// SimulationModel replays a reference simulation with known faults
	// only.
	SimulationModel PredictorKind = "simulation"
	// LearnedModel measures the first iterations and re-baselines
	// after transient faults heal.
	LearnedModel PredictorKind = "learned"
)

// Event is one detection, optionally localized (an alias of the
// monitor package's Event: core assembles the pipeline stages that
// package defines).
type Event = monitor.Event

// WindowScore pairs a window with its detector score (an alias of the
// monitor package's WindowScore).
type WindowScore = monitor.WindowScore

// JobConfig is the template every job's pipeline is built from: its
// load model, detector tuning and hooks. Runtime.Attach supplies each
// job's id, demand matrix and, for SimulationModel, the reference run's
// windows.
type JobConfig struct {
	// Kind selects the load model. Defaults to AnalyticalModel.
	Kind PredictorKind
	// Learned tunes the learned model.
	Learned predict.LearnedConfig
	// Detect tunes the detector (threshold defaults to the paper's 1%).
	Detect detect.Config
	// OnEvent receives every localized detection as it happens.
	OnEvent func(e Event)
	// OnWindow receives every closed window after scoring but before
	// the learned model observes it — the hook experiment harnesses use
	// to snapshot the baseline in effect when the window was checked.
	OnWindow func(ws WindowScore)
}

// Tier is one job's stack for one tier of monitored switches: the load
// model sized to the tier, the detector over it, and the pipeline the
// plane routes that tier's windows to.
type Tier struct {
	Pipeline  *monitor.Pipeline
	Predictor predict.Predictor
	Detector  *detect.Detector
}

// Job is one monitored job's stack on a System.
type Job struct {
	ID uint16
	// Tier is the leaf tier — the leaves' view of the spine→leaf links,
	// all there is on a two-level fabric.
	Tier
	// Spine is the same stack one tier up (§7 "Network Topology"): the
	// spines' view of the core→spine links, which no leaf can see. Nil
	// on a two-level fabric.
	Spine *Tier
	// Replanner is nil until Runtime.Train arms it (and always when
	// AttachOptions.Resilience was not set).
	Replanner *resilience.Replanner

	work *workload.Job // set by bindWorkload
}

// tiers lists the job's stacks by topology.SwitchKind: leaf tier at
// index topology.Leaf, then — three-level fabrics — topology.Spine.
func (j *Job) tiers() []*Tier {
	if j.Spine == nil {
		return []*Tier{&j.Tier}
	}
	return []*Tier{&j.Tier, j.Spine}
}

// Learned returns the job's learned model, or nil for other kinds.
func (j *Job) Learned() *predict.Learned {
	l, _ := j.Predictor.(*predict.Learned)
	return l
}

// System is a running FlowPulse deployment over one fabric (§5, and §7
// "Parallel Jobs" for more than one job, "Network Topology" for more
// than one monitored tier): one telemetry tap per switch feeding one
// monitor.Pipeline per (tier, job) through a monitor.Plane, with a
// single known-fault set, control plane, trace writer and (optionally)
// remediator — the fabric-scoped parts.
//
// A three-level fabric monitors its spines too, with the same stack one
// tier up (Job.Spine), and takes the learned model only: §5.2's closed
// form and the reference run are specific to the two-level spray
// geometry, while a measured baseline works at any tier unchanged.
//
// Three things follow from the number of jobs and cannot be set.
// Pipelines of a multi-job system always detect on the all-jobs
// aggregate (detect.Config.AggregateSymmetry): jobs sharing a leaf's
// uplinks comb each other's spray shares, and only the aggregate keeps
// per-port symmetry. A lone job keeps the caller's setting, because the
// scaled-shape basis rounds differently from the job's own counts. The
// trace header's Shared flag and the "job N: " prefix on re-plan
// details appear only with several jobs, which keeps single-job
// recordings and fingerprints what they have always been.
type System struct {
	topo       *topology.Topology
	resilience *resilience.Config // nil unless AttachOptions.Resilience set
	plane      *monitor.Plane
	ctrl       *control.Plane
	faults     *predict.FaultSet
	remediator *remediate.Remediator // nil unless AttachOptions.Remediate set
	trc        *trace.Writer         // nil unless tracing
	jobs       []*Job                // registration order
}

// Attach deploys FlowPulse on every job of the runtime, over its fabric,
// transport and control plane (so injected divergence reaches the
// predictor and remediator): it registers telemetry hooks on every
// monitored switch and builds one pipeline per (tier, job) from
// opts.Job. The system is remembered for Train; attaching twice is an
// error.
func (rt *Runtime) Attach(opts AttachOptions) (*System, error) {
	if rt.sys != nil {
		return nil, fmt.Errorf("core: a monitor is already attached to this runtime")
	}
	jc, topo, first := opts.Job, rt.Topo, rt.Jobs[0].Spec.Job
	// The configuration checks come before the reference run, so a
	// rejected configuration simulates nothing.
	switch {
	case opts.Resilience != nil && opts.Remediate == nil:
		return nil, fmt.Errorf("core: Config.Resilience requires Config.Remediate (re-plans are quarantine-triggered)")
	case opts.Trace != nil && opts.TracePath != "":
		return nil, fmt.Errorf("core: set TracePath or Trace, not both")
	case opts.Resilience != nil && jc.Kind == SimulationModel:
		return nil, fmt.Errorf("core: job %d: resilience is not supported with the simulation model: its reference run was recorded for the original schedule and cannot be re-derived mid-job", first)
	case topo.Levels != 2 && jc.Kind != LearnedModel:
		return nil, fmt.Errorf("core: job %d: the analytical and simulation models cover two-level fabrics; use the learned model for multi-level Clos", first)
	case jc.Kind == SimulationModel && len(rt.Jobs) > 1:
		// referenceRun taps Jobs[0] only: its windows are no other job's
		// baseline.
		return nil, fmt.Errorf("core: the simulation model needs a per-job reference run and is not supported on multi-job scenarios")
	}
	var ref []*telemetry.Window
	if jc.Kind == SimulationModel {
		iters := opts.ReferenceIterations
		if iters == 0 {
			iters = 3
		}
		var err error
		if ref, err = referenceRun(rt.Scenario, iters); err != nil {
			return nil, fmt.Errorf("core: reference run: %w", err)
		}
	}

	s := &System{topo: topo, resilience: opts.Resilience, ctrl: rt.Plane, faults: predict.NewFaultSet()}
	multi := len(rt.Jobs) > 1
	switches := []int{topology.Leaf: len(topo.Leaves()), topology.Spine: len(topo.Spines())}

	// Predictors first: the remediator's rebaseline closure spans all
	// of them. They read the control plane's *believed* FIB, not the
	// fabric's: that seam is what lets an injected belief error
	// propagate into wrong expectations the way a production
	// controller's stale model would. Belief and truth are identical
	// (bit for bit — same table-build code, same predicate) unless
	// divergence is injected.
	for _, jr := range rt.Jobs {
		j := &Job{ID: jr.Spec.Job}
		if topo.Levels == 3 {
			j.Spine = &Tier{}
		}
		for kind, t := range j.tiers() {
			var err error
			if t.Predictor, err = buildPredictor(topo, switches[kind], s.ctrl, rt.Stack, jc, jr.Coll.Demand(), ref, s.faults); err != nil {
				return nil, fmt.Errorf("core: job %d: %w", j.ID, err)
			}
		}
		s.jobs = append(s.jobs, j)
	}
	var rem monitor.RemediateStage
	if opts.Remediate != nil {
		s.remediator = remediate.New(s.ctrl, s.faults, func() { s.Rebaseline() }, *opts.Remediate)
		rem = s.remediator
	}
	if opts.Resilience != nil {
		// A re-plan migrates flows onto surviving paths whose RTTs the
		// transport's per-pair estimators have not seen; without pair-
		// level timer backoff the stale timeouts melt down into a
		// self-sustaining spurious-retransmission storm on the repair
		// seam (see transport.Config.PairBackoff).
		rt.Stack.EnableMigrationHardening()
		// One fabric event fans out to every bound job, in binding
		// order. The hooks fire before the remediation loop's own
		// rebaseline, so the re-planned demand matrices are what the
		// single post-quarantine (or post-re-admission) rebaseline
		// computes from. They no-op until bindWorkload supplies a job.
		s.remediator.OnQuarantine = func(now sim.Time, link topology.LinkID) {
			for _, j := range s.jobs {
				if j.Replanner != nil {
					s.applyPlan(j, j.Replanner.NoteQuarantine(now, link), link)
				}
			}
		}
		s.remediator.OnReadmit = func(now sim.Time, link topology.LinkID) {
			for _, j := range s.jobs {
				if j.Replanner != nil {
					s.applyPlan(j, j.Replanner.NoteReadmit(now, link), link)
				}
			}
		}
	}

	// The topology is checked before TracePath is opened: a rejected
	// attach must not truncate a previous recording.
	var hdr trace.Header
	if opts.Trace != nil || opts.TracePath != "" {
		var err error
		if hdr, err = traceHeader(topo, opts.TraceLabel, multi, s.remediator); err != nil {
			return nil, err
		}
		if s.trc = opts.Trace; s.trc == nil {
			if s.trc, err = trace.Create(opts.TracePath); err != nil {
				return nil, err
			}
		}
	}

	if multi {
		jc.Detect.AggregateSymmetry = true
	}
	pipelines := make(map[monitor.Key]*monitor.Pipeline, len(s.jobs))
	for _, j := range s.jobs {
		onEvent, onWindow := jc.OnEvent, jc.OnWindow
		if s.trc != nil {
			// The trace hooks wrap the caller's: the window record is
			// written (with the prediction the detector is about to
			// consume) before detection runs, and every event/action
			// folds into the writer's fingerprint as it is emitted.
			onEvent = func(e Event) {
				s.trc.Event(e)
				if jc.OnEvent != nil {
					jc.OnEvent(e)
				}
			}
			onWindow = func(ws WindowScore) {
				s.trc.WindowOf(j.Predictor, ws.Window)
				if jc.OnWindow != nil {
					jc.OnWindow(ws)
				}
			}
		}
		for kind, t := range j.tiers() {
			t.Pipeline, t.Detector = monitor.Build(monitor.Spec{
				Topo: topo, Pred: t.Predictor, Detect: jc.Detect, Faults: s.faults,
				Remediate: rem, OnEvent: onEvent, OnWindow: onWindow,
			})
			pipelines[monitor.Key{Tier: topology.SwitchKind(kind), Job: j.ID}] = t.Pipeline
		}
		dc := j.Detector.Config()
		hdr.Jobs = append(hdr.Jobs, trace.JobHeader{
			Job:               j.ID,
			Predictor:         j.Predictor.Name(),
			Threshold:         dc.Threshold,
			MinPredicted:      dc.MinPredicted,
			AggregateSymmetry: dc.AggregateSymmetry,
			CEDiscount:        dc.CEDiscount,
		})
	}
	if s.trc != nil {
		if err := s.trc.Begin(hdr); err != nil {
			if opts.TracePath != "" {
				s.trc.Finish(0) // closes the file; the error is already err
				os.Remove(opts.TracePath)
			}
			return nil, err
		}
		if s.remediator != nil {
			s.remediator.OnAction = s.trc.Action
			s.remediator.OnProbeRound = s.trc.ProbeRound
		}
	}
	s.plane = monitor.NewPlane(rt.Net, pipelines)
	rt.sys = s
	for _, a := range rt.armed { // injected before the monitor was attached
		rt.recordFault(a.spec, false)
	}
	return s, nil
}

// buildPredictor constructs one of §5.2's load models for one tier of
// n switches of a job: demand is the job's demand matrix (the
// analytical model), ref the reference run's windows (the simulation
// model), faults the known-fault set the analytical model consults.
func buildPredictor(topo *topology.Topology, n int, fib predict.FIBView, stack *transport.Stack,
	jc JobConfig, demand *collective.DemandMatrix, ref []*telemetry.Window, faults *predict.FaultSet) (predict.Predictor, error) {
	switch jc.Kind {
	case "", AnalyticalModel:
		a := predict.NewAnalytical(topo, fib, stack, demand)
		a.SetFaults(faults)
		return a, nil
	case SimulationModel:
		sp, err := predict.NewSimulation(n, ref)
		if err != nil {
			return nil, fmt.Errorf("simulation model: %w", err)
		}
		return sp, nil
	case LearnedModel:
		return predict.NewLearned(n, jc.Learned), nil
	}
	return nil, fmt.Errorf("unknown predictor kind %q", jc.Kind)
}

// traceHeader derives the trace header's fabric half from the
// monitored topology; Attach appends one JobHeader per pipeline. Trace
// v1 records two-level leaf/spine systems: the header's four topology
// numbers rebuild the exact same fabric — and therefore the exact same
// link and switch IDs — offline.
func traceHeader(topo *topology.Topology, label string, shared bool, rem *remediate.Remediator) (trace.Header, error) {
	if topo.Levels != 2 {
		return trace.Header{}, fmt.Errorf("core: tracing supports two-level fat trees only (got %d levels)", topo.Levels)
	}
	leaves := topo.Leaves()
	hosts := len(topo.HostsOf(leaves[0]))
	uplink := topo.Switch(leaves[0]).Ports[hosts].Link
	hdr := trace.Header{
		Label:        label,
		Leaves:       len(leaves),
		Spines:       len(topo.Spines()),
		HostsPerLeaf: hosts,
		Trunk:        topo.Trunk,
		LinkRateBPS:  topo.Link(uplink).RateBPS,
		Shared:       shared,
	}
	if rem != nil {
		cfg := rem.Config()
		hdr.Remediate = &cfg
	}
	return hdr, nil
}

// Jobs returns the monitored jobs' stacks in registration order.
func (s *System) Jobs() []*Job { return s.jobs }

// Job returns one job's stack (nil if the job is not monitored).
func (s *System) Job(id uint16) *Job {
	for _, j := range s.jobs {
		if j.ID == id {
			return j
		}
	}
	return nil
}

// Remediator returns the closed-loop remediation engine shared by every
// pipeline, or nil when AttachOptions.Remediate was not set.
func (s *System) Remediator() *remediate.Remediator { return s.remediator }

// TraceWriter returns the attached trace writer, or nil when the
// system is not recording. Harnesses read the stream fingerprint from
// it; Runtime.Inject and Runtime.Heal append the ground-truth fault
// records.
func (s *System) TraceWriter() *trace.Writer { return s.trc }

// bindWorkload connects one monitored job's training loop to the
// resilience loop. The job gets its own re-planner, armed with its
// current ring order; from then on a quarantine that degrades a leaf
// below the recovery target re-plans the collective at the job's next
// iteration barrier. A no-op when AttachOptions.Resilience was not set;
// errors when the job is not monitored or its collective cannot be
// re-planned.
func (s *System) bindWorkload(job uint16, w *workload.Job) error {
	if s.resilience == nil {
		return nil
	}
	j := s.Job(job)
	if j == nil {
		return fmt.Errorf("core: job %d is not monitored", job)
	}
	coll := w.Collective()
	if _, ok := coll.(collective.Replannable); !ok {
		return fmt.Errorf("core: job %d: resilience needs a re-plannable collective, %s is not", job, coll.Name())
	}
	j.work = w
	j.Replanner = resilience.New(s.topo, coll.Demand().Hosts, *s.resilience)
	return nil
}

// applyPlan executes one bound job's re-plan decision: record it on the
// remediation timeline (and in the trace), swap the job's collective
// at its next iteration barrier, and point the analytical model at the
// new demand matrix. The caller is the quarantine/re-admission hook,
// which fires before the remediation loop's own rebaseline — that
// single rebaseline then recomputes the baseline for the new schedule.
func (s *System) applyPlan(j *Job, p *resilience.Plan, link topology.LinkID) {
	if p == nil {
		return
	}
	kind := remediate.ActionReplan
	if p.Kind == resilience.PlanRestore {
		kind = remediate.ActionRestore
	}
	detail := p.Detail
	if len(s.jobs) > 1 {
		detail = fmt.Sprintf("job %d: %s", j.ID, detail)
	}
	s.remediator.RecordWorkload(remediate.Action{At: p.At, Kind: kind, Link: link, Detail: detail})
	// Re-plans change no fabric state, but they are control-plane
	// decisions: log them on the ChangeSet ledger so an audit of "what
	// did the controller decide and when" reads one source.
	s.ctrl.Note(p.At, kind.String(), detail)
	next := j.work.Collective().(collective.Replannable).Replan(p.Group)
	j.work.Replan(next)
	if ds, ok := j.Predictor.(interface {
		SetDemand(*collective.DemandMatrix)
	}); ok {
		ds.SetDemand(next.Demand())
	}
}

// Rebaseline asks every job's load model to recompute its baseline
// against the current routing state, known-fault set, and demand
// matrix, and reports whether all of them support it. Quarantine and
// re-admission call this: the fabric changed for every job, not just
// the one whose windows confirmed the fault. The simulation model
// responds by discarding its stale per-iteration reference windows
// (falling back to its run-average profile) — honest blindness, since
// its reference run cannot be re-derived online.
func (s *System) Rebaseline() bool {
	all := true
	for _, j := range s.jobs {
		for _, t := range j.tiers() {
			rb, ok := t.Predictor.(predict.Rebaseliner)
			if ok {
				rb.Rebaseline()
			}
			all = all && ok
		}
	}
	return all
}

// Flush closes all open telemetry windows (end of training) and, when
// recording, seals the trace (trailer + fingerprint; Runtime.Train
// returns the writer's I/O error).
func (s *System) Flush(now sim.Time) {
	s.plane.Flush(now)
	if s.trc != nil {
		s.trc.Finish(now)
	}
}
