package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"flowpulse/internal/detect"
	"flowpulse/internal/remediate"
	"flowpulse/internal/resilience"
	"flowpulse/internal/sim"
	"flowpulse/internal/trace"
)

// Run is a monitored run start to finish — Build, Attach, Train — and
// every rig (experiments, the simtest fuzzer, both commands, the
// three-level example) calls it. Only the public facade, whose callers
// time building, deploying and training separately, takes the three
// steps itself.
//
// hook, when set, gets one call with the first job's id and iteration 0
// after the monitor is attached and before training starts, then one
// after each completed iteration of each job. The runtime and system it
// returns have drained, been flushed and been closed: counters,
// pipelines and timelines are final.
func Run(sc Scenario, opts AttachOptions, hook func(rt *Runtime, sys *System, now sim.Time, job uint16, iter uint32)) (*Runtime, *System, error) {
	rt, err := sc.Build()
	if err != nil {
		return nil, nil, err
	}
	sys, err := rt.Attach(opts)
	if err != nil {
		rt.Close()
		return nil, nil, err
	}
	var onIter func(now sim.Time, job uint16, iter uint32)
	if hook != nil {
		hook(rt, sys, rt.Engine.Now(), rt.Jobs[0].Spec.Job, 0)
		onIter = func(now sim.Time, job uint16, iter uint32) { hook(rt, sys, now, job, iter) }
	}
	if err := rt.Train(onIter); err != nil {
		return nil, nil, err
	}
	return rt, sys, nil
}

// AttachOptions is what a rig chooses when it deploys the monitor on a
// built scenario.
type AttachOptions struct {
	// Job is the template for every job's pipeline — model kind, detector
	// tuning, hooks.
	Job JobConfig
	// ReferenceIterations sizes the reference run a SimulationModel
	// template is built from (default 3).
	ReferenceIterations int
	// Remediate, when set, attaches ONE closed-loop control plane for
	// every pipeline: alert confirmation, link quarantine, re-baseline,
	// and probed re-admission with flap damping. Quarantine is
	// fabric-scoped (an admin-down reroutes everyone), so a link
	// confirmed through any job's windows — or corroborated across jobs
	// — is quarantined exactly once. Use &remediate.Config{} for the
	// defaults.
	Remediate *remediate.Config
	// Resilience, when set (requires Remediate), extends the loop into
	// the workload: a quarantine that degrades a leaf below the recovery
	// target re-plans the collective (re-rank or degraded-mode ring) of
	// every job Train binds — each keeps its own re-planner, its own
	// ring, its own capacity exposure — and the predictors re-baseline
	// against the new demand matrices. Use &resilience.Config{} for the
	// defaults. Not supported with the simulation model, whose reference
	// run cannot be re-derived for a new schedule.
	Resilience *resilience.Config
	// TracePath, when set, records the run — every job's windows with
	// their live predictions, events, the remediation stream, the fault
	// schedule — to one .fpt trace file for offline replay (see
	// internal/trace). Trace streams to an existing Writer instead (the
	// caller keeps ownership); set at most one of the two. TraceLabel
	// annotates the trace header.
	TracePath  string
	Trace      *trace.Writer
	TraceLabel string
}

// MonitorSpec is the monitor a run deploys, written down: the "monitor"
// half of a run document (ReadRun) and the monitor keys of the simtest
// repro format. A zero field is the default.
type MonitorSpec struct {
	// Predictor is the load model (default analytical).
	Predictor PredictorKind `json:"predictor,omitempty"`
	// Threshold is the detection threshold (default the paper's 1%).
	Threshold float64 `json:"threshold,omitempty"`
	// Remediate closes the loop: confirm, quarantine, probe, re-admit.
	Remediate bool `json:"remediate,omitempty"`
	// Resilience extends the loop into the workload: re-plan the
	// collective when a quarantine degrades a leaf below its recovery
	// target. It implies Remediate.
	Resilience bool `json:"resilience,omitempty"`
	// CEDiscount is the detector's congestion-mitigation weight
	// (detect.Config.CEDiscount).
	CEDiscount float64 `json:"ceDiscount,omitempty"`
}

// AttachOptions is the spec as Attach takes it, closed loops at their
// default configurations.
func (m MonitorSpec) AttachOptions() AttachOptions {
	opts := AttachOptions{Job: JobConfig{Kind: m.Predictor, Detect: detect.Config{Threshold: m.Threshold, CEDiscount: m.CEDiscount}}}
	if m.Remediate || m.Resilience {
		opts.Remediate = &remediate.Config{}
	}
	if m.Resilience {
		opts.Resilience = &resilience.Config{}
	}
	return opts
}

// RunDoc is a run written down: the scenario and the monitor deployed on
// it. Its JSON form is what flowpulse-sim runs and flowpulse-trace
// records.
type RunDoc struct {
	Scenario Scenario    `json:"scenario"`
	Monitor  MonitorSpec `json:"monitor,omitzero"`
}

// ReadRun reads the run document at path, or builtin — a command's own
// default run — when path is empty. A key the format does not have is an
// error, not a field silently left at its default, and so is a detector
// setting detect.Config.Validate refuses.
func ReadRun(path string, builtin []byte) (doc RunDoc, err error) {
	data := builtin
	if path != "" {
		if data, err = os.ReadFile(path); err != nil {
			return doc, err
		}
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err = dec.Decode(&doc); err == nil {
		err = doc.Monitor.AttachOptions().Job.Detect.Validate()
	}
	if err != nil && path != "" {
		err = fmt.Errorf("%s: %w", path, err)
	}
	return doc, err
}

// Train runs every job of the scenario (plus the background and
// congestion generators it asks for) to completion and releases the
// runtime's workers: counters, pipelines and timelines are final when
// it returns. The scenario's fault schedule (Scenario.Faults) is applied
// on the first job's iteration clock: onset 0 before anything starts, the
// rest as that job completes the iteration — ahead of onIter, which, when
// set, fires after each completed iteration of each job.
//
// With a system attached, every job's training loop is bound to the
// resilience loop first, the open telemetry windows are flushed at the
// end, and the trace writer's I/O error, if any, is returned. Without
// one it only trains — what tap-only callers need.
func (rt *Runtime) Train(onIter func(now sim.Time, job uint16, iter uint32)) error {
	defer rt.Close()
	first := rt.Jobs[0].Spec.Job
	rt.applyFaults()
	jobs := rt.startJobs(func(now sim.Time, job uint16, iter uint32) {
		if job == first {
			rt.iter = iter
			rt.applyFaults()
		}
		if onIter != nil {
			onIter(now, job, iter)
		}
	})
	if rt.sys == nil {
		rt.Run()
		return nil
	}
	for i, j := range jobs {
		if err := rt.sys.bindWorkload(rt.Jobs[i].Spec.Job, j); err != nil {
			return err
		}
	}
	rt.Run()
	rt.sys.Flush(rt.Engine.Now())
	if rt.sys.trc != nil {
		return rt.sys.trc.Err()
	}
	return nil
}
