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

// A monitored run is two steps on a built Runtime — Attach, then Train —
// and every rig (experiments, the simtest fuzzer, the public facade, the
// examples) takes exactly these two. They are two calls rather than one
// because rigs time them separately.

// AttachOptions is what a rig chooses when it deploys the monitor on a
// built scenario.
type AttachOptions struct {
	// Job is the template for every job's pipeline — model kind, detector
	// tuning, hooks. Attach fills in each job's id and demand matrix and,
	// for SimulationModel, the reference windows.
	Job JobConfig
	// ReferenceIterations sizes the reference run a SimulationModel
	// template is built from (default 3).
	ReferenceIterations int
	// Remediate, Resilience, TracePath, Trace and TraceLabel are the
	// Config fields of the same names.
	Remediate  *remediate.Config
	Resilience *resilience.Config
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

// Attach deploys FlowPulse on every job of the runtime, over its fabric,
// transport and control plane (so injected divergence reaches the
// predictor and remediator). The system is remembered for Train;
// attaching twice is an error.
func (rt *Runtime) Attach(opts AttachOptions) (*System, error) {
	if rt.sys != nil {
		return nil, fmt.Errorf("core: a monitor is already attached to this runtime")
	}
	job := opts.Job
	if job.Kind == SimulationModel {
		// referenceRun taps Jobs[0] only: its windows are no other job's
		// baseline.
		if len(rt.Jobs) > 1 {
			return nil, fmt.Errorf("core: the simulation model needs a per-job reference run and is not supported on multi-job scenarios")
		}
		iters := opts.ReferenceIterations
		if iters == 0 {
			iters = 3
		}
		var err error
		if job.ReferenceWindows, err = referenceRun(rt.Scenario, iters); err != nil {
			return nil, fmt.Errorf("core: reference run: %w", err)
		}
	}
	cfg := rt.monitorConfig(job)
	cfg.Remediate, cfg.Resilience = opts.Remediate, opts.Resilience
	cfg.TracePath, cfg.Trace, cfg.TraceLabel = opts.TracePath, opts.Trace, opts.TraceLabel
	sys, err := Attach(cfg)
	if err != nil {
		return nil, err
	}
	rt.sys = sys
	for _, a := range rt.armed { // injected before the monitor was attached
		rt.recordFault(a.spec, false)
	}
	return sys, nil
}

// monitorConfig returns the Config that monitors every job of this
// runtime: the fabric, transport and control plane, and one JobConfig
// per job — each a copy of tmpl with the job's id and demand matrix
// filled in.
func (rt *Runtime) monitorConfig(tmpl JobConfig) Config {
	cfg := Config{Net: rt.Net, Stack: rt.Stack, Control: rt.Plane}
	for _, jr := range rt.Jobs {
		tmpl.Job, tmpl.Demand = jr.Spec.Job, jr.Coll.Demand()
		cfg.Jobs = append(cfg.Jobs, tmpl)
	}
	return cfg
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
