// Package experiments regenerates every table and figure of the
// paper's evaluation (§6). Each experiment has a Config with paper
// defaults, a Result with the same rows/series the paper reports, and
// a String renderer the flowpulse-eval CLI prints. DESIGN.md maps each
// experiment to the paper figure it reproduces; EXPERIMENTS.md records
// paper-vs-measured outcomes.
package experiments

import (
	"fmt"
	"runtime"
	"sync"

	"flowpulse/internal/core"
	"flowpulse/internal/detect"
	"flowpulse/internal/metrics"
	"flowpulse/internal/remediate"
	"flowpulse/internal/sim"
	"flowpulse/internal/trace"
)

// Trial is one simulation run: CleanIters fault-free iterations
// followed by FaultIters iterations with a silent Bernoulli drop on
// one leaf-spine link.
type Trial struct {
	// Scenario shapes the network and workload. Iterations is
	// overridden to CleanIters+FaultIters.
	Scenario core.Scenario
	// Kind selects the load model (default analytical, as in §6).
	Kind core.PredictorKind
	// ReferenceIters sizes the reference run for the simulation model.
	ReferenceIters int
	// Fault locates the silently faulty link.
	Fault core.LeafSpineLink
	// DropRate is the Bernoulli drop probability; 0 runs fault-free.
	DropRate float64
	// Upstream faults the leaf→spine direction instead of spine→leaf.
	Upstream bool
	// CleanIters and FaultIters split the run.
	CleanIters, FaultIters int
	// Detect tunes the detector; the zero value keeps the paper
	// defaults. Experiments that sweep detector mitigations (the
	// congestion study's CE discount) set it per trial.
	Detect detect.Config
	// Remediate attaches the default closed-loop control plane.
	Remediate bool
	// TracePath records the run (windows, events, remediation, fault
	// schedule) to a .fpt trace for offline replay; TraceLabel
	// annotates its header.
	TracePath, TraceLabel string
}

// TrialResult is the outcome of one Trial.
type TrialResult struct {
	// Samples holds one classifier sample per iteration: the max
	// absolute deviation across all leaves and ports, labeled by
	// whether the fault was active.
	Samples []metrics.Sample
	// Events are the detections raised (with localization).
	Events []core.Event
	// FirstDetection is the iteration of the first fault-phase alert
	// (0 = never detected).
	FirstDetection uint32
	// FalseAlerts counts alerts raised during the clean phase.
	FalseAlerts int
	// Elapsed is the simulated duration of the whole run.
	Elapsed sim.Duration
}

// Run executes the trial.
func (tr Trial) Run() (*TrialResult, error) {
	sc := tr.Scenario
	sc.Iterations = tr.CleanIters + tr.FaultIters
	if tr.Kind == "" {
		tr.Kind = core.AnalyticalModel
	}
	rt, err := sc.Build()
	if err != nil {
		return nil, err
	}
	defer rt.Close()
	job := core.JobConfig{Kind: tr.Kind, Detect: tr.Detect}
	if tr.Kind == core.SimulationModel {
		iters := tr.ReferenceIters
		if iters == 0 {
			iters = 3
		}
		if job.ReferenceWindows, err = core.ReferenceRun(sc, iters); err != nil {
			return nil, err
		}
	}
	cfg := rt.MonitorConfig(job)
	cfg.TracePath, cfg.TraceLabel = tr.TracePath, tr.TraceLabel
	if tr.Remediate {
		cfg.Remediate = &remediate.Config{}
	}
	sys, err := core.Attach(cfg)
	if err != nil {
		return nil, err
	}
	pipe := sys.Jobs()[0].Pipeline

	inject := func() {
		if tr.DropRate <= 0 {
			return
		}
		if tr.Upstream {
			rt.InjectSilentDropUpstream(tr.Fault, tr.DropRate)
		} else {
			rt.InjectSilentDrop(tr.Fault, tr.DropRate)
		}
		if trc := sys.TraceWriter(); trc != nil {
			// Ground truth for the trace: the iteration label matches
			// the Samples construction below (faulty strictly after
			// CleanIters).
			trc.Fault(trace.FaultRecord{
				At:        rt.Engine.Now(),
				Kind:      "bernoulli",
				LeafOrd:   tr.Fault.LeafOrd,
				SpineOrd:  tr.Fault.SpineOrd,
				Trunk:     tr.Fault.Trunk,
				Upstream:  tr.Upstream,
				Rate:      tr.DropRate,
				OnsetIter: uint32(tr.CleanIters),
			})
		}
	}
	if tr.CleanIters == 0 {
		inject()
	}
	rt.StartTraining(func(_ sim.Time, iter uint32) {
		if int(iter) == tr.CleanIters {
			inject()
		}
	}, nil)
	rt.Run()
	sys.Flush(rt.Engine.Now())
	if trc := sys.TraceWriter(); trc != nil {
		if err := trc.Err(); err != nil {
			return nil, err
		}
	}

	res := &TrialResult{Events: pipe.Events, Elapsed: sim.Duration(rt.Engine.Now())}
	scores := pipe.IterationScores()
	for iter := 1; iter <= sc.Iterations; iter++ {
		res.Samples = append(res.Samples, metrics.Sample{
			Score:    scores[uint32(iter)],
			Positive: tr.DropRate > 0 && iter > tr.CleanIters,
		})
	}
	for _, e := range pipe.Events {
		if int(e.Alert.Iter) <= tr.CleanIters {
			res.FalseAlerts++
		} else if res.FirstDetection == 0 {
			res.FirstDetection = e.Alert.Iter
		}
	}
	return res, nil
}

// RunAll executes trials concurrently (bounded by GOMAXPROCS) and
// returns results in input order.
func RunAll(trials []Trial) ([]*TrialResult, error) {
	results := make([]*TrialResult, len(trials))
	errs := make([]error, len(trials))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(trials) {
		workers = len(trials)
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				results[i], errs[i] = trials[i].Run()
			}
		}()
	}
	for i := range trials {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// DefaultThresholds is the threshold sweep of the ROC analysis:
// 0.1% … 5%.
func DefaultThresholds() []float64 {
	return []float64{0.001, 0.002, 0.003, 0.005, 0.0075, 0.01, 0.015, 0.02, 0.03, 0.05}
}

// gatherSamples merges trial samples.
func gatherSamples(results []*TrialResult) []metrics.Sample {
	var out []metrics.Sample
	for _, r := range results {
		out = append(out, r.Samples...)
	}
	return out
}

func pct(x float64) string { return fmt.Sprintf("%.2f%%", 100*x) }

// withNoise enables the scenario's background-traffic generator when
// the caller did not choose one: the evaluation's false-positive
// branch needs the realistic spray perturbation background load
// provides (an idle fabric balances a single prioritized collective
// almost perfectly, which would make every FPR identically zero).
func withNoise(sc core.Scenario) core.Scenario {
	if sc.Background == 0 {
		sc.Background = 4 * sim.Microsecond
	}
	return sc
}
