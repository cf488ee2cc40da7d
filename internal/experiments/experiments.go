// Package experiments regenerates every table and figure of the
// paper's evaluation (§6, §7). The package is three things: one Grid
// (the nine values every experiment is described by), one runner
// (core.Run, which builds every scenario and attaches every monitor
// here but Fig. 2's tap-only run), and one table (eval.go: name, paper
// reference, full-scale defaults, quick-scale overrides, run func, in
// paper order). Each experiment adds a Config holding the Grid plus
// what is special to it, a Result with the rows/series the paper
// reports, and a String renderer the flowpulse-eval CLI prints.
// DESIGN.md maps each experiment to the paper figure it reproduces;
// EXPERIMENTS.md records paper-vs-measured outcomes.
package experiments

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"

	"flowpulse/internal/core"
	"flowpulse/internal/fabric"
	"flowpulse/internal/metrics"
	"flowpulse/internal/sim"
	"flowpulse/internal/topology"
)

// Grid is what every experiment's configuration has in common. An
// experiment's Config embeds it and adds only what is special to that
// experiment; a zero field takes the experiment's full-scale default
// from the table in eval.go. An experiment that sweeps an axis (drop
// rates, sizes, radixes) or has none leaves the Grid field unread.
type Grid struct {
	// Leaves and Spines shape the fabric (per pod on a three-level one).
	Leaves, Spines int
	// BytesPerRank is the collective size.
	BytesPerRank int64
	// DropRate is the injected fault's loss rate.
	DropRate float64
	// Threshold is the detection operating point the result reports.
	Threshold float64
	// Trials is the number of trials per grid cell.
	Trials int
	// CleanIters and FaultIters are the iterations before and after the
	// experiment's event — for most, the fault's onset.
	CleanIters, FaultIters int
	// Seed roots the randomness.
	Seed uint64
}

// scenario is the grid's fabric and collective under the given seed.
func (g Grid) scenario(seed uint64) core.Scenario {
	return core.Scenario{Leaves: g.Leaves, Spines: g.Spines, BytesPerRank: g.BytesPerRank, Seed: seed}
}

// trial is the grid's standard trial on sc: background noise on, the
// grid's phase lengths, and the n-th fault location at the grid's drop
// rate, armed after the clean phase. The fault schedule is the trial's
// own: callers edit Faults[0] freely.
func (g Grid) trial(sc core.Scenario, n int) Trial {
	sc = withNoise(sc)
	sc.Iterations = g.CleanIters + g.FaultIters
	f := faultFor(sc, n, g.DropRate)
	f.Onset = g.CleanIters
	sc.Faults = []core.FaultSpec{f}
	return Trial{Scenario: sc}
}

// fillZero sets every zero field of cfg — the embedded Grid's fields
// one by one — from the same field of def: the one defaulting rule of
// the package.
func fillZero(cfg, def reflect.Value) {
	for i := 0; i < cfg.NumField(); i++ {
		switch f := cfg.Field(i); {
		case cfg.Type().Field(i).Anonymous:
			fillZero(f, def.Field(i))
		case f.IsZero():
			f.Set(def.Field(i))
		}
	}
}

// Trial is one monitored simulation run: a scenario, whose fault
// schedule is the ground truth the trial's samples are labeled by, and
// the monitor deployed on it.
type Trial struct {
	// Scenario is the run. A Bernoulli drop of rate 0 in its Faults is
	// no fault (Build drops it), so the standard trial of a Grid with no
	// DropRate runs clean.
	Scenario core.Scenario
	// Monitor is the monitor deployed on it (the zero value: the
	// analytical model at the paper's 1%, open loop, as in §6).
	Monitor core.MonitorSpec
	// tracePath records the run (windows, events, remediation, fault
	// schedule) to a .fpt trace for offline replay; traceLabel
	// annotates its header.
	tracePath, traceLabel string
}

// TrialResult is the outcome of one Trial.
type TrialResult struct {
	// Samples holds one classifier sample per iteration of each job, job
	// by job: the max absolute deviation across all leaves and ports,
	// labeled by whether a fault of the built schedule was active — the
	// samples trace.Replay derives from the run's recording.
	Samples []metrics.Sample
	// Iterations is the number of iterations the first job ran, whose
	// samples lead Samples.
	Iterations int
	// Events are the detections raised (with localization), job by job.
	Events []core.Event
	// FirstDetection is the iteration of the first alert raised while a
	// fault was active (0 = never detected).
	FirstDetection uint32
	// FalseAlerts counts alerts raised while no fault was active.
	FalseAlerts int
	// FaultLink is the fabric link the first scheduled fault was
	// injected on (unset for fault-free trials).
	FaultLink topology.LinkID
	// Fabric holds the network-wide counters at the end of the run.
	Fabric fabric.Stats
}

// Run executes the trial.
func (tr Trial) Run() (*TrialResult, error) {
	attach := tr.Monitor.AttachOptions()
	attach.TracePath, attach.TraceLabel = tr.tracePath, tr.traceLabel
	rt, sys, err := core.Run(tr.Scenario, attach, nil)
	if err != nil {
		return nil, err
	}
	faults := rt.Scenario.Faults
	res := &TrialResult{Iterations: rt.Jobs[0].Spec.Iterations, Fabric: rt.Net.Stats()}
	if len(faults) > 0 {
		f := faults[0]
		res.FaultLink = rt.Link(core.LeafSpineLink{LeafOrd: f.Leaf, SpineOrd: f.Spine, Trunk: f.Trunk})
	}
	for i, j := range sys.Jobs() {
		scores := j.Pipeline.IterationScores()
		for iter := 1; iter <= rt.Jobs[i].Spec.Iterations; iter++ {
			res.Samples = append(res.Samples, metrics.Sample{Score: scores[uint32(iter)], Positive: faultActive(faults, iter)})
		}
		for _, e := range j.Pipeline.Events {
			if !faultActive(faults, int(e.Alert.Iter)) {
				res.FalseAlerts++
			} else if res.FirstDetection == 0 {
				res.FirstDetection = e.Alert.Iter
			}
		}
		res.Events = append(res.Events, j.Pipeline.Events...)
	}
	return res, nil
}

// faultActive reports whether a fault of the schedule is live during
// iteration iter: armed after its onset and not yet healed.
func faultActive(faults []core.FaultSpec, iter int) bool {
	for _, f := range faults {
		if iter > f.Onset && (f.Heal == 0 || iter <= f.Heal) {
			return true
		}
	}
	return false
}

// RunAll executes trials concurrently (bounded by GOMAXPROCS) and
// returns results in input order.
func RunAll(trials []Trial) ([]*TrialResult, error) {
	results := make([]*TrialResult, len(trials))
	errs := make([]error, len(trials))
	workers := min(runtime.GOMAXPROCS(0), len(trials))
	// The caller is one of the workers: a cell of one trial starts no
	// goroutine at all.
	var pool struct {
		next atomic.Int64
		sync.WaitGroup
	}
	work := func() {
		for i := pool.next.Add(1) - 1; int(i) < len(trials); i = pool.next.Add(1) - 1 {
			results[i], errs[i] = trials[i].Run()
		}
	}
	for w := 1; w < workers; w++ {
		pool.Add(1)
		go func() {
			defer pool.Done()
			work()
		}()
	}
	work()
	pool.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// runCell runs one grid cell — n trials, the i-th built by mk — and
// returns their results with the samples pooled.
func runCell(n int, mk func(i int) Trial) ([]*TrialResult, []metrics.Sample, error) {
	trials := make([]Trial, n)
	for i := range trials {
		trials[i] = mk(i)
	}
	results, err := RunAll(trials)
	if err != nil {
		return nil, nil, err
	}
	var samples []metrics.Sample
	for _, r := range results {
		samples = append(samples, r.Samples...)
	}
	return results, samples, nil
}

// cleanNoise is the largest clean-phase score: the floor below which
// no detection threshold is usable.
func cleanNoise(samples []metrics.Sample) float64 {
	var noise float64
	for _, s := range samples {
		if !s.Positive && s.Score > noise {
			noise = s.Score
		}
	}
	return noise
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

// faultFor is the standard trial fault: a downstream Bernoulli drop whose
// link varies across trials so results do not hinge on one location.
func faultFor(sc core.Scenario, trial int, rate float64) core.FaultSpec {
	return core.FaultSpec{
		Kind:  core.FaultBernoulli,
		Leaf:  (3 + trial*5) % sc.Leaves,
		Spine: (1 + trial*3) % sc.Spines,
		Rate:  rate,
	}
}
