package experiments

import (
	"flowpulse/internal/core"
	"flowpulse/internal/sim"
)

// runSpec describes one monitored simulation.
type runSpec struct {
	scenario core.Scenario
	// attach deploys the monitor: the template for every job's
	// pipeline, the closed loops, the recording.
	attach core.AttachOptions
	// onIter runs after every completed iteration of the first job, and
	// once with iter 0 when the monitor is attached and training is about
	// to start (goodput timelines). Faults are scenario.Faults.
	onIter func(r simRun, now sim.Time, iter uint32)
}

// simRun is a simulation and its monitor, as the hooks see it and — once
// it has drained — as simulate returns it.
type simRun struct {
	rt  *core.Runtime
	sys *core.System
	// iterEnd[i] is when the first job completed iteration i
	// (iterEnd[0] is the start of training).
	iterEnd []sim.Time
}

// after is an onIter hook that calls f once, when the first job has
// completed n iterations (before training starts when n is 0).
func after(n int, f func(r simRun, now sim.Time)) func(simRun, sim.Time, uint32) {
	return func(r simRun, now sim.Time, iter uint32) {
		if int(iter) == n {
			f(r, now)
		}
	}
}

// simulate runs one monitored simulation start to finish — the one
// place in the package that builds a scenario and attaches a monitor.
// The runtime it returns has drained, been flushed and been closed: its
// counters, pipelines and timelines are final.
func simulate(spec runSpec) (simRun, error) {
	rt, err := spec.scenario.Build()
	if err != nil {
		return simRun{}, err
	}
	defer rt.Close()
	sys, err := rt.Attach(spec.attach)
	if err != nil {
		return simRun{}, err
	}
	r := simRun{rt: rt, sys: sys, iterEnd: make([]sim.Time, rt.Jobs[0].Spec.Iterations+1)}
	first, hook := rt.Jobs[0].Spec.Job, spec.onIter
	onIter := func(now sim.Time, job uint16, iter uint32) {
		if job != first {
			return
		}
		r.iterEnd[iter] = now
		if hook != nil {
			hook(r, now, iter)
		}
	}
	onIter(rt.Engine.Now(), first, 0)
	if err := rt.Train(onIter); err != nil {
		return simRun{}, err
	}
	return r, nil
}
