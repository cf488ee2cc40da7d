// Three-level Clos monitoring (§7 "Network Topology"): FlowPulse
// deployed at BOTH the leaf level (watching spine→leaf links) and the
// spine level (watching core→spine links). A fault on a core→spine
// link is invisible to every leaf monitor — only the spine deployment
// catches it.
//
// It is the ordinary run, core.Run of a Scenario and a monitor: Pods and
// CoresPerGroup make the fabric three-level, and every job then gets
// the same pipeline at both tiers (Job.Pipeline for the leaves,
// Job.Spine one tier up). Both use the learned load model: the
// analytical closed form is specific to two-level spray geometry, while
// the measured baseline works at any tier unchanged.
package main

import (
	"fmt"

	"flowpulse/internal/core"
	"flowpulse/internal/predict"
	"flowpulse/internal/sim"
)

func main() {
	sc := core.Scenario{
		Pods:          4,
		Leaves:        4, // per pod
		Spines:        2, // per pod
		CoresPerGroup: 4,
		BytesPerRank:  8 << 20,
		Iterations:    10,
		Seed:          5,
	}
	opts := core.AttachOptions{Job: core.JobConfig{
		Kind: core.LearnedModel, Learned: predict.LearnedConfig{Warmup: 3},
	}}
	_, sys, err := core.Run(sc, opts, func(rt *core.Runtime, _ *core.System, _ sim.Time, _ uint16, iter uint32) {
		switch iter {
		case 0:
			fmt.Printf("fabric: %d pods x %d leaves x %d spines + %d cores, ring over %d hosts\n",
				sc.Pods, sc.Leaves, sc.Spines, len(rt.Topo.Cores()), len(rt.Group))
		case 5:
			// After warm-up, a core→spine link in pod 2 starts dropping 8%
			// of its packets. No leaf is attached to that link.
			link, err := rt.Inject(core.FaultSpec{Kind: core.FaultBernoulli, CoreSpine: true, Pod: 2, SpineInPod: 1, Rate: 0.08})
			if err != nil {
				panic(err)
			}
			fmt.Printf("iteration 5: silent 8%% fault injected on core->spine link %d\n", link)
		}
	})
	if err != nil {
		panic(err)
	}

	job := sys.Jobs()[0]
	spine := job.Spine.Pipeline.Events
	fmt.Printf("\nleaf-level alerts:  %d\n", len(job.Pipeline.Events))
	fmt.Printf("spine-level alerts: %d\n", len(spine))
	for _, e := range spine {
		fmt.Printf("  spine monitor: %v\n", e.Alert)
	}
	if len(spine) > 0 {
		fmt.Println("\nthe spine deployment caught a fault no leaf monitor could see.")
	}
}
