// Remediation: close the loop end to end. Two acts on one small
// cluster:
//
//  1. A persistent 1.5% silent fault appears mid-training. FlowPulse
//     confirms it over K=3 consecutive deviating windows, quarantines
//     the link (admin-down + model re-baseline), and keeps probing it;
//     the probes keep losing packets, so the link stays out.
//  2. A flapping link — degraded for half of every cycle — passes its
//     probe rounds while up and earns re-admission, then fails again.
//     BGP-style flap damping charges a penalty per quarantine; once it
//     crosses the suppress threshold, the link is pinned down and the
//     FIB churn stops.
package main

import (
	"fmt"

	"flowpulse"
)

func run(title string, iters int, rcfg flowpulse.RemediateConfig,
	setup func(c *flowpulse.Cluster), onIter func(c *flowpulse.Cluster, iter uint32)) {
	fmt.Printf("=== %s ===\n", title)
	cluster, err := flowpulse.New(flowpulse.Scenario{
		Leaves:       8,
		Spines:       4,
		BytesPerRank: 8 << 20,
		Iterations:   iters,
		Seed:         1,
	})
	if err != nil {
		panic(err)
	}
	monitor, err := cluster.Monitor(flowpulse.MonitorConfig{Remediate: &rcfg})
	if err != nil {
		panic(err)
	}
	if setup != nil {
		setup(cluster)
	}
	err = cluster.Train(func(_ flowpulse.Duration, iter uint32) {
		if onIter != nil {
			onIter(cluster, iter)
		}
	})
	if err != nil {
		panic(err)
	}

	for _, a := range monitor.RemediationTimeline() {
		fmt.Printf("  %v\n", a)
	}
	st := monitor.RemediationStats()
	fmt.Printf("quarantines=%d readmissions=%d suppressed=%d still-out=%v\n\n",
		st.Quarantines, st.Readmissions, st.SuppressedReadmits, monitor.Quarantined())
}

func main() {
	faulty := flowpulse.Link{LeafOrd: 4, SpineOrd: 1}

	// Act 1: a persistent fault is quarantined once and never returns —
	// every probe round over the lossy cable fails.
	run("persistent 1.5% fault: quarantine, then silence", 12,
		flowpulse.RemediateConfig{}, nil,
		func(c *flowpulse.Cluster, iter uint32) {
			if iter == 2 {
				c.BreakLink(faulty, 0.015)
			}
		})

	// Act 2: a lossy flap (30% loss for half of every ~2-iteration
	// cycle). Suppress is lowered so the second quarantine already pins
	// the link; with the default 2200 the third would.
	iterDur := 340 * flowpulse.Microsecond // ≈ one clean iteration at this scale
	run("flapping link: re-admission, then damping pins it down", 36,
		flowpulse.RemediateConfig{Suppress: 1500},
		func(c *flowpulse.Cluster) {
			c.FlapLink(faulty, 6*iterDur, 3*iterDur, 2*iterDur, 0.3)
		}, nil)
}
