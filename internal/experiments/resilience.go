package experiments

import (
	"fmt"
	"strings"

	"flowpulse/internal/core"
	"flowpulse/internal/metrics"
	"flowpulse/internal/remediate"
	"flowpulse/internal/resilience"
	"flowpulse/internal/sim"
)

// ResilienceConfig measures what remediation alone cannot repair: the
// workload. An interleaved (placement-oblivious) ring runs on a 2:1
// oversubscribed leaf-spine fabric, so every ring edge crosses leaves
// and each leaf's uplinks — not the host NICs — are the binding
// constraint. A persistent silent fault on one uplink is detected,
// confirmed, and quarantined, which routes around the fault but leaves
// the victim leaf at half its uplink capacity: the interleaved ring
// still pushes its full crossing demand through the surviving uplink
// and runs at ~50% goodput forever. The re-planner instead re-ranks
// the ring so the victim leaf's hosts are contiguous, cutting its
// crossing demand to what one uplink carries at the baseline rate —
// the other leaves remain the bottleneck and goodput returns to
// baseline. The experiment runs the identical fault twice, with the
// re-planner off and on, and reports the goodput timeline's
// before/during/after rates, total stall, and time-to-recovery.
//
// Oversubscription matters: on a non-blocking fabric the lost uplink
// is absorbed by latency slack (the NICs were the bottleneck) and both
// arms recover, leaving nothing to measure. The fabric keeps the
// default least-loaded adaptive spray: after the quarantine the
// fabric is asymmetric (the dead spine goes cold for the victim
// leaf), and adaptive spraying settles into a water-filling
// equilibrium across each leaf's ingress ports rather than an even
// split — the analytical predictor models exactly that equilibrium
// (see predict.Analytical), so detection stays quiet through the
// repair instead of cascading into false quarantines.
type ResilienceConfig struct {
	// Grid: Leaves × Spines with HostsPerLeaf below (defaults 8×2×4: a
	// 2:1 oversubscribed leaf-spine where the interleaved ring's
	// crossing demand is twice what the uplinks carry at NIC rate, so
	// uplink capacity gates goodput and losing 1 of 2 uplinks halves
	// it). BytesPerRank is the collective size D (default 2 MiB: large
	// enough that the uplink bottleneck dominates the per-packet
	// constants, small enough that the post-repair seam — the one
	// congested trunk into the victim leaf — stays below the
	// retransmission-ambiguity regime that would mask the recovery).
	// DropRate is the persistent silent fault's loss rate (default 5%:
	// heavy enough that the pre-quarantine drop phase itself stalls the
	// workload below the recovery bar, so "recovered" cleanly separates
	// the arms). The fault activates after CleanIters iterations (2)
	// and the run lasts FaultIters more (18: detect + quarantine, then
	// enough post-fault iterations to score recovery). Both arms run
	// the same Seed.
	Grid
	// HostsPerLeaf sets the oversubscription (default 4).
	HostsPerLeaf int
	// RecoverTarget is the goodput fraction that counts as recovered,
	// for both the metric and the re-planner (default 0.9).
	RecoverTarget float64
}

// ResilienceArm is one run's outcome (re-plan off or on).
type ResilienceArm struct {
	Name string
	// Report is the goodput/stall/recovery summary at RecoverTarget.
	Report metrics.GoodputReport
	// Quarantines counts fabric-level repairs; Replans and Restores
	// count workload-level ones.
	Quarantines       uint64
	Replans, Restores int
	// Timeline is the full remediation action log (fabric + workload).
	Timeline []remediate.Action
	// Points is the raw per-iteration timeline for plotting.
	Points []metrics.IterPoint
}

// ResilienceResult is the experiment outcome: the same fault with the
// re-planner off, then on.
type ResilienceResult struct {
	Config ResilienceConfig
	Arms   []ResilienceArm
}

// resilienceArm runs the scenario once.
func resilienceArm(cfg ResilienceConfig, replan bool) (*ResilienceArm, error) {
	sc := cfg.scenario(cfg.Seed)
	sc.HostsPerLeaf, sc.InterleaveRing = cfg.HostsPerLeaf, true
	sc.Iterations = cfg.CleanIters + cfg.FaultIters
	sc.Faults = []core.FaultSpec{{Kind: core.FaultBernoulli, Leaf: cfg.Leaves / 2, Spine: 0, Rate: cfg.DropRate, Onset: cfg.CleanIters}}
	attach := core.AttachOptions{Remediate: &remediate.Config{}}
	if replan {
		attach.Resilience = &resilience.Config{RecoverTarget: cfg.RecoverTarget}
	}
	// The injector marks the fault on the runtime's goodput timeline.
	rt, sys, err := core.Run(sc, attach, nil)
	if err != nil {
		return nil, err
	}

	name := "re-plan off"
	if replan {
		name = "re-plan on"
	}
	arm := &ResilienceArm{
		Name:   name,
		Report: rt.Goodput.Report(cfg.RecoverTarget),
		Points: rt.Goodput.Points(),
	}
	r := sys.Remediator()
	arm.Quarantines = r.Stats().Quarantines
	arm.Timeline = r.Timeline
	for _, a := range r.Timeline {
		switch a.Kind {
		case remediate.ActionReplan:
			arm.Replans++
		case remediate.ActionRestore:
			arm.Restores++
		}
	}
	return arm, nil
}

// Resilience runs both arms over the identical fault and seed.
func Resilience(cfg ResilienceConfig) (*ResilienceResult, error) {
	cfg = resolve("resilience", cfg)
	res := &ResilienceResult{Config: cfg}
	for _, replan := range []bool{false, true} {
		arm, err := resilienceArm(cfg, replan)
		if err != nil {
			return nil, err
		}
		res.Arms = append(res.Arms, *arm)
	}
	return res, nil
}

// iterPerMS converts an iterations-per-picosecond rate to iter/ms.
func iterPerMS(rate float64) float64 { return rate * float64(sim.Millisecond) }

// String renders the two-arm comparison plus both timelines.
func (r *ResilienceResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Resilient collectives — %dx%d fat tree, %d hosts/leaf, interleaved ring, %d MiB per rank, %s persistent drop after iter %d (recover target %.0f%%)\n",
		r.Config.Leaves, r.Config.Spines, r.Config.HostsPerLeaf,
		r.Config.BytesPerRank>>20, pct(r.Config.DropRate), r.Config.CleanIters,
		100*r.Config.RecoverTarget)
	fmt.Fprintf(&b, "%-12s %12s %12s %12s %10s %6s %10s %5s %7s\n",
		"arm", "base it/ms", "during", "post", "stall", "quar", "recovery", "plans", "goodput")
	for _, a := range r.Arms {
		rec, recAt := "UNRECOVERED", "-"
		if a.Report.Recovered {
			rec = fmt.Sprintf("%v", sim.Duration(a.Report.RecoveryTime))
			recAt = fmt.Sprintf("i%d", a.Report.RecoveryIter)
		}
		post := a.Report.Post
		if !a.Report.Recovered {
			post = a.Report.During // steady degraded rate
		}
		fmt.Fprintf(&b, "%-12s %12.3f %12.3f %12.3f %10v %6d %10s %5s %6.0f%%\n",
			a.Name, iterPerMS(a.Report.Baseline), iterPerMS(a.Report.During),
			iterPerMS(a.Report.Post), sim.Duration(a.Report.Stall),
			a.Quarantines, rec, recAt,
			100*post/a.Report.Baseline)
	}
	for _, a := range r.Arms {
		fmt.Fprintf(&b, "timeline (%s):\n", a.Name)
		for _, act := range a.Timeline {
			fmt.Fprintf(&b, "  %v\n", act)
		}
	}
	return b.String()
}

// CSV renders plottable rows: one per arm, then the raw per-iteration
// points of each arm for the recovery-timeline figure.
func (r *ResilienceResult) CSV() string {
	var b strings.Builder
	b.WriteString("arm,baseline_iter_per_ms,during_iter_per_ms,post_iter_per_ms,stall_us,recovered,recovery_time_us,recovery_iter,quarantines,replans,restores\n")
	for _, a := range r.Arms {
		recovered := 0
		if a.Report.Recovered {
			recovered = 1
		}
		fmt.Fprintf(&b, "%s,%.4f,%.4f,%.4f,%.3f,%d,%.3f,%d,%d,%d,%d\n",
			a.Name, iterPerMS(a.Report.Baseline), iterPerMS(a.Report.During),
			iterPerMS(a.Report.Post),
			float64(a.Report.Stall)/float64(sim.Microsecond), recovered,
			float64(a.Report.RecoveryTime)/float64(sim.Microsecond),
			a.Report.RecoveryIter, a.Quarantines, a.Replans, a.Restores)
	}
	b.WriteString("arm,iter,end_us,dur_us\n")
	for _, a := range r.Arms {
		for _, p := range a.Points {
			fmt.Fprintf(&b, "%s,%d,%.3f,%.3f\n", a.Name, p.Iter,
				float64(p.End)/float64(sim.Microsecond), float64(p.Dur)/float64(sim.Microsecond))
		}
	}
	return b.String()
}
