package experiments

import (
	"fmt"
	"strings"

	"flowpulse/internal/core"
	"flowpulse/internal/remediate"
	"flowpulse/internal/sim"
)

// RemediationConfig exercises the closed remediation loop end to end:
// detect → confirm → quarantine → re-baseline → probe → re-admit, with
// flap damping. Two scenarios share one fabric shape: a persistent
// 1.5% silent fault (quarantined once, never re-admitted) and a
// periodically degraded link (quarantine/re-admission cycles until
// damping pins it down).
type RemediationConfig struct {
	// Grid: the fabric and collective (defaults 8×4, 8 MiB — the
	// experiment measures control-loop dynamics, not detection
	// accuracy, so it runs at small scale), the persistent fault's
	// DropRate (1.5%), CleanIters before faults activate (2) and
	// FaultIters the persistent run lasts after that (10).
	Grid
	// FlapLoss is the flapping link's down-phase loss (default 30%).
	FlapLoss float64
	// FlapIters is the flapping run's length (default 36).
	FlapIters int
}

// RemediationRow is one fault scenario's closed-loop outcome.
type RemediationRow struct {
	Name string
	// TimeToQuarantine is first quarantine minus fault onset.
	TimeToQuarantine sim.Duration
	// IterationsDegraded counts distinct iterations that raised alerts
	// before the first quarantine took effect.
	IterationsDegraded int
	// PostQuarantineDeficits counts deficit alerts two or more
	// iterations after the last quarantine — a deficit there means the
	// quarantine failed to restore temporal symmetry (the straddling
	// iteration is excused; borderline surplus noise is the detector's
	// ambient FPR, measured by the fig5 experiments, not a remediation
	// outcome).
	PostQuarantineDeficits int
	// Quarantines, Readmissions, Suppressed summarize the loop.
	Quarantines, Readmissions, Suppressed uint64
	// FIBChurn counts fabric reconvergences (one per admin change).
	FIBChurn uint64
	// Timeline is the full remediation action log.
	Timeline []remediate.Action
}

// RemediationResult is the experiment outcome.
type RemediationResult struct {
	Config RemediationConfig
	// IterDur is the calibrated clean iteration duration.
	IterDur sim.Duration
	Rows    []RemediationRow
}

// iterEnd is when the first job of a finished run completed iteration
// i; iteration 0 ends when training starts, at time 0.
func iterEnd(rt *core.Runtime, i int) sim.Time {
	if i == 0 {
		return 0
	}
	return sim.Time(rt.Goodput.Points()[i-1].End)
}

// summarize reduces one run to a row. onsetAt is when the fault
// activated.
func summarize(name string, rt *core.Runtime, sys *core.System, onsetAt sim.Time) RemediationRow {
	r := sys.Remediator()
	st := r.Stats()
	row := RemediationRow{
		Name:        name,
		Quarantines: st.Quarantines, Readmissions: st.Readmissions,
		Suppressed: st.SuppressedReadmits,
		FIBChurn:   rt.Net.FIBRecomputes(),
		Timeline:   r.Timeline,
	}
	var firstQ, lastQ sim.Time
	for _, a := range r.Timeline {
		if a.Kind != remediate.ActionQuarantine {
			continue
		}
		if firstQ == 0 {
			firstQ = a.At
		}
		lastQ = a.At
	}
	if firstQ > 0 {
		row.TimeToQuarantine = sim.Duration(firstQ - onsetAt)
	}
	degraded := map[uint32]bool{}
	var lastQIter uint32
	for _, e := range sys.Jobs()[0].Pipeline.Events {
		if firstQ > 0 && e.Alert.At <= firstQ {
			degraded[e.Alert.Iter] = true
		}
		if e.Alert.At <= lastQ && e.Alert.Iter > lastQIter {
			lastQIter = e.Alert.Iter
		}
	}
	row.IterationsDegraded = len(degraded)
	for _, e := range sys.Jobs()[0].Pipeline.Events {
		if e.Alert.Iter >= lastQIter+2 && e.Alert.Deviation < 0 {
			row.PostQuarantineDeficits++
		}
	}
	return row
}

// Remediation runs both scenarios.
func Remediation(cfg RemediationConfig) (*RemediationResult, error) {
	cfg = resolve("remediate", cfg)
	ref := core.LeafSpineLink{LeafOrd: cfg.Leaves / 2, SpineOrd: 1}
	scenario := func(iters int, faults ...core.FaultSpec) core.Scenario {
		sc := cfg.scenario(cfg.Seed)
		sc.Iterations, sc.Faults = iters, faults
		return sc
	}

	// Calibrate the clean iteration duration (sizes the flap cycle).
	cal, _, err := core.Run(scenario(2), core.AttachOptions{Remediate: &remediate.Config{}}, nil)
	if err != nil {
		return nil, err
	}
	iterDur := sim.Duration(iterEnd(cal, 2) - iterEnd(cal, 1))
	if iterDur <= 0 {
		return nil, fmt.Errorf("experiments: iteration calibration failed")
	}
	res := &RemediationResult{Config: cfg, IterDur: iterDur}

	// Persistent fault: quarantined once, probes keep failing, no
	// re-admission.
	rt, sys, err := core.Run(scenario(cfg.CleanIters+cfg.FaultIters, core.FaultSpec{
		Kind: core.FaultBernoulli, Leaf: ref.LeafOrd, Spine: ref.SpineOrd, Rate: cfg.DropRate, Onset: cfg.CleanIters,
	}), core.AttachOptions{Remediate: &remediate.Config{}}, nil)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, summarize(fmt.Sprintf("persistent %s", pct(cfg.DropRate)), rt, sys, iterEnd(rt, cfg.CleanIters)))

	// Flapping link: degraded half the time, cycle sized in iteration
	// units so down phases span whole windows. Suppress is tightened so
	// the second quarantine already pins the link and the run stays
	// short.
	onset := sim.Duration(cfg.CleanIters) * iterDur
	rt, sys, err = core.Run(scenario(cfg.FlapIters, core.FaultSpec{
		Kind: core.FaultFlap, Leaf: ref.LeafOrd, Spine: ref.SpineOrd, Rate: cfg.FlapLoss,
		FlapPeriod: 6 * iterDur, FlapDown: 3 * iterDur, FlapPhase: onset,
	}), core.AttachOptions{Remediate: &remediate.Config{Suppress: 1500}}, nil)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, summarize(fmt.Sprintf("flapping %s duty 0.50", pct(cfg.FlapLoss)), rt, sys, sim.Time(onset)))
	return res, nil
}

// String renders the comparison plus both timelines.
func (r *RemediationResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Closed-loop remediation — %dx%d fat tree, %d MiB per rank, iteration %v\n",
		r.Config.Leaves, r.Config.Spines, r.Config.BytesPerRank>>20, r.IterDur)
	fmt.Fprintf(&b, "%-22s %14s %9s %6s %7s %9s %6s %6s\n",
		"fault", "t-quarantine", "degraded", "quar", "readmit", "suppress", "churn", "quiet")
	for _, row := range r.Rows {
		quiet := "yes"
		if row.PostQuarantineDeficits > 0 {
			quiet = fmt.Sprintf("%d deficits", row.PostQuarantineDeficits)
		}
		fmt.Fprintf(&b, "%-22s %14v %9s %6d %7d %9d %6d %6s\n",
			row.Name, row.TimeToQuarantine,
			fmt.Sprintf("%d iter", row.IterationsDegraded),
			row.Quarantines, row.Readmissions, row.Suppressed, row.FIBChurn, quiet)
	}
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "timeline (%s):\n", row.Name)
		for _, a := range row.Timeline {
			fmt.Fprintf(&b, "  %v\n", a)
		}
	}
	return b.String()
}

// CSV renders plottable rows.
func (r *RemediationResult) CSV() string {
	var b strings.Builder
	b.WriteString("fault,time_to_quarantine_us,iterations_degraded,quarantines,readmissions,suppressed,fib_churn,post_quarantine_deficits\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%s,%.3f,%d,%d,%d,%d,%d,%d\n",
			row.Name, float64(row.TimeToQuarantine)/float64(sim.Microsecond),
			row.IterationsDegraded, row.Quarantines, row.Readmissions,
			row.Suppressed, row.FIBChurn, row.PostQuarantineDeficits)
	}
	return b.String()
}
