package experiments

import (
	"fmt"
	"strings"

	"flowpulse/internal/core"
	"flowpulse/internal/sim"
)

// Fig3Config reproduces Figure 3: "Learning-based prediction model
// update. FlowPulse learns an improved baseline after transient fault
// recovery." A transient fault is present from the start (so the
// warm-up baseline absorbs it); when the fault heals, the observed
// load re-balances, and the learned model replaces its baseline.
type Fig3Config struct {
	// Grid: the fabric (default 32×16), the collective (8 MiB), the
	// transient fault's DropRate (20%), and the series — the fault is
	// present for the first FaultIters iterations (6), then heals and
	// CleanIters healed iterations follow (8).
	Grid
	// Fault locates the transient fault (default leaf 5 / spine 3).
	Fault core.LeafSpineLink
}

// Fig3Point is one iteration of the series at the affected port.
type Fig3Point struct {
	Iter     uint32
	Observed float64 // measured bytes on the affected port
	Baseline float64 // the learned model's expectation at check time
	Alerted  bool    // did the detector fire this iteration
}

// Fig3Result is the reproduced figure.
type Fig3Result struct {
	Config Fig3Config
	Series []Fig3Point
	// RebaselinedAtIter is the iteration whose window triggered the
	// baseline replacement (0 = never — a reproduction failure).
	RebaselinedAtIter uint32
	// AlertsAfterRebaseline counts residual alerts once the new
	// baseline is in place (should be 0).
	AlertsAfterRebaseline int
}

// Fig3 runs the experiment.
func Fig3(cfg Fig3Config) (*Fig3Result, error) {
	cfg = resolve("fig3", cfg)
	sc := cfg.scenario(cfg.Seed)
	sc.Iterations = cfg.FaultIters + cfg.CleanIters
	sc.Faults = []core.FaultSpec{{
		Kind: core.FaultBernoulli, Leaf: cfg.Fault.LeafOrd, Spine: cfg.Fault.SpineOrd, Trunk: cfg.Fault.Trunk,
		Rate: cfg.DropRate, Heal: cfg.FaultIters,
	}}

	// Snapshot the baseline in effect at each window check. The window
	// hook reads the system Run's hook hands over before training.
	baselines := map[uint32]float64{}
	var sys *core.System
	_, sys, err := core.Run(sc, core.AttachOptions{Job: core.JobConfig{
		Kind: core.LearnedModel,
		OnWindow: func(ws core.WindowScore) {
			if ws.Window.LeafOrdinal != cfg.Fault.LeafOrd {
				return
			}
			if l := sys.Jobs()[0].Learned(); l.Ready(cfg.Fault.LeafOrd) {
				baselines[ws.Window.Iter] = l.PortLoad(cfg.Fault.LeafOrd)[cfg.Fault.SpineOrd]
			}
		},
	}}, func(_ *core.Runtime, s *core.System, _ sim.Time, _ uint16, _ uint32) { sys = s })
	if err != nil {
		return nil, err
	}
	job := sys.Jobs()[0]

	res := &Fig3Result{Config: cfg, Series: make([]Fig3Point, 0, sc.Iterations)}
	rebases := 0
	// Reconstruct the series from the recorded window scores of the
	// affected leaf.
	alertIters := map[uint32]bool{}
	for _, e := range job.Pipeline.Events {
		if e.Alert.LeafOrdinal == cfg.Fault.LeafOrd && e.Alert.Uplink == cfg.Fault.SpineOrd {
			alertIters[e.Alert.Iter] = true
		}
	}
	for _, ws := range job.Pipeline.Scores {
		w := ws.Window
		if w.LeafOrdinal != cfg.Fault.LeafOrd {
			continue
		}
		pt := Fig3Point{
			Iter:     w.Iter,
			Observed: float64(w.PortBytes[cfg.Fault.SpineOrd]),
			Baseline: baselines[w.Iter],
			Alerted:  alertIters[w.Iter],
		}
		res.Series = append(res.Series, pt)
	}
	if l := job.Learned(); l != nil {
		rebases = l.Rebaselines
	}
	if rebases > 0 {
		// The rebaseline shows up as the first iteration whose baseline
		// differs from the warm-up baseline.
		var warm float64
		for _, pt := range res.Series {
			if pt.Baseline > 0 {
				warm = pt.Baseline
				break
			}
		}
		for _, pt := range res.Series {
			if pt.Baseline > 0 && pt.Baseline != warm {
				res.RebaselinedAtIter = pt.Iter
				break
			}
		}
	}
	for _, pt := range res.Series {
		if res.RebaselinedAtIter > 0 && pt.Iter > res.RebaselinedAtIter && pt.Alerted {
			res.AlertsAfterRebaseline++
		}
	}
	return res, nil
}

// String renders the series.
func (r *Fig3Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3 — learned baseline update after transient fault recovery (%s drop on leaf %d / spine %d, heals after iter %d)\n",
		pct(r.Config.DropRate), r.Config.Fault.LeafOrd, r.Config.Fault.SpineOrd, r.Config.FaultIters)
	fmt.Fprintf(&b, "%-6s %14s %14s %s\n", "iter", "observed B", "baseline B", "alert")
	for _, pt := range r.Series {
		mark := ""
		if pt.Alerted {
			mark = "ALERT"
		}
		fmt.Fprintf(&b, "%-6d %14.0f %14.0f %s\n", pt.Iter, pt.Observed, pt.Baseline, mark)
	}
	if r.RebaselinedAtIter > 0 {
		fmt.Fprintf(&b, "baseline replaced at iteration %d; %d alerts after\n", r.RebaselinedAtIter, r.AlertsAfterRebaseline)
	} else {
		fmt.Fprintf(&b, "baseline never replaced (reproduction failure)\n")
	}
	return b.String()
}
