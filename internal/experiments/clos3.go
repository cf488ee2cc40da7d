package experiments

import (
	"fmt"
	"strings"

	"flowpulse/internal/core"
	"flowpulse/internal/predict"
)

// Clos3Config exercises §7's "Network Topology" extension: FlowPulse
// at both leaf and spine levels of a three-level Clos, catching faults
// on spine→leaf links (leaf monitors) and core→spine links (spine
// monitors — links a two-level deployment cannot see at all).
type Clos3Config struct {
	// Grid: Leaves and Spines per pod (defaults 4 and 2), BytesPerRank
	// (8 MiB), DropRate for both injected faults (5% leaf-level, 1.6×
	// that core-level — the core fault's signal is diluted across
	// pods), CleanIters before the fault appears (5; the learned
	// model's warm-up included) and FaultIters after (5).
	Grid
	// Pods and CoresPerGroup complete the three-level shape.
	Pods, CoresPerGroup int
}

// Clos3Case is one fault level's outcome.
type Clos3Case struct {
	Name string
	// Detected reports whether the responsible monitor level alerted.
	Detected bool
	// DetectionLevel is which level caught it ("leaf" or "spine").
	DetectionLevel string
	// FirstAlertIter is the iteration of the first alert.
	FirstAlertIter uint32
	// FalseAlerts counts alerts before the injection or at the other
	// level.
	FalseAlerts int
}

// Clos3Result is the experiment outcome.
type Clos3Result struct {
	Config    Clos3Config
	SpineLeaf Clos3Case // fault on a spine→leaf link
	CoreSpine Clos3Case // fault on a core→spine link
}

// Clos3 runs both cases.
func Clos3(cfg Clos3Config) (*Clos3Result, error) {
	cfg = resolve("clos3", cfg)
	res := &Clos3Result{Config: cfg}

	runCase := func(name string, coreLevel bool) (Clos3Case, error) {
		c := Clos3Case{Name: name}
		sc := cfg.scenario(cfg.Seed)
		sc.Pods, sc.CoresPerGroup = cfg.Pods, cfg.CoresPerGroup
		sc.Iterations = cfg.CleanIters + cfg.FaultIters
		f := core.FaultSpec{Kind: core.FaultBernoulli, Pod: 1 % cfg.Pods, LeafInPod: 2 % cfg.Leaves, Rate: cfg.DropRate, Onset: cfg.CleanIters}
		if coreLevel {
			f.CoreSpine, f.Pod, f.SpineInPod, f.Rate = true, 2%cfg.Pods, 1%cfg.Spines, cfg.DropRate*1.6
		}
		sc.Faults = []core.FaultSpec{f}
		_, sys, err := core.Run(sc, core.AttachOptions{Job: core.JobConfig{Kind: core.LearnedModel, Learned: predict.LearnedConfig{Warmup: 3}}}, nil)
		if err != nil {
			return c, err
		}

		job := sys.Jobs()[0]
		expected, other := job.Pipeline.Events, job.Spine.Pipeline.Events
		c.DetectionLevel = "leaf"
		if coreLevel {
			expected, other = other, expected
			c.DetectionLevel = "spine"
		}
		for _, e := range expected {
			if a := e.Alert; int(a.Iter) > cfg.CleanIters {
				if !c.Detected {
					c.Detected = true
					c.FirstAlertIter = a.Iter
				}
			} else {
				c.FalseAlerts++
			}
		}
		c.FalseAlerts += len(other)
		return c, nil
	}

	var err error
	if res.SpineLeaf, err = runCase("spine->leaf fault", false); err != nil {
		return nil, err
	}
	if res.CoreSpine, err = runCase("core->spine fault", true); err != nil {
		return nil, err
	}
	return res, nil
}

// String renders the two cases.
func (r *Clos3Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Three-level Clos (§7) — dual-level monitoring, %d pods x %d leaves x %d spines, %d cores\n",
		r.Config.Pods, r.Config.Leaves, r.Config.Spines,
		r.Config.Spines*r.Config.CoresPerGroup)
	for _, c := range []Clos3Case{r.SpineLeaf, r.CoreSpine} {
		status := "MISSED"
		if c.Detected {
			status = fmt.Sprintf("detected by %s monitors at iteration %d", c.DetectionLevel, c.FirstAlertIter)
		}
		fmt.Fprintf(&b, "%-20s %s (false alerts elsewhere: %d)\n", c.Name+":", status, c.FalseAlerts)
	}
	return b.String()
}
