package experiments

import (
	"fmt"
	"strings"

	"flowpulse/internal/core"
	"flowpulse/internal/predict"
	"flowpulse/internal/sim"
)

// Clos3Config exercises §7's "Network Topology" extension: FlowPulse
// at both leaf and spine levels of a three-level Clos, catching faults
// on spine→leaf links (leaf monitors) and core→spine links (spine
// monitors — links a two-level deployment cannot see at all).
type Clos3Config struct {
	// Pods, LeavesPerPod, SpinesPerPod, CoresPerGroup shape the fabric.
	Pods, LeavesPerPod, SpinesPerPod, CoresPerGroup int
	// BytesPerRank (default 8 MiB).
	BytesPerRank int64
	// DropRate for both injected faults (default 5% leaf-level, 8%
	// core-level — the core fault's signal is diluted across pods).
	DropRate float64
	// Iterations per phase (default 10; learned warm-up included).
	Iterations int
	// InjectAt is the iteration after which the fault appears
	// (default 5).
	InjectAt int
	// Seed roots the randomness.
	Seed uint64
}

func (c *Clos3Config) setDefaults() {
	if c.Pods == 0 {
		c.Pods = 4
	}
	if c.LeavesPerPod == 0 {
		c.LeavesPerPod = 4
	}
	if c.SpinesPerPod == 0 {
		c.SpinesPerPod = 2
	}
	if c.CoresPerGroup == 0 {
		c.CoresPerGroup = 4
	}
	if c.BytesPerRank == 0 {
		c.BytesPerRank = 8 << 20
	}
	if c.DropRate == 0 {
		c.DropRate = 0.05
	}
	if c.Iterations == 0 {
		c.Iterations = 10
	}
	if c.InjectAt == 0 {
		c.InjectAt = 5
	}
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
	cfg.setDefaults()
	res := &Clos3Result{Config: cfg}

	runCase := func(name string, coreLevel bool) (Clos3Case, error) {
		c := Clos3Case{Name: name}
		sc := core.Scenario{
			Pods: cfg.Pods, Leaves: cfg.LeavesPerPod,
			Spines: cfg.SpinesPerPod, CoresPerGroup: cfg.CoresPerGroup,
			BytesPerRank: cfg.BytesPerRank,
			Iterations:   cfg.Iterations,
			Seed:         cfg.Seed,
		}
		rt, err := sc.Build()
		if err != nil {
			return c, err
		}
		sys, err := core.Attach(rt.MonitorConfig(core.JobConfig{
			Kind: core.LearnedModel, Learned: predict.LearnedConfig{Warmup: 3},
		}))
		if err != nil {
			return c, err
		}
		rt.StartTraining(func(_ sim.Time, iter uint32) {
			if int(iter) == cfg.InjectAt {
				if coreLevel {
					rt.InjectCoreSpineDrop(2%cfg.Pods, 1%cfg.SpinesPerPod, 0, cfg.DropRate*1.6)
				} else {
					rt.InjectSpineLeafDrop(1%cfg.Pods, 2%cfg.LeavesPerPod, 0, cfg.DropRate)
				}
			}
		}, nil)
		rt.Run()
		sys.Flush(rt.Engine.Now())

		job := sys.Jobs()[0]
		expected, other := job.Pipeline.Events, job.Spine.Pipeline.Events
		c.DetectionLevel = "leaf"
		if coreLevel {
			expected, other = other, expected
			c.DetectionLevel = "spine"
		}
		for _, e := range expected {
			if a := e.Alert; int(a.Iter) > cfg.InjectAt {
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
		r.Config.Pods, r.Config.LeavesPerPod, r.Config.SpinesPerPod,
		r.Config.SpinesPerPod*r.Config.CoresPerGroup)
	for _, c := range []Clos3Case{r.SpineLeaf, r.CoreSpine} {
		status := "MISSED"
		if c.Detected {
			status = fmt.Sprintf("detected by %s monitors at iteration %d", c.DetectionLevel, c.FirstAlertIter)
		}
		fmt.Fprintf(&b, "%-20s %s (false alerts elsewhere: %d)\n", c.Name+":", status, c.FalseAlerts)
	}
	return b.String()
}
