package experiments

import (
	"fmt"
	"strings"

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
	// Grid: the fabric and collective (defaults 16×8, 8 MiB), DropRate
	// of the injected fault (3%), Threshold (1%), Trials (2),
	// CleanIters and FaultIters per trial (2 + 2).
	Grid
	// HostsPerLeaf 2 on the grid's fabric gives 2:1 oversubscription
	// (the default).
	HostsPerLeaf int
	// BackgroundGap is the background generator's mean inter-message
	// gap (default 1 µs — heavy load).
	BackgroundGap sim.Duration
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
	cfg = resolve("blocking", cfg)
	res := &BlockingResult{Config: cfg}
	results, samples, err := runCell(cfg.Trials, func(tr int) Trial {
		sc := cfg.scenario(cfg.Seed + uint64(tr)*389)
		sc.HostsPerLeaf = cfg.HostsPerLeaf
		sc.Background, sc.BackgroundBytes = cfg.BackgroundGap, 256<<10
		return cfg.trial(sc, tr)
	})
	if err != nil {
		return nil, err
	}
	for _, r := range results {
		if r.Fabric.PFCPauses > 0 {
			res.Saturated = true
		}
	}
	res.CleanNoise = cleanNoise(samples)
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
