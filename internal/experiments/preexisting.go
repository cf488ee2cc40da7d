package experiments

import (
	"fmt"
	"strings"

	"flowpulse/internal/core"
	"flowpulse/internal/metrics"
	"flowpulse/internal/sim"
)

// PreExistingConfig reproduces §6 "Effect of pre-existing faults":
// with known disconnected links already in the network, FlowPulse's
// model accounts for them, and new silent faults dropping ≥ 2.5% of
// packets are classified perfectly.
type PreExistingConfig struct {
	// Grid: the fabric and collective (defaults 32×16, 16 MiB), the
	// Threshold operating point (1%), Trials per cell (2), CleanIters
	// and FaultIters per trial (3 + 3).
	Grid
	// Counts of pre-existing disconnected links to sweep.
	Counts []int
	// DropRates of the new silent fault.
	DropRates []float64
}

// PreExistingCell is one (count, drop rate) operating point.
type PreExistingCell struct {
	PreExisting int
	DropRate    float64
	FPR, FNR    float64
	Perfect     bool
}

// PreExistingResult is the reproduced table.
type PreExistingResult struct {
	Config PreExistingConfig
	Cells  []PreExistingCell
}

// preExistingLinks picks count distinct leaf-spine links to
// disconnect, avoiding the new-fault link and leaving every leaf at
// least two uplinks. The caller checks that the fabric has that many
// links to lose.
func preExistingLinks(count, leaves, spines int, avoid core.FaultSpec, seed uint64) []core.LeafSpineLink {
	rng := sim.NewRNG(seed, "preexisting")
	used := map[[2]int]bool{{avoid.Leaf, avoid.Spine}: true}
	perLeaf := map[int]int{}
	var out []core.LeafSpineLink
	for len(out) < count {
		l, s := rng.PickN(leaves), rng.PickN(spines)
		if used[[2]int{l, s}] || perLeaf[l] >= spines-2 {
			continue
		}
		used[[2]int{l, s}] = true
		perLeaf[l]++
		out = append(out, core.LeafSpineLink{LeafOrd: l, SpineOrd: s})
	}
	return out
}

// PreExisting runs the experiment.
func PreExisting(cfg PreExistingConfig) (*PreExistingResult, error) {
	cfg = resolve("preexisting", cfg)
	res := &PreExistingResult{Config: cfg}
	for _, count := range cfg.Counts {
		// Every leaf keeps two uplinks; past that the picker would
		// spin forever.
		if most := cfg.Leaves * max(cfg.Spines-2, 0); count > most {
			return nil, fmt.Errorf("experiments: preexisting: a %dx%d fabric can lose at most %d links, asked for %d",
				cfg.Leaves, cfg.Spines, most, count)
		}
		for _, rate := range cfg.DropRates {
			_, samples, err := runCell(cfg.Trials, func(tr int) Trial {
				sc := cfg.scenario(cfg.Seed + uint64(count*100+tr) + uint64(rate*1e5))
				trial := cfg.trial(sc, tr)
				trial.Scenario.Faults[0].Rate = rate
				trial.Scenario.PreExisting = preExistingLinks(count, cfg.Leaves, cfg.Spines, trial.Scenario.Faults[0], sc.Seed)
				return trial
			})
			if err != nil {
				return nil, err
			}
			fpr, fnr := metrics.RatesAt(samples, cfg.Threshold)
			res.Cells = append(res.Cells, PreExistingCell{
				PreExisting: count, DropRate: rate, FPR: fpr, FNR: fnr,
				Perfect: fpr == 0 && fnr == 0,
			})
		}
	}
	return res, nil
}

// String renders the table.
func (r *PreExistingResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Pre-existing faults — new-fault classification at %s threshold, %dx%d fat tree, %d MiB per rank\n",
		pct(r.Config.Threshold), r.Config.Leaves, r.Config.Spines, r.Config.BytesPerRank>>20)
	fmt.Fprintf(&b, "%-14s %-10s %8s %8s %8s\n", "pre-existing", "drop", "FPR", "FNR", "perfect")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "%-14d %-10s %8s %8s %8v\n", c.PreExisting, pct(c.DropRate), pct(c.FPR), pct(c.FNR), c.Perfect)
	}
	return b.String()
}
