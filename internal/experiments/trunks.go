package experiments

import (
	"fmt"
	"strings"

	"flowpulse/internal/metrics"
)

// TrunkConfig reproduces §7 "Parallel Links": fabrics often bond
// several parallel cables between a leaf-spine pair. FlowPulse treats
// each member as an independent virtual link — the monitor keeps one
// counter per physical port — so a single degraded member of a trunk
// is detected and named even though the trunk as a whole still
// forwards.
type TrunkConfig struct {
	// Grid: the fabric and collective (defaults 16×8, 16 MiB — half
	// the paper fabric, since the port count doubles with the trunk),
	// DropRate on the single faulty trunk member (3%), Threshold (1%),
	// Trials (2), CleanIters and FaultIters per trial (2 + 2).
	Grid
	// Trunk is the number of parallel links per leaf-spine pair
	// (default 2).
	Trunk int
}

// TrunkResult is the reproduced table.
type TrunkResult struct {
	Config TrunkConfig
	// FPR and FNR at the threshold.
	FPR, FNR float64
	// CorrectMember counts deficit alerts naming exactly the faulty
	// trunk member's port; WrongMember counts deficit alerts on other
	// ports.
	CorrectMember, WrongMember int
}

// Trunks runs the experiment: a fault on trunk member 1 of one
// leaf-spine pair.
func Trunks(cfg TrunkConfig) (*TrunkResult, error) {
	cfg = resolve("trunks", cfg)
	res := &TrunkResult{Config: cfg}
	member := 1 % cfg.Trunk
	results, samples, err := runCell(cfg.Trials, func(tr int) Trial {
		sc := cfg.scenario(cfg.Seed + uint64(tr)*631)
		sc.Trunk = cfg.Trunk
		trial := cfg.trial(sc, tr)
		trial.Scenario.Faults[0].Trunk = member
		return trial
	})
	if err != nil {
		return nil, err
	}
	for tr, out := range results {
		// The faulty member's uplink index at the leaf: spine ordinal ×
		// trunk + member.
		fault := faultFor(cfg.scenario(0), tr, cfg.DropRate)
		wantUplink := fault.Spine*cfg.Trunk + member
		for _, e := range out.Events {
			if e.Alert.Deviation >= 0 || int(e.Alert.Iter) <= cfg.CleanIters {
				continue
			}
			if e.Alert.LeafOrdinal == fault.Leaf && e.Alert.Uplink == wantUplink {
				res.CorrectMember++
			} else {
				res.WrongMember++
			}
		}
	}
	res.FPR, res.FNR = metrics.RatesAt(samples, cfg.Threshold)
	return res, nil
}

// String renders the result.
func (r *TrunkResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Parallel links (§7) — %d-way trunks, %s fault on one member, %dx%d fat tree\n",
		r.Config.Trunk, pct(r.Config.DropRate), r.Config.Leaves, r.Config.Spines)
	fmt.Fprintf(&b, "FPR %s / FNR %s at θ=%s\n", pct(r.FPR), pct(r.FNR), pct(r.Config.Threshold))
	fmt.Fprintf(&b, "deficit alerts naming the faulty member: %d correct, %d elsewhere\n",
		r.CorrectMember, r.WrongMember)
	return b.String()
}
