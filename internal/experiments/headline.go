package experiments

import (
	"fmt"
	"strings"

	"flowpulse/internal/metrics"
)

// HeadlineConfig reproduces the abstract's headline claim:
// "FlowPulse identifies a single faulty link with 1.5% corruption rate
// by checking temporal symmetry in a full two-level fat tree topology
// with 32 leaf switches while performing Ring-AllReduce on all nodes."
type HeadlineConfig struct {
	// Grid: the paper's 32×16 fabric, DropRate of the single faulty
	// link (default 1.5%), BytesPerRank (64 MiB — the paper notes LLM
	// collectives reach GBs, "well beyond the amount needed"), Threshold
	// (1%), CleanIters and FaultIters (2 + 4).
	Grid
}

// HeadlineResult is the reproduced claim.
type HeadlineResult struct {
	Config HeadlineConfig
	// Detected reports whether the fault alerted at all.
	Detected bool
	// DetectionLatencyIters is how many fault iterations passed before
	// the first alert (1 = the first faulty iteration's window).
	DetectionLatencyIters int
	// CorrectPort reports whether every deficit alert named the faulty
	// leaf/port.
	CorrectPort bool
	// FalseAlerts counts clean-phase alerts.
	FalseAlerts int
	// FPR and FNR over the per-iteration samples.
	FPR, FNR float64
}

// Headline runs the experiment (on the paper's 32×16 fabric unless
// the grid says otherwise).
func Headline(cfg HeadlineConfig) (*HeadlineResult, error) {
	cfg = resolve("headline", cfg)
	tr := cfg.trial(cfg.scenario(cfg.Seed), 0)
	f := &tr.Scenario.Faults[0]
	f.Leaf, f.Spine = 11, 5
	out, err := tr.Run()
	if err != nil {
		return nil, err
	}
	res := &HeadlineResult{Config: cfg, FalseAlerts: out.FalseAlerts, CorrectPort: true}
	if out.FirstDetection > 0 {
		res.Detected = true
		res.DetectionLatencyIters = int(out.FirstDetection) - cfg.CleanIters
	}
	for _, e := range out.Events {
		if e.Alert.Deviation < 0 && (e.Alert.LeafOrdinal != f.Leaf || e.Alert.Uplink != f.Spine) {
			res.CorrectPort = false
		}
	}
	res.FPR, res.FNR = metrics.RatesAt(out.Samples, cfg.Threshold)
	return res, nil
}

// String renders the result.
func (r *HeadlineResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Headline — single link at %s drop, %dx%d fat tree, Ring-AllReduce %d MiB per rank, θ=%s\n",
		pct(r.Config.DropRate), r.Config.Leaves, r.Config.Spines, r.Config.BytesPerRank>>20, pct(r.Config.Threshold))
	fmt.Fprintf(&b, "detected: %v", r.Detected)
	if r.Detected {
		fmt.Fprintf(&b, " (latency %d iteration(s))", r.DetectionLatencyIters)
	}
	fmt.Fprintf(&b, "\ndeficit alerts at the faulty port only: %v\n", r.CorrectPort)
	fmt.Fprintf(&b, "clean-phase false alerts: %d\n", r.FalseAlerts)
	fmt.Fprintf(&b, "per-iteration FPR %s / FNR %s\n", pct(r.FPR), pct(r.FNR))
	return b.String()
}
