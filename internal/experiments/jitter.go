package experiments

import (
	"fmt"
	"strings"

	"flowpulse/internal/metrics"
	"flowpulse/internal/sim"
)

// JitterConfig reproduces §7 "Stragglers and Jitter": the paper's
// initial experiments found that inconsistent per-sender start jitter
// has no measurable effect on the expected load balance for
// ring-based collectives, because each leaf has a single non-local
// sender and spraying happens at the leaf. This experiment sweeps the
// jitter magnitude and reports the clean-network noise floor and the
// detectability of a reference fault.
type JitterConfig struct {
	// Grid: the fabric and collective (defaults 32×16, 16 MiB), the
	// reference fault's DropRate (1.5%), Threshold (1%), Trials per
	// jitter level (2), CleanIters and FaultIters per trial (2 + 2).
	Grid
	// JitterMaxes are the uniform per-rank, per-iteration start delays
	// to sweep (default 0, 2 µs, 10 µs, 50 µs).
	JitterMaxes []sim.Duration
}

// JitterRow is one jitter level's outcome.
type JitterRow struct {
	JitterMax sim.Duration
	// CleanNoise is the max per-iteration deviation during the clean
	// phase across trials.
	CleanNoise float64
	// FPR and FNR at the configured threshold.
	FPR, FNR float64
}

// JitterResult is the reproduced table.
type JitterResult struct {
	Config JitterConfig
	Rows   []JitterRow
}

// Jitter runs the experiment.
func Jitter(cfg JitterConfig) (*JitterResult, error) {
	cfg = resolve("jitter", cfg)
	res := &JitterResult{Config: cfg}
	for _, jmax := range cfg.JitterMaxes {
		_, samples, err := runCell(cfg.Trials, func(tr int) Trial {
			sc := cfg.scenario(cfg.Seed + uint64(jmax/1000) + uint64(tr)*131)
			sc.JitterMax = jmax
			return cfg.trial(sc, tr)
		})
		if err != nil {
			return nil, err
		}
		row := JitterRow{JitterMax: jmax, CleanNoise: cleanNoise(samples)}
		row.FPR, row.FNR = metrics.RatesAt(samples, cfg.Threshold)
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// String renders the table.
func (r *JitterResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Jitter sensitivity (§7) — ring collective, %s fault, θ=%s, %dx%d fat tree\n",
		pct(r.Config.DropRate), pct(r.Config.Threshold), r.Config.Leaves, r.Config.Spines)
	fmt.Fprintf(&b, "%-12s %12s %8s %8s\n", "jitter max", "clean noise", "FPR", "FNR")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-12s %12s %8s %8s\n", row.JitterMax.String(), pct(row.CleanNoise), pct(row.FPR), pct(row.FNR))
	}
	return b.String()
}
