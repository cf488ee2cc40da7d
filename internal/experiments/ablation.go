package experiments

import (
	"fmt"
	"strings"

	"flowpulse/internal/metrics"
	"flowpulse/internal/spray"
)

// AblationConfig quantifies DESIGN.md's spray-policy design choice:
// temporal symmetry is only as tight as the load balancer is smooth.
// For each policy, it measures the clean-network noise floor (max
// per-port deviation, which bounds the usable threshold) and the
// detectability of a 1.5% fault at the 1% threshold.
type AblationConfig struct {
	// Grid: the fabric and collective (defaults 32×16, 16 MiB),
	// DropRate for the fault phase (1.5%), CleanIters and FaultIters
	// (3 + 3).
	Grid
	// Policies to compare (default: all built-ins).
	Policies []spray.Kind
}

// AblationRow is one policy's outcome.
type AblationRow struct {
	Policy spray.Kind
	// CleanNoise is the max per-iteration score during the clean phase
	// — the floor below which no threshold is usable.
	CleanNoise float64
	// FPR and FNR at the 1% threshold.
	FPR, FNR float64
}

// AblationResult is the comparison table.
type AblationResult struct {
	Config AblationConfig
	Rows   []AblationRow
}

// Ablation runs the comparison.
func Ablation(cfg AblationConfig) (*AblationResult, error) {
	cfg = resolve("ablation", cfg)
	res := &AblationResult{Config: cfg}
	for _, policy := range cfg.Policies {
		sc := cfg.scenario(cfg.Seed + 17)
		sc.Spray = policy
		out, err := cfg.trial(sc, 0).Run()
		if err != nil {
			return nil, err
		}
		row := AblationRow{Policy: policy, CleanNoise: cleanNoise(out.Samples)}
		row.FPR, row.FNR = metrics.RatesAt(out.Samples, 0.01)
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// String renders the table.
func (r *AblationResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation — spray policy vs temporal-symmetry noise (%dx%d, %d MiB per rank, %s fault)\n",
		r.Config.Leaves, r.Config.Spines, r.Config.BytesPerRank>>20, pct(r.Config.DropRate))
	fmt.Fprintf(&b, "%-14s %12s %8s %8s\n", "policy", "clean noise", "FPR@1%", "FNR@1%")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-14s %12s %8s %8s\n", row.Policy, pct(row.CleanNoise), pct(row.FPR), pct(row.FNR))
	}
	return b.String()
}
