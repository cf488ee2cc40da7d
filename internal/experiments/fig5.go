package experiments

import (
	"fmt"
	"path/filepath"
	"strings"

	"flowpulse/internal/metrics"
)

// Fig5aConfig reproduces Figure 5(a): the ROC of the per-iteration
// classifier over detection thresholds, one curve per injected drop
// rate. The paper's claim: a 1% threshold is a perfect classifier for
// drop rates ≥ 1.5%.
type Fig5aConfig struct {
	// Grid: the fabric and collective (paper defaults 32×16, 16 MiB),
	// Trials per drop rate (3), CleanIters and FaultIters per trial
	// (3 + 3).
	Grid
	// DropRates are the fault severities, one ROC curve each.
	DropRates []float64
	// Thresholds is the ROC sweep.
	Thresholds []float64
	// TraceDir, when set, records every trial to
	// TraceDir/fig5a-r<rate>-t<trial>.fpt; `flowpulse-trace sweep` then
	// reproduces any curve's ROC points from the recordings alone.
	TraceDir string
	// Shards selects the engine mode per trial (see core.Scenario.Shards).
	Shards int
}

// Fig5aCurve is one drop rate's operating curve.
type Fig5aCurve struct {
	DropRate float64
	Points   []metrics.ROCPoint
	// PerfectThresholds lists thresholds with FPR = FNR = 0.
	PerfectThresholds []float64
	// PerfectAtOnePercent is the paper's headline cell for this rate.
	PerfectAtOnePercent bool
}

// Fig5aResult is the reproduced figure.
type Fig5aResult struct {
	Config Fig5aConfig
	Curves []Fig5aCurve
}

// Fig5a runs the experiment.
func Fig5a(cfg Fig5aConfig) (*Fig5aResult, error) {
	cfg = resolve("fig5a", cfg)
	res := &Fig5aResult{Config: cfg}
	for _, rate := range cfg.DropRates {
		_, samples, err := runCell(cfg.Trials, func(tr int) Trial {
			sc := cfg.scenario(cfg.Seed + uint64(tr)*7919 + uint64(rate*1e5))
			sc.Shards = cfg.Shards
			trial := cfg.trial(sc, tr)
			trial.Scenario.Faults[0].Rate = rate
			if cfg.TraceDir != "" {
				trial.tracePath = filepath.Join(cfg.TraceDir, fmt.Sprintf("fig5a-r%.4f-t%d.fpt", rate, tr))
				trial.traceLabel = fmt.Sprintf("fig5a rate=%.4f trial=%d", rate, tr)
			}
			return trial
		})
		if err != nil {
			return nil, err
		}
		curve := Fig5aCurve{
			DropRate:          rate,
			Points:            metrics.ROC(samples, cfg.Thresholds),
			PerfectThresholds: metrics.PerfectThresholds(samples, cfg.Thresholds),
		}
		fpr, fnr := metrics.RatesAt(samples, 0.01)
		curve.PerfectAtOnePercent = fpr == 0 && fnr == 0
		res.Curves = append(res.Curves, curve)
	}
	return res, nil
}

// String renders the curves.
func (r *Fig5aResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5(a) — ROC over detection thresholds, %d trials per drop rate, %d MiB per rank\n",
		r.Config.Trials, r.Config.BytesPerRank>>20)
	for _, c := range r.Curves {
		fmt.Fprintf(&b, "drop rate %s:\n", pct(c.DropRate))
		fmt.Fprintf(&b, "  %-10s %8s %8s\n", "threshold", "FPR", "FNR")
		for _, p := range c.Points {
			fmt.Fprintf(&b, "  %-10s %8s %8s\n", pct(p.Threshold), pct(p.FPR), pct(p.FNR))
		}
		fmt.Fprintf(&b, "  perfect at 1%% threshold: %v\n", c.PerfectAtOnePercent)
	}
	return b.String()
}

// Fig5bConfig reproduces Figure 5(b): FPR/FNR across switch radixes at
// a fixed 0.8% drop rate. Radix R means R leaves and R/2 spines.
// Higher radixes spread each flow thinner, so the per-port
// measurement gets noisier while the per-port deficit stays ~0.8%:
// higher radixes are more challenging.
type Fig5bConfig struct {
	// Grid: DropRate on the faulty link (default 0.8%), BytesPerRank
	// (16 MiB), Trials per radix (3), CleanIters and FaultIters per
	// trial (3 + 3). The radix sets the fabric shape.
	Grid
	// Radixes to sweep (default 8, 16, 32, 64).
	Radixes []int
	// Thresholds to report operating points at (default 0.5% and 1%).
	Thresholds []float64
	// Shards selects the engine mode per trial (see core.Scenario.Shards).
	Shards int
}

// Fig5bRow is one radix's operating points.
type Fig5bRow struct {
	Radix          int
	Leaves, Spines int
	// FPR and FNR per configured threshold, same order.
	FPR, FNR []float64
}

// Fig5bResult is the reproduced figure.
type Fig5bResult struct {
	Config Fig5bConfig
	Rows   []Fig5bRow
}

// Fig5b runs the experiment.
func Fig5b(cfg Fig5bConfig) (*Fig5bResult, error) {
	cfg = resolve("fig5b", cfg)
	res := &Fig5bResult{Config: cfg}
	for _, radix := range cfg.Radixes {
		leaves, spines := radix, radix/2
		_, samples, err := runCell(cfg.Trials, func(tr int) Trial {
			sc := cfg.scenario(cfg.Seed + uint64(radix*1000+tr))
			sc.Leaves, sc.Spines, sc.Shards = leaves, spines, cfg.Shards
			return cfg.trial(sc, tr)
		})
		if err != nil {
			return nil, err
		}
		row := Fig5bRow{Radix: radix, Leaves: leaves, Spines: spines}
		for _, th := range cfg.Thresholds {
			fpr, fnr := metrics.RatesAt(samples, th)
			row.FPR = append(row.FPR, fpr)
			row.FNR = append(row.FNR, fnr)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// String renders the rows.
func (r *Fig5bResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5(b) — FPR/FNR vs switch radix at %s drop rate, %d MiB per rank\n",
		pct(r.Config.DropRate), r.Config.BytesPerRank>>20)
	fmt.Fprintf(&b, "%-8s %-14s", "radix", "leaves x spine")
	for _, th := range r.Config.Thresholds {
		fmt.Fprintf(&b, " %18s", "FPR/FNR @ "+pct(th))
	}
	fmt.Fprintln(&b)
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-8d %-14s", row.Radix, fmt.Sprintf("%dx%d", row.Leaves, row.Spines))
		for i := range r.Config.Thresholds {
			fmt.Fprintf(&b, " %18s", pct(row.FPR[i])+" / "+pct(row.FNR[i]))
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// Fig5cConfig reproduces Figure 5(c): FPR/FNR across collective sizes
// for several drop rates at the 1% threshold. Larger collectives send
// more packets, raising the signal-to-noise ratio of the per-port
// measurement.
type Fig5cConfig struct {
	// Grid: the fabric (default 32×16), the Threshold operating point
	// (1%), Trials per cell (2), CleanIters and FaultIters per trial
	// (3 + 3).
	Grid
	// Sizes are the per-rank collective sizes (default 1, 4, 16, 64 MiB).
	Sizes []int64
	// DropRates per curve (default 1%, 1.5%, 2.5%).
	DropRates []float64
}

// Fig5cCell is one (size, drop rate) operating point.
type Fig5cCell struct {
	Bytes    int64
	DropRate float64
	FPR, FNR float64
}

// Fig5cResult is the reproduced figure.
type Fig5cResult struct {
	Config Fig5cConfig
	Cells  []Fig5cCell
}

// Fig5c runs the experiment.
func Fig5c(cfg Fig5cConfig) (*Fig5cResult, error) {
	cfg = resolve("fig5c", cfg)
	res := &Fig5cResult{Config: cfg}
	for _, size := range cfg.Sizes {
		for _, rate := range cfg.DropRates {
			_, samples, err := runCell(cfg.Trials, func(tr int) Trial {
				sc := cfg.scenario(cfg.Seed + uint64(size>>18) + uint64(rate*1e5) + uint64(tr)*31)
				sc.BytesPerRank = size
				trial := cfg.trial(sc, tr)
				trial.Scenario.Faults[0].Rate = rate
				return trial
			})
			if err != nil {
				return nil, err
			}
			fpr, fnr := metrics.RatesAt(samples, cfg.Threshold)
			res.Cells = append(res.Cells, Fig5cCell{Bytes: size, DropRate: rate, FPR: fpr, FNR: fnr})
		}
	}
	return res, nil
}

// String renders the cells grouped by size.
func (r *Fig5cResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5(c) — FPR/FNR vs collective size at %s threshold, %dx%d fat tree\n",
		pct(r.Config.Threshold), r.Config.Leaves, r.Config.Spines)
	fmt.Fprintf(&b, "%-12s %-10s %8s %8s\n", "size", "drop", "FPR", "FNR")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "%-12s %-10s %8s %8s\n",
			fmt.Sprintf("%d MiB", c.Bytes>>20), pct(c.DropRate), pct(c.FPR), pct(c.FNR))
	}
	return b.String()
}
