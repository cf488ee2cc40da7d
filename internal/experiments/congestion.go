package experiments

import (
	"fmt"
	"strings"

	"flowpulse/internal/core"
	"flowpulse/internal/metrics"
	"flowpulse/internal/sim"
)

// CongestionConfig quantifies the paper's congestion-vs-faults claim:
// queue build-up from adversarial traffic (incast bursts, background
// storms) looks like loss to any latency- or throughput-based monitor,
// but the byte-conservation detector should tell them apart — and
// where it cannot, the CE-discount mitigation (detect.Config.
// CEDiscount) should restore the separation, because congestion
// announces itself with ECN marks while silent faults never do.
//
// The sweep runs clean and faulted trials at each congestion level
// twice — detector mitigation off ("before") and on ("after") — over
// identical traffic (same seeds, ECN/DCQCN always enabled), so the
// two ROC curves differ only in how the detector weighs CE-marked
// windows.
type CongestionConfig struct {
	// Grid: the fabric and measured collective (defaults 16×8,
	// 16 MiB), Trials per (level, clean/faulted) cell (2), CleanIters
	// and FaultIters of each faulted trial (3 + 3). DropRate is the
	// silent Bernoulli drop of the faulted trials (default 12% — well
	// above the whole threshold sweep even after incidental-mark
	// discounting, so the study isolates the congestion/fault
	// separation question from the small-fault sensitivity question
	// fig5a answers).
	Grid
	// Thresholds is the ROC sweep.
	Thresholds []float64
	// CEDiscount is the mitigation strength of the "after" arm
	// (default 1.5: congestion evidence saturates at two-thirds marked,
	// while a lightly marked fault window keeps most of its deviation).
	CEDiscount float64
}

// congestionLevel is one intensity step of the sweep: the incast
// burst gap and message size, and the storm message gap (0 disables
// that generator). The incast runs in the measured traffic class
// (IncastHigh) so its queue build-up both skews the victim leaf's
// windows and draws CE marks onto the measured packets — the evidence
// the mitigation keys on.
type congestionLevel struct {
	Name        string
	Incast      sim.Duration
	IncastBytes int
	Storm       sim.Duration
}

func congestionLevels() []congestionLevel {
	return []congestionLevel{
		{"none", 0, 0, 0},
		{"low", 150 * sim.Microsecond, 32 << 10, 0},
		{"mid", 100 * sim.Microsecond, 48 << 10, 0},
		{"high", 60 * sim.Microsecond, 64 << 10, 12 * sim.Microsecond},
	}
}

// CongestionRow is one congestion level's operating points at the
// paper's 1% threshold, before and after the CE discount.
type CongestionRow struct {
	Level                string
	BeforeFPR, BeforeFNR float64
	AfterFPR, AfterFNR   float64
}

// CongestionResult is the reproduced study.
type CongestionResult struct {
	Config CongestionConfig
	Rows   []CongestionRow
	// BeforeROC/AfterROC pool every level's samples (congestion
	// intensities × clean/faulted) into one curve per arm.
	BeforeROC, AfterROC []metrics.ROCPoint
	BeforeAUC, AfterAUC float64
}

// Congestion runs the sweep.
func Congestion(cfg CongestionConfig) (*CongestionResult, error) {
	cfg = resolve("congestion", cfg)
	res := &CongestionResult{Config: cfg}
	discounts := []float64{0, cfg.CEDiscount}
	var pooled [2][]metrics.Sample
	for _, lvl := range congestionLevels() {
		var rates [2][2]float64
		for arm, discount := range discounts {
			// Each trial index runs twice: clean, then faulted.
			_, samples, err := runCell(2*cfg.Trials, func(i int) Trial {
				tr := i / 2
				sc := cfg.scenario(cfg.Seed + uint64(tr)*7919)
				sc.Congestion = core.CongestionSpec{
					ECN: true, DCQCN: true,
					// Sensitive marking knees: the adversarial tenants
					// here build tens-of-KiB queues, which the 100 KiB
					// default knee would pass unmarked — congested
					// windows must carry the evidence the after-arm
					// discounts.
					ECNKMin: 16 << 10, ECNKMax: 64 << 10,
					Incast: lvl.Incast, IncastLeaf: (1 + tr) % cfg.Leaves,
					IncastFanout: 2, IncastBytes: lvl.IncastBytes,
					IncastHigh: true,
					Storm:      lvl.Storm, StormBytes: 64 << 10,
				}
				trial := cfg.trial(sc, tr)
				if i%2 == 0 {
					trial.Scenario.Faults = nil
				}
				trial.Monitor.CEDiscount = discount
				return trial
			})
			if err != nil {
				return nil, err
			}
			pooled[arm] = append(pooled[arm], samples...)
			fpr, fnr := metrics.RatesAt(samples, 0.01)
			rates[arm] = [2]float64{fpr, fnr}
		}
		res.Rows = append(res.Rows, CongestionRow{
			Level:     lvl.Name,
			BeforeFPR: rates[0][0], BeforeFNR: rates[0][1],
			AfterFPR: rates[1][0], AfterFNR: rates[1][1],
		})
	}
	res.BeforeROC = metrics.ROC(pooled[0], cfg.Thresholds)
	res.AfterROC = metrics.ROC(pooled[1], cfg.Thresholds)
	res.BeforeAUC = metrics.AUC(res.BeforeROC)
	res.AfterAUC = metrics.AUC(res.AfterROC)
	return res, nil
}

// String renders the study.
func (r *CongestionResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Congestion vs. faults — ECN/DCQCN fabric, %d trials per cell, drop rate %s, CE discount %.1f\n",
		r.Config.Trials, pct(r.Config.DropRate), r.Config.CEDiscount)
	fmt.Fprintf(&b, "operating points at the 1%% threshold, before / after the CE discount:\n")
	fmt.Fprintf(&b, "  %-8s %12s %12s %12s %12s\n", "level", "FPR before", "FNR before", "FPR after", "FNR after")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-8s %12s %12s %12s %12s\n",
			row.Level, pct(row.BeforeFPR), pct(row.BeforeFNR), pct(row.AfterFPR), pct(row.AfterFNR))
	}
	fmt.Fprintf(&b, "pooled ROC (all levels, clean and faulted):\n")
	fmt.Fprintf(&b, "  %-10s %9s %9s %9s %9s\n", "threshold", "FPR(pre)", "FNR(pre)", "FPR(post)", "FNR(post)")
	for i := range r.BeforeROC {
		pb, pa := r.BeforeROC[i], r.AfterROC[i]
		fmt.Fprintf(&b, "  %-10s %9s %9s %9s %9s\n",
			pct(pb.Threshold), pct(pb.FPR), pct(pb.FNR), pct(pa.FPR), pct(pa.FNR))
	}
	fmt.Fprintf(&b, "AUC before %.4f, after %.4f\n", r.BeforeAUC, r.AfterAUC)
	return b.String()
}

// CSV renders the pooled curves as arm,threshold,fpr,fnr rows.
func (r *CongestionResult) CSV() string {
	var b strings.Builder
	b.WriteString("arm,threshold,fpr,fnr\n")
	for _, p := range r.BeforeROC {
		fmt.Fprintf(&b, "before,%g,%g,%g\n", p.Threshold, p.FPR, p.FNR)
	}
	for _, p := range r.AfterROC {
		fmt.Fprintf(&b, "after,%g,%g,%g\n", p.Threshold, p.FPR, p.FNR)
	}
	return b.String()
}
