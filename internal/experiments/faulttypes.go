package experiments

import (
	"fmt"
	"strings"

	"flowpulse/internal/core"
	"flowpulse/internal/fault"
	"flowpulse/internal/metrics"
	"flowpulse/internal/sim"
)

// FaultTypesConfig reproduces §7 "Fault Types": the paper argues
// FlowPulse catches most gray faults because they all manifest as
// packet drops — steady random loss, routing black holes, bursty
// transceiver degradation, and uncorrectable bit errors alike. This
// experiment injects each model on the same link and reports detection
// at the 1% threshold.
type FaultTypesConfig struct {
	// Grid: the fabric and collective (defaults 32×16, 16 MiB), the
	// Threshold operating point (1%), Trials per fault type (2),
	// CleanIters and FaultIters per trial (2 + 3).
	Grid
}

// FaultTypeRow is one fault model's outcome.
type FaultTypeRow struct {
	Name string
	// EffectiveLoss is the model's average packet-loss probability on
	// the faulted link (what the deviation should track).
	EffectiveLoss float64
	// FPR and FNR at the configured threshold.
	FPR, FNR float64
	// MeanDetectionLatency is the average fault iterations until the
	// first alert (0 when never detected).
	MeanDetectionLatency float64
}

// FaultTypesResult is the reproduced table.
type FaultTypesResult struct {
	Config FaultTypesConfig
	Rows   []FaultTypeRow
}

// faultType is one row's model, built for one trial.
type faultType struct {
	name string
	// loss is the model's average packet-loss probability.
	loss  float64
	model fault.Model
}

// faultTypes builds one instance of each model on a trial's own RNG
// streams. The models are the caller's, not core's kinds: the bit-error
// process has no FaultKind, and the "ft/*" stream names predate the
// fault schedule and are part of the table's numbers.
func faultTypes(seed uint64) []faultType {
	// Bursty: mostly clean, 30% loss bursts; steady state ~2.7%.
	ge := fault.NewGilbertElliott(0.01, 0.1, 0, 0.3, sim.NewRNG(seed, "ft/ge"))
	// BER 1e-6 on 4160-byte frames ≈ 3.3% frame loss.
	ber := fault.NewBitError(1e-6, sim.NewRNG(seed, "ft/ber"))
	return []faultType{
		{"bernoulli-2.5%", 0.025, fault.NewBernoulliDrop(0.025, sim.NewRNG(seed, "ft/bern"))},
		{"blackhole", 1.0, fault.BlackHole{}},
		{"gilbert-elliott", ge.SteadyStateLoss(), ge},
		{"bit-error-1e-6", ber.DropProbability(4160), ber},
	}
}

// FaultTypes runs the experiment.
func FaultTypes(cfg FaultTypesConfig) (*FaultTypesResult, error) {
	cfg = resolve("faulttypes", cfg)
	res := &FaultTypesResult{Config: cfg}
	for i, spec := range faultTypes(0) {
		results, samples, err := runCell(cfg.Trials, func(tr int) Trial {
			trial := cfg.trial(cfg.scenario(cfg.Seed+uint64(tr)*977), tr)
			trial.Fault.Kind, trial.Fault.Model = core.FaultModel, faultTypes(trial.Scenario.Seed)[i].model
			return trial
		})
		if err != nil {
			return nil, err
		}
		var latencySum float64
		detected := 0
		for _, r := range results {
			if r.FirstDetection > 0 {
				latencySum += float64(int(r.FirstDetection) - cfg.CleanIters)
				detected++
			}
		}
		fpr, fnr := metrics.RatesAt(samples, cfg.Threshold)
		row := FaultTypeRow{Name: spec.name, EffectiveLoss: spec.loss, FPR: fpr, FNR: fnr}
		if detected > 0 {
			row.MeanDetectionLatency = latencySum / float64(detected)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// String renders the table.
func (r *FaultTypesResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fault types (§7) — detection at %s threshold, %dx%d fat tree, %d MiB per rank\n",
		pct(r.Config.Threshold), r.Config.Leaves, r.Config.Spines, r.Config.BytesPerRank>>20)
	fmt.Fprintf(&b, "%-18s %12s %8s %8s %10s\n", "fault", "eff. loss", "FPR", "FNR", "latency")
	for _, row := range r.Rows {
		lat := "-"
		if row.MeanDetectionLatency > 0 {
			lat = fmt.Sprintf("%.1f iter", row.MeanDetectionLatency)
		}
		fmt.Fprintf(&b, "%-18s %12s %8s %8s %10s\n", row.Name, pct(row.EffectiveLoss), pct(row.FPR), pct(row.FNR), lat)
	}
	return b.String()
}
