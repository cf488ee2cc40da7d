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

// faultType is one row of the table.
type faultType struct {
	name string
	// loss is the model's average packet-loss probability.
	loss float64
	// model builds the row's loss process on a trial's own RNG stream. The
	// models are the caller's, not core's kinds: the bit-error process has
	// no FaultKind, and the "ft/*" stream names predate the fault schedule
	// and are part of the table's numbers.
	model func(seed uint64) fault.Model
}

// Bursty: mostly clean, 30% loss bursts; steady state ~2.7%.
func ftBursty(seed uint64) *fault.GilbertElliott {
	return fault.NewGilbertElliott(0.01, 0.1, 0, 0.3, sim.NewRNG(seed, "ft/ge"))
}

// BER 1e-6 on 4160-byte frames ≈ 3.3% frame loss.
func ftBitError(seed uint64) *fault.BitError {
	return fault.NewBitError(1e-6, sim.NewRNG(seed, "ft/ber"))
}

var faultTypes = []faultType{
	{"bernoulli-2.5%", 0.025, func(seed uint64) fault.Model { return fault.NewBernoulliDrop(0.025, sim.NewRNG(seed, "ft/bern")) }},
	{"blackhole", 1.0, func(uint64) fault.Model { return fault.BlackHole{} }},
	{"gilbert-elliott", ftBursty(0).SteadyStateLoss(), func(seed uint64) fault.Model { return ftBursty(seed) }},
	{"bit-error-1e-6", ftBitError(0).DropProbability(4160), func(seed uint64) fault.Model { return ftBitError(seed) }},
}

// FaultTypes runs the experiment.
func FaultTypes(cfg FaultTypesConfig) (*FaultTypesResult, error) {
	cfg = resolve("faulttypes", cfg)
	res := &FaultTypesResult{Config: cfg}
	for _, spec := range faultTypes {
		results, samples, err := runCell(cfg.Trials, func(tr int) Trial {
			trial := cfg.trial(cfg.scenario(cfg.Seed+uint64(tr)*977), tr)
			f := &trial.Scenario.Faults[0]
			f.Kind, f.Model = core.FaultModel, spec.model(trial.Scenario.Seed)
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
