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
	// Leaves, Spines, BytesPerRank (defaults 32×16, 16 MiB).
	Leaves, Spines int
	BytesPerRank   int64
	// Threshold is the operating point (default 1%).
	Threshold float64
	// Trials per fault type.
	Trials int
	// CleanIters and FaultIters per trial.
	CleanIters, FaultIters int
	// Seed roots the randomness.
	Seed uint64
}

func (c *FaultTypesConfig) setDefaults() {
	if c.Leaves == 0 {
		c.Leaves = 32
	}
	if c.Spines == 0 {
		c.Spines = 16
	}
	if c.BytesPerRank == 0 {
		c.BytesPerRank = 16 << 20
	}
	if c.Threshold == 0 {
		c.Threshold = 0.01
	}
	if c.Trials == 0 {
		c.Trials = 2
	}
	if c.CleanIters == 0 {
		c.CleanIters = 2
	}
	if c.FaultIters == 0 {
		c.FaultIters = 3
	}
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

// faultSpec builds a model instance per trial (fresh RNG streams).
type faultSpec struct {
	name string
	loss float64
	make func(seed uint64) fault.Model
}

func faultSpecs(cfg FaultTypesConfig) []faultSpec {
	return []faultSpec{
		{
			name: "bernoulli-2.5%",
			loss: 0.025,
			make: func(seed uint64) fault.Model {
				return fault.NewBernoulliDrop(0.025, sim.NewRNG(seed, "ft/bern"))
			},
		},
		{
			name: "blackhole",
			loss: 1.0,
			make: func(uint64) fault.Model { return fault.BlackHole{} },
		},
		{
			name: "gilbert-elliott",
			// Bursty: mostly clean, 30% loss bursts; steady state ~2.7%.
			loss: func() float64 {
				g := fault.NewGilbertElliott(0.01, 0.1, 0, 0.3, sim.NewRNG(0, "x"))
				return g.SteadyStateLoss()
			}(),
			make: func(seed uint64) fault.Model {
				return fault.NewGilbertElliott(0.01, 0.1, 0, 0.3, sim.NewRNG(seed, "ft/ge"))
			},
		},
		{
			name: "bit-error-1e-6",
			// BER 1e-6 on 4160-byte frames ≈ 3.3% frame loss.
			loss: func() float64 {
				b := fault.NewBitError(1e-6, sim.NewRNG(0, "x"))
				return b.DropProbability(4160)
			}(),
			make: func(seed uint64) fault.Model {
				return fault.NewBitError(1e-6, sim.NewRNG(seed, "ft/ber"))
			},
		},
	}
}

// FaultTypes runs the experiment.
func FaultTypes(cfg FaultTypesConfig) (*FaultTypesResult, error) {
	cfg.setDefaults()
	res := &FaultTypesResult{Config: cfg}
	for _, spec := range faultSpecs(cfg) {
		var samples []metrics.Sample
		var latencySum float64
		detected := 0
		for tr := 0; tr < cfg.Trials; tr++ {
			sc := withNoise(core.Scenario{
				Leaves: cfg.Leaves, Spines: cfg.Spines,
				BytesPerRank: cfg.BytesPerRank,
				Seed:         cfg.Seed + uint64(tr)*977,
			})
			sc.Iterations = cfg.CleanIters + cfg.FaultIters
			rt, err := sc.Build()
			if err != nil {
				return nil, err
			}
			sys, err := core.Attach(rt.MonitorConfig(core.JobConfig{}))
			if err != nil {
				return nil, err
			}
			link := rt.Link(faultLinkFor(sc, tr))
			dir := rt.Net.DirToward(link, rt.Topo.Leaves()[faultLinkFor(sc, tr).LeafOrd])
			model := spec.make(sc.Seed)
			rt.StartTraining(func(_ sim.Time, iter uint32) {
				if int(iter) == cfg.CleanIters {
					rt.Net.InjectFault(link, dir, model)
				}
			}, nil)
			rt.Run()
			sys.Flush(rt.Engine.Now())

			pipe := sys.Jobs()[0].Pipeline
			scores := pipe.IterationScores()
			for iter := 1; iter <= sc.Iterations; iter++ {
				samples = append(samples, metrics.Sample{
					Score:    scores[uint32(iter)],
					Positive: iter > cfg.CleanIters,
				})
			}
			for _, e := range pipe.Events {
				if int(e.Alert.Iter) > cfg.CleanIters {
					latencySum += float64(int(e.Alert.Iter) - cfg.CleanIters)
					detected++
					break
				}
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
