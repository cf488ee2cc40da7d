package experiments

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// TestEvalConfigGolden pins the RESOLVED configuration of every
// experiment — what it runs with once the flowpulse-eval overrides and
// the paper defaults are applied — at full scale and at quick scale,
// without simulating anything. Quick runs never exercise the
// paper-scale fabric and collective sizes, so this file is the cheap
// guard against a typo in them.
//
// One neutral line per experiment: the nine grid values every
// experiment is described by (0 where the experiment sweeps the axis
// or has none; clean/fault are the iterations before and after the
// experiment's event — fault onset, heal, scripted mutation), then
// what is special to it.
func TestEvalConfigGolden(t *testing.T) {
	var b strings.Builder
	for _, scale := range []string{"full", "quick"} {
		o := EvalOverrides{Quick: scale == "quick", Seed: 1}
		for _, name := range EvalOrder {
			fmt.Fprintf(&b, "%s/%s: %s\n", scale, name, resolvedConfigLine(name, o))
		}
	}
	checkGolden(t, "eval_configs.golden", b.String())
}

func gridLine(leaves, spines int, bytes int64, drop, threshold float64, trials, clean, fault int, seed uint64) string {
	return fmt.Sprintf("leaves=%d spines=%d bytes=%d drop=%g threshold=%g trials=%d clean=%d fault=%d seed=%d",
		leaves, spines, bytes, drop, threshold, trials, clean, fault, seed)
}

// resolvedConfigLine rebuilds the configuration eval.go's closure for
// name builds under o (transcribed from it — TestEvalGolden checks the
// transcription against the Config each quick run reports), applies
// the experiment's setDefaults, and renders the neutral line.
func resolvedConfigLine(name string, o EvalOverrides) string {
	switch name {
	case "fig2":
		cfg := Fig2Config{Seed: o.Seed}
		if o.Quick {
			cfg.Leaves, cfg.Spines, cfg.FlowBytes = 8, 4, 4<<20
		}
		if o.SizeMB > 0 {
			cfg.FlowBytes = o.SizeMB << 20
		}
		return configLine(&cfg)
	case "fig3":
		cfg := Fig3Config{Seed: o.Seed}
		if o.Quick {
			cfg.Leaves, cfg.Spines, cfg.BytesPerRank = 8, 4, 4<<20
		}
		if o.SizeMB > 0 {
			cfg.BytesPerRank = o.SizeMB << 20
		}
		return configLine(&cfg)
	case "fig4":
		cfg := Fig4Config{Seed: o.Seed, Trials: o.Trials}
		if o.Quick {
			cfg.Leaves, cfg.Spines, cfg.BytesPerRank, cfg.Trials = 8, 4, 16<<20, 1
		}
		return configLine(&cfg)
	case "fig5a":
		cfg := Fig5aConfig{Trials: o.Trials, TraceDir: o.TraceDir}
		cfg.Scenario.Seed = o.Seed
		cfg.Scenario.Shards = o.Shards
		if o.Quick {
			cfg.Scenario.Leaves, cfg.Scenario.Spines = 8, 4
			cfg.Scenario.BytesPerRank = 4 << 20
			cfg.Trials = 1
		}
		if o.SizeMB > 0 {
			cfg.Scenario.BytesPerRank = o.SizeMB << 20
		}
		return configLine(&cfg)
	case "fig5b":
		cfg := Fig5bConfig{Seed: o.Seed, Trials: o.Trials, Shards: o.Shards}
		if o.Quick {
			cfg.Radixes = []int{8, 16}
			cfg.BytesPerRank = 4 << 20
			cfg.Trials = 1
		}
		if o.SizeMB > 0 {
			cfg.BytesPerRank = o.SizeMB << 20
		}
		return configLine(&cfg)
	case "fig5c":
		cfg := Fig5cConfig{Seed: o.Seed, Trials: o.Trials}
		if o.Quick {
			cfg.Leaves, cfg.Spines = 8, 4
			cfg.Sizes = []int64{1 << 20, 8 << 20}
			cfg.Trials = 1
		}
		return configLine(&cfg)
	case "preexisting":
		cfg := PreExistingConfig{Seed: o.Seed, Trials: o.Trials}
		if o.Quick {
			cfg.Leaves, cfg.Spines, cfg.BytesPerRank = 8, 4, 8<<20
			cfg.Counts = []int{0, 2, 4}
			cfg.Trials = 1
		}
		return configLine(&cfg)
	case "headline":
		cfg := HeadlineConfig{Seed: o.Seed, DropRate: o.Drop}
		if o.Quick {
			cfg.BytesPerRank = 16 << 20
		}
		if o.SizeMB > 0 {
			cfg.BytesPerRank = o.SizeMB << 20
		}
		return configLine(&cfg)
	case "faulttypes":
		cfg := FaultTypesConfig{Seed: o.Seed, Trials: o.Trials}
		if o.Quick {
			cfg.Leaves, cfg.Spines, cfg.BytesPerRank, cfg.Trials = 8, 4, 8<<20, 1
		}
		if o.SizeMB > 0 {
			cfg.BytesPerRank = o.SizeMB << 20
		}
		return configLine(&cfg)
	case "jitter":
		cfg := JitterConfig{Seed: o.Seed, Trials: o.Trials}
		if o.Quick {
			cfg.Leaves, cfg.Spines, cfg.BytesPerRank, cfg.Trials = 8, 4, 8<<20, 1
		}
		if o.SizeMB > 0 {
			cfg.BytesPerRank = o.SizeMB << 20
		}
		return configLine(&cfg)
	case "trunks":
		cfg := TrunkConfig{Seed: o.Seed, Trials: o.Trials}
		if o.Quick {
			cfg.Leaves, cfg.Spines, cfg.BytesPerRank, cfg.Trials = 8, 4, 8<<20, 1
		}
		if o.SizeMB > 0 {
			cfg.BytesPerRank = o.SizeMB << 20
		}
		return configLine(&cfg)
	case "clos3":
		cfg := Clos3Config{Seed: o.Seed}
		if o.Quick {
			cfg.Pods, cfg.LeavesPerPod, cfg.SpinesPerPod, cfg.CoresPerGroup = 2, 4, 2, 2
			cfg.Iterations, cfg.InjectAt = 8, 4
		}
		if o.SizeMB > 0 {
			cfg.BytesPerRank = o.SizeMB << 20
		}
		return configLine(&cfg)
	case "blocking":
		cfg := BlockingConfig{Seed: o.Seed, Trials: o.Trials}
		if o.Quick {
			cfg.Leaves, cfg.Spines, cfg.BytesPerRank, cfg.Trials = 8, 4, 8<<20, 1
		}
		if o.SizeMB > 0 {
			cfg.BytesPerRank = o.SizeMB << 20
		}
		return configLine(&cfg)
	case "remediate":
		cfg := RemediationConfig{Seed: o.Seed, DropRate: o.Drop}
		if o.SizeMB > 0 {
			cfg.BytesPerRank = o.SizeMB << 20
		}
		return configLine(&cfg)
	case "resilience":
		cfg := ResilienceConfig{Seed: o.Seed, DropRate: o.Drop}
		if o.Quick {
			cfg.Iterations = 12
		}
		if o.SizeMB > 0 {
			cfg.BytesPerRank = o.SizeMB << 20
		}
		return configLine(&cfg)
	case "paralleljobs":
		cfg := ParallelJobsConfig{Seed: o.Seed, DropRate: o.Drop}
		if o.Quick {
			cfg.BytesPerRank, cfg.Iterations = 4<<20, 8
		}
		if o.SizeMB > 0 {
			cfg.BytesPerRank = o.SizeMB << 20
		}
		return configLine(&cfg)
	case "congestion":
		cfg := CongestionConfig{Seed: o.Seed, Trials: o.Trials, DropRate: o.Drop}
		if o.Quick {
			cfg.Leaves, cfg.Spines, cfg.BytesPerRank, cfg.Trials = 8, 4, 4<<20, 1
		}
		if o.SizeMB > 0 {
			cfg.BytesPerRank = o.SizeMB << 20
		}
		return configLine(&cfg)
	case "divergence":
		cfg := DivergenceConfig{Seed: o.Seed}
		if o.Quick {
			cfg.Iterations = 10
		}
		if o.SizeMB > 0 {
			cfg.BytesPerRank = o.SizeMB << 20
		}
		return configLine(&cfg)
	case "ablation":
		cfg := AblationConfig{Seed: o.Seed}
		if o.Quick {
			cfg.Leaves, cfg.Spines, cfg.BytesPerRank = 8, 4, 4<<20
		}
		if o.SizeMB > 0 {
			cfg.BytesPerRank = o.SizeMB << 20
		}
		return configLine(&cfg)
	}
	panic("no config transcription for " + name)
}

// configLine applies setDefaults (idempotent: it only fills zeros) and
// renders the neutral line. Where an experiment spells an axis its own
// way, the mapping is noted.
func configLine(cfg any) string {
	switch c := cfg.(type) {
	case *Fig2Config:
		c.setDefaults()
		// One bulk flow: its payload is the collective size; every
		// iteration is fault-free. The two known faults are derived
		// from the fabric shape inside Fig2, not a table value.
		return gridLine(c.Leaves, c.Spines, c.FlowBytes, 0, 0, 0, c.Iterations, 0, c.Seed)
	case *Fig3Config:
		c.setDefaults()
		// The fault is present from the start and heals: HealAfter
		// faulty iterations, then the clean rest.
		return gridLine(c.Leaves, c.Spines, c.BytesPerRank, c.DropRate, 0, 0, c.Iterations-c.HealAfter, c.HealAfter, c.Seed) +
			fmt.Sprintf(" | fault=%v", c.Fault)
	case *Fig4Config:
		c.setDefaults()
		return gridLine(c.Leaves, c.Spines, c.BytesPerRank, c.DropRate, 0, c.Trials, 0, c.Iterations, c.Seed) +
			fmt.Sprintf(" | upstreamdroprate=%v", c.UpstreamDropRate)
	case *Fig5aConfig:
		c.setDefaults()
		// A zero fabric shape is core.Scenario's (and faultLinkFor's)
		// paper default.
		leaves, spines := c.Scenario.Leaves, c.Scenario.Spines
		if leaves == 0 {
			leaves = 32
		}
		if spines == 0 {
			spines = 16
		}
		return gridLine(leaves, spines, c.Scenario.BytesPerRank, 0, 0, c.Trials, c.CleanIters, c.FaultIters, c.Scenario.Seed) +
			fmt.Sprintf(" | droprates=%v thresholds=%v tracedir=%v shards=%v", c.DropRates, c.Thresholds, c.TraceDir, c.Scenario.Shards)
	case *Fig5bConfig:
		c.setDefaults()
		return gridLine(0, 0, c.BytesPerRank, c.DropRate, 0, c.Trials, c.CleanIters, c.FaultIters, c.Seed) +
			fmt.Sprintf(" | radixes=%v thresholds=%v shards=%v", c.Radixes, c.Thresholds, c.Shards)
	case *Fig5cConfig:
		c.setDefaults()
		return gridLine(c.Leaves, c.Spines, 0, 0, c.Threshold, c.Trials, c.CleanIters, c.FaultIters, c.Seed) +
			fmt.Sprintf(" | sizes=%v droprates=%v", c.Sizes, c.DropRates)
	case *PreExistingConfig:
		c.setDefaults()
		return gridLine(c.Leaves, c.Spines, c.BytesPerRank, 0, c.Threshold, c.Trials, c.CleanIters, c.FaultIters, c.Seed) +
			fmt.Sprintf(" | counts=%v droprates=%v", c.Counts, c.DropRates)
	case *HeadlineConfig:
		c.setDefaults()
		// Headline hardcodes the paper's 32×16 fabric.
		return gridLine(32, 16, c.BytesPerRank, c.DropRate, c.Threshold, 0, c.CleanIters, c.FaultIters, c.Seed)
	case *FaultTypesConfig:
		c.setDefaults()
		return gridLine(c.Leaves, c.Spines, c.BytesPerRank, 0, c.Threshold, c.Trials, c.CleanIters, c.FaultIters, c.Seed)
	case *JitterConfig:
		c.setDefaults()
		return gridLine(c.Leaves, c.Spines, c.BytesPerRank, c.DropRate, c.Threshold, c.Trials, c.CleanIters, c.FaultIters, c.Seed) +
			fmt.Sprintf(" | jittermaxes=%v", c.JitterMaxes)
	case *TrunkConfig:
		c.setDefaults()
		return gridLine(c.Leaves, c.Spines, c.BytesPerRank, c.DropRate, c.Threshold, c.Trials, c.CleanIters, c.FaultIters, c.Seed) +
			fmt.Sprintf(" | trunk=%v", c.Trunk)
	case *Clos3Config:
		c.setDefaults()
		// Leaves and spines count per pod, as core.Scenario counts
		// them on a three-level fabric.
		return gridLine(c.LeavesPerPod, c.SpinesPerPod, c.BytesPerRank, c.DropRate, 0, 0, c.InjectAt, c.Iterations-c.InjectAt, c.Seed) +
			fmt.Sprintf(" | pods=%v corespergroup=%v", c.Pods, c.CoresPerGroup)
	case *BlockingConfig:
		c.setDefaults()
		return gridLine(c.Leaves, c.Spines, c.BytesPerRank, c.DropRate, c.Threshold, c.Trials, c.CleanIters, c.FaultIters, c.Seed) +
			fmt.Sprintf(" | hostsperleaf=%v backgroundgap=%v", c.HostsPerLeaf, c.BackgroundGap)
	case *RemediationConfig:
		c.setDefaults()
		// Onset clean iterations, then the rest of the persistent run.
		return gridLine(c.Leaves, c.Spines, c.BytesPerRank, c.DropRate, 0, 0, c.Onset, c.PersistIters-c.Onset, c.Seed) +
			fmt.Sprintf(" | flaploss=%v flapiters=%v", c.FlapLoss, c.FlapIters)
	case *ResilienceConfig:
		c.setDefaults()
		return gridLine(c.Leaves, c.Spines, c.BytesPerRank, c.DropRate, 0, 0, c.Onset, c.Iterations-c.Onset, c.Seed) +
			fmt.Sprintf(" | hostsperleaf=%v recovertarget=%v", c.HostsPerLeaf, c.RecoverTarget)
	case *ParallelJobsConfig:
		c.setDefaults()
		return gridLine(c.Leaves, c.Spines, c.BytesPerRank, c.DropRate, 0, 0, c.Onset, c.Iterations-c.Onset, c.Seed)
	case *CongestionConfig:
		c.setDefaults()
		return gridLine(c.Leaves, c.Spines, c.BytesPerRank, c.DropRate, 0, c.Trials, c.CleanIters, c.FaultIters, c.Seed) +
			fmt.Sprintf(" | thresholds=%v cediscount=%v", c.Thresholds, c.CEDiscount)
	case *DivergenceConfig:
		c.setDefaults()
		return gridLine(c.Leaves, c.Spines, c.BytesPerRank, 0, 0, 0, c.Onset, c.Iterations-c.Onset, c.Seed)
	case *AblationConfig:
		c.setDefaults()
		return gridLine(c.Leaves, c.Spines, c.BytesPerRank, c.DropRate, 0, 0, c.CleanIters, c.FaultIters, c.Seed) +
			fmt.Sprintf(" | policies=%v", c.Policies)
	}
	panic(fmt.Sprintf("no config line for %T", cfg))
}

// reportedConfigLine renders the Config a finished run reports (the
// configuration it actually ran with), for the transcription check.
func reportedConfigLine(res fmt.Stringer) string {
	cfg := reflect.ValueOf(res).Elem().FieldByName("Config")
	p := reflect.New(cfg.Type())
	p.Elem().Set(cfg)
	return configLine(p.Interface())
}
