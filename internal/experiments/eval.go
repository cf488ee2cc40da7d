package experiments

import (
	"fmt"
	"reflect"
	"strings"

	"flowpulse/internal/core"
	"flowpulse/internal/metrics"
	"flowpulse/internal/sim"
	"flowpulse/internal/spray"
)

// experiment is one row of the evaluation table.
type experiment struct {
	// name is the flowpulse-eval -exp key; ref is what the experiment
	// reproduces.
	name, ref string
	// full is the experiment's Config at full (paper) scale: the
	// defaults a zero field of a caller's Config takes. quick holds only
	// the fields the scaled-down -quick configuration overrides (the
	// closed-loop studies already run at small scale; -quick trims
	// their length at most). Both are values of the experiment's Config
	// type.
	full, quick any
	// run is the experiment's entry point, taking a Config value.
	run func(cfg any) (fmt.Stringer, error)
}

// entry adapts a typed entry point to the table's run func.
func entry[C any, R fmt.Stringer](f func(C) (R, error)) func(any) (fmt.Stringer, error) {
	return func(cfg any) (fmt.Stringer, error) { return f(cfg.(C)) }
}

// table lists every experiment in the paper's order of presentation.
// EvalOrder, EvalExperiments, every exported entry point's defaults and
// flowpulse-eval's help text are derived from it. To add an experiment:
// a Config embedding Grid, an entry point that starts with resolve, a
// Result with a String renderer — and a row here.
//
// (Filled by init, not an initializer: the entry points read it.)
var table []experiment

func init() {
	table = []experiment{
		{"fig2", "Figure 2: analytical prediction vs simulation, single flow",
			Fig2Config{Grid: Grid{Leaves: 32, Spines: 16, BytesPerRank: 16 << 20, CleanIters: 4}},
			Fig2Config{Grid: Grid{Leaves: 8, Spines: 4, BytesPerRank: 4 << 20}},
			entry(Fig2)},
		{"fig3", "Figure 3: learned baseline update after a transient fault heals",
			Fig3Config{
				Grid:  Grid{Leaves: 32, Spines: 16, BytesPerRank: 8 << 20, DropRate: 0.2, FaultIters: 6, CleanIters: 8},
				Fault: core.LeafSpineLink{LeafOrd: 5, SpineOrd: 3},
			},
			Fig3Config{Grid: Grid{Leaves: 8, Spines: 4, BytesPerRank: 4 << 20}},
			entry(Fig3)},
		{"fig4", "Figure 4: localization, local vs remote link",
			Fig4Config{
				Grid:             Grid{Leaves: 16, Spines: 8, BytesPerRank: 32 << 20, DropRate: 0.05, Trials: 2, FaultIters: 4},
				UpstreamDropRate: 0.15,
			},
			Fig4Config{Grid: Grid{Leaves: 8, Spines: 4, BytesPerRank: 16 << 20, Trials: 1}},
			entry(Fig4)},
		{"fig5a", "Figure 5(a): ROC over detection thresholds, per drop rate",
			Fig5aConfig{
				Grid:       Grid{Leaves: 32, Spines: 16, BytesPerRank: 16 << 20, Trials: 3, CleanIters: 3, FaultIters: 3},
				DropRates:  []float64{0.005, 0.008, 0.01, 0.015, 0.025, 0.05},
				Thresholds: metrics.DefaultThresholds(),
			},
			Fig5aConfig{Grid: Grid{Leaves: 8, Spines: 4, BytesPerRank: 4 << 20, Trials: 1}},
			entry(Fig5a)},
		{"fig5b", "Figure 5(b): FPR/FNR vs switch radix",
			Fig5bConfig{
				Grid:       Grid{BytesPerRank: 16 << 20, DropRate: 0.008, Trials: 3, CleanIters: 3, FaultIters: 3},
				Radixes:    []int{8, 16, 32, 64},
				Thresholds: []float64{0.005, 0.01},
			},
			Fig5bConfig{Grid: Grid{BytesPerRank: 4 << 20, Trials: 1}, Radixes: []int{8, 16}},
			entry(Fig5b)},
		{"fig5c", "Figure 5(c): FPR/FNR vs collective size",
			Fig5cConfig{
				Grid:      Grid{Leaves: 32, Spines: 16, Threshold: 0.01, Trials: 2, CleanIters: 3, FaultIters: 3},
				Sizes:     []int64{1 << 20, 4 << 20, 16 << 20, 64 << 20},
				DropRates: []float64{0.01, 0.015, 0.025},
			},
			Fig5cConfig{Grid: Grid{Leaves: 8, Spines: 4, Trials: 1}, Sizes: []int64{1 << 20, 8 << 20}},
			entry(Fig5c)},
		{"preexisting", "§6: effect of pre-existing faults",
			PreExistingConfig{
				Grid:      Grid{Leaves: 32, Spines: 16, BytesPerRank: 16 << 20, Threshold: 0.01, Trials: 2, CleanIters: 3, FaultIters: 3},
				Counts:    []int{0, 1, 2, 4, 8},
				DropRates: []float64{0.015, 0.025},
			},
			PreExistingConfig{Grid: Grid{Leaves: 8, Spines: 4, BytesPerRank: 8 << 20, Trials: 1}, Counts: []int{0, 2, 4}},
			entry(PreExisting)},
		{"headline", "abstract: one 1.5% link on the 32-leaf fat tree",
			HeadlineConfig{Grid: Grid{Leaves: 32, Spines: 16, BytesPerRank: 64 << 20, DropRate: 0.015, Threshold: 0.01, CleanIters: 2, FaultIters: 4}},
			HeadlineConfig{Grid: Grid{BytesPerRank: 16 << 20}},
			entry(Headline)},
		{"faulttypes", "§7 Fault Types: every gray fault shows as drops",
			FaultTypesConfig{Grid: Grid{Leaves: 32, Spines: 16, BytesPerRank: 16 << 20, Threshold: 0.01, Trials: 2, CleanIters: 2, FaultIters: 3}},
			FaultTypesConfig{Grid: Grid{Leaves: 8, Spines: 4, BytesPerRank: 8 << 20, Trials: 1}},
			entry(FaultTypes)},
		{"jitter", "§7 Stragglers and Jitter: start jitter vs symmetry",
			JitterConfig{
				Grid:        Grid{Leaves: 32, Spines: 16, BytesPerRank: 16 << 20, DropRate: 0.015, Threshold: 0.01, Trials: 2, CleanIters: 2, FaultIters: 2},
				JitterMaxes: []sim.Duration{0, 2 * sim.Microsecond, 10 * sim.Microsecond, 50 * sim.Microsecond},
			},
			JitterConfig{Grid: Grid{Leaves: 8, Spines: 4, BytesPerRank: 8 << 20, Trials: 1}},
			entry(Jitter)},
		{"trunks", "§7 Parallel Links: one degraded trunk member",
			TrunkConfig{
				Grid:  Grid{Leaves: 16, Spines: 8, BytesPerRank: 16 << 20, DropRate: 0.03, Threshold: 0.01, Trials: 2, CleanIters: 2, FaultIters: 2},
				Trunk: 2,
			},
			TrunkConfig{Grid: Grid{Leaves: 8, Spines: 4, BytesPerRank: 8 << 20, Trials: 1}},
			entry(Trunks)},
		{"clos3", "§7 Network Topology: three-level Clos, dual-level monitoring",
			Clos3Config{
				Grid: Grid{Leaves: 4, Spines: 2, BytesPerRank: 8 << 20, DropRate: 0.05, CleanIters: 5, FaultIters: 5},
				Pods: 4, CoresPerGroup: 4,
			},
			Clos3Config{Grid: Grid{CleanIters: 4, FaultIters: 4}, Pods: 2, CoresPerGroup: 2},
			entry(Clos3)},
		{"blocking", "§7 Blocking Networks: oversubscribed, saturated fabric",
			BlockingConfig{
				Grid:         Grid{Leaves: 16, Spines: 8, BytesPerRank: 8 << 20, DropRate: 0.03, Threshold: 0.01, Trials: 2, CleanIters: 2, FaultIters: 2},
				HostsPerLeaf: 2, BackgroundGap: sim.Microsecond,
			},
			BlockingConfig{Grid: Grid{Leaves: 8, Spines: 4, Trials: 1}},
			entry(Blocking)},
		{"remediate", "closed-loop remediation: quarantine, probe, re-admit, damp",
			RemediationConfig{
				Grid:     Grid{Leaves: 8, Spines: 4, BytesPerRank: 8 << 20, DropRate: 0.015, CleanIters: 2, FaultIters: 10},
				FlapLoss: 0.3, FlapIters: 36,
			},
			RemediationConfig{},
			entry(Remediation)},
		{"resilience", "resilient collectives: re-planning around a quarantined uplink",
			ResilienceConfig{
				Grid:         Grid{Leaves: 8, Spines: 2, BytesPerRank: 2 << 20, DropRate: 0.05, CleanIters: 2, FaultIters: 18},
				HostsPerLeaf: 4, RecoverTarget: 0.9,
			},
			ResilienceConfig{Grid: Grid{FaultIters: 10}},
			entry(Resilience)},
		{"paralleljobs", "§7 Parallel Jobs: two jobs on one shared monitoring plane",
			ParallelJobsConfig{Grid: Grid{Leaves: 8, Spines: 4, BytesPerRank: 8 << 20, DropRate: 0.05, CleanIters: 2, FaultIters: 8}},
			ParallelJobsConfig{Grid: Grid{BytesPerRank: 4 << 20, FaultIters: 6}},
			entry(ParallelJobs)},
		{"congestion", "congestion vs faults: ROC before/after the CE discount",
			CongestionConfig{
				Grid:       Grid{Leaves: 16, Spines: 8, BytesPerRank: 16 << 20, DropRate: 0.12, Trials: 2, CleanIters: 3, FaultIters: 3},
				Thresholds: metrics.DefaultThresholds(),
				CEDiscount: 1.5,
			},
			CongestionConfig{Grid: Grid{Leaves: 8, Spines: 4, BytesPerRank: 4 << 20, Trials: 1}},
			entry(Congestion)},
		{"divergence", "belief vs truth: what ChangeSet verification buys",
			DivergenceConfig{Grid: Grid{Leaves: 8, Spines: 4, BytesPerRank: 4 << 20, CleanIters: 3, FaultIters: 11}},
			DivergenceConfig{Grid: Grid{FaultIters: 7}},
			entry(Divergence)},
		{"ablation", "DESIGN.md decision 2: spray policy vs symmetry noise",
			AblationConfig{
				Grid:     Grid{Leaves: 32, Spines: 16, BytesPerRank: 16 << 20, DropRate: 0.015, CleanIters: 3, FaultIters: 3},
				Policies: spray.Kinds(),
			},
			AblationConfig{Grid: Grid{Leaves: 8, Spines: 4, BytesPerRank: 4 << 20}},
			entry(Ablation)},
	}
	for _, e := range table {
		EvalOrder = append(EvalOrder, e.name)
	}
}

// resolve fills the zero fields of a caller's Config from the named
// experiment's full-scale defaults.
func resolve[C any](name string, cfg C) C {
	for _, e := range table {
		if e.name == name {
			fillZero(reflect.ValueOf(&cfg).Elem(), reflect.ValueOf(e.full))
			return cfg
		}
	}
	panic("experiments: no table row for " + name)
}

// EvalOverrides are the knobs flowpulse-eval exposes, shared with the
// golden-file regression tests so both drive the exact same
// configurations.
type EvalOverrides struct {
	// Quick selects the scaled-down smoke configuration of each
	// experiment (smaller fabric, smaller collectives, one trial).
	Quick bool
	// SizeMB (bytes per rank, MiB), Drop (injected drop rate) and
	// Trials (trials per grid cell) override that value of every
	// experiment's Grid; 0 keeps the experiment's own. An experiment
	// that sweeps the axis, or has none, does not read it (EvalHelp
	// lists who reads what).
	SizeMB int64
	Drop   float64
	Trials int
	// Seed is the root random seed.
	Seed uint64
	// TraceDir, when set, makes trace-capable experiments (those whose
	// Config has a TraceDir) record their trials as .fpt traces under
	// this directory.
	TraceDir string
	// Shards selects the engine partition for experiments whose Config
	// has a Shards: 0 is the one-domain partition, a single-threaded
	// run; N ≥ 1 is one domain per switch on N workers. Results are
	// bit-identical for every N ≥ 1 (DESIGN.md decision 12).
	Shards int
}

// config is the experiment's Config under the overrides: the quick
// overrides (when asked for), then the command line's values over the
// Grid — once, here, for every experiment — then the full-scale
// defaults for whatever is still zero.
func (e experiment) config(o EvalOverrides) any {
	cfg := reflect.New(reflect.TypeOf(e.full)).Elem()
	if o.Quick {
		cfg.Set(reflect.ValueOf(e.quick))
	}
	g := cfg.FieldByName("Grid").Addr().Interface().(*Grid)
	if o.SizeMB > 0 {
		g.BytesPerRank = o.SizeMB << 20
	}
	if o.Drop > 0 {
		g.DropRate = o.Drop
	}
	if o.Trials > 0 {
		g.Trials = o.Trials
	}
	g.Seed = o.Seed
	if f := cfg.FieldByName("TraceDir"); f.IsValid() {
		f.SetString(o.TraceDir)
	}
	if f := cfg.FieldByName("Shards"); f.IsValid() {
		f.SetInt(int64(o.Shards))
	}
	fillZero(cfg, reflect.ValueOf(e.full))
	return cfg.Interface()
}

// EvalOrder is the canonical experiment order, matching the paper's
// presentation.
var EvalOrder []string

// EvalExperiments returns the experiment registry under the given
// overrides. Every entry is safe to call independently; results
// implement fmt.Stringer (and CSV() string where plottable).
func EvalExperiments(o EvalOverrides) map[string]func() (fmt.Stringer, error) {
	runs := make(map[string]func() (fmt.Stringer, error), len(table))
	for _, e := range table {
		runs[e.name] = func() (fmt.Stringer, error) { return e.run(e.config(o)) }
	}
	return runs
}

// EvalHelp renders the table for flowpulse-eval's usage text: every
// experiment, what it reproduces, and in brackets which of the
// overrides it reads (an axis it sweeps itself, or does not have, it
// ignores).
func EvalHelp() string {
	var b strings.Builder
	for _, e := range table {
		cfg := reflect.ValueOf(e.full)
		g := cfg.FieldByName("Grid").Interface().(Grid)
		var reads []string
		for _, axis := range []struct {
			flag string
			read bool
		}{
			{"-size", g.BytesPerRank != 0}, {"-drop", g.DropRate != 0}, {"-trials", g.Trials != 0},
			{"-shards", cfg.FieldByName("Shards").IsValid()}, {"-trace-dir", cfg.FieldByName("TraceDir").IsValid()},
		} {
			if axis.read {
				reads = append(reads, axis.flag)
			}
		}
		fmt.Fprintf(&b, "  %-13s%s [%s]\n", e.name, e.ref, strings.Join(reads, " "))
	}
	return b.String()
}
