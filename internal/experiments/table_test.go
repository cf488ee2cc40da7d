package experiments

import (
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
)

// TestEvalConfigGolden pins the RESOLVED configuration of every
// experiment — what it runs with once the flowpulse-eval overrides and
// the table's defaults are applied — at full scale and at quick scale,
// without simulating anything. Quick runs never exercise the
// paper-scale fabric and collective sizes, so this file is the cheap
// guard against a typo in the table. (The file was generated from the
// 19 setDefaults methods and the eval.go closures the table replaced.)
//
// One neutral line per experiment: the nine grid values (0 where the
// experiment sweeps the axis or has none), then what is special to it.
func TestEvalConfigGolden(t *testing.T) {
	var b strings.Builder
	for _, scale := range []string{"full", "quick"} {
		o := EvalOverrides{Quick: scale == "quick", Seed: 1}
		for _, e := range table {
			fmt.Fprintf(&b, "%s/%s: %s\n", scale, e.name, configLine(e.config(o)))
		}
	}
	checkGolden(t, "eval_configs.golden", b.String())
}

// configLine renders a Config value as the golden's neutral line.
func configLine(cfg any) string {
	v := reflect.ValueOf(cfg)
	g := v.FieldByName("Grid").Interface().(Grid)
	line := fmt.Sprintf("leaves=%d spines=%d bytes=%d drop=%g threshold=%g trials=%d clean=%d fault=%d seed=%d",
		g.Leaves, g.Spines, g.BytesPerRank, g.DropRate, g.Threshold, g.Trials, g.CleanIters, g.FaultIters, g.Seed)
	sep := " | "
	for i := 0; i < v.NumField(); i++ {
		if f := v.Type().Field(i); !f.Anonymous {
			line += fmt.Sprintf("%s%s=%v", sep, strings.ToLower(f.Name), v.Field(i))
			sep = " "
		}
	}
	return line
}

// TestEvalOverridesReachTheGrid checks the one overlay: -size, -drop
// and -trials land in every experiment's Grid (an experiment that
// sweeps the axis ignores the value, not the flag), over the quick
// overrides, and -shards / -trace-dir land where a Config has them.
func TestEvalOverridesReachTheGrid(t *testing.T) {
	o := EvalOverrides{Quick: true, SizeMB: 3, Drop: 0.07, Trials: 5, Seed: 9, Shards: 2, TraceDir: "d"}
	for _, e := range table {
		cfg := reflect.ValueOf(e.config(o))
		g := cfg.FieldByName("Grid").Interface().(Grid)
		if g.BytesPerRank != 3<<20 || g.DropRate != 0.07 || g.Trials != 5 || g.Seed != 9 {
			t.Errorf("%s: overrides did not reach the grid: %+v", e.name, g)
		}
		if f := cfg.FieldByName("Shards"); f.IsValid() && f.Int() != 2 {
			t.Errorf("%s: Shards = %d", e.name, f.Int())
		}
		if f := cfg.FieldByName("TraceDir"); f.IsValid() && f.String() != "d" {
			t.Errorf("%s: TraceDir = %q", e.name, f.String())
		}
	}
	if got := resolve("fig5b", Fig5bConfig{Radixes: []int{4}}); got.Trials != 3 || len(got.Radixes) != 1 || len(got.Thresholds) != 2 {
		t.Errorf("resolve did not fill exactly the zero fields: %+v", got)
	}
}

// TestDocsListTheTable keeps the two hand-written indexes in step with
// the table: README carries EvalHelp's listing verbatim, and DESIGN.md's
// per-experiment index names every experiment's -exp key.
func TestDocsListTheTable(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(readme), EvalHelp()) {
		t.Errorf("README.md does not carry the experiment list; paste this under \"Reproducing the paper\":\n%s", EvalHelp())
	}
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range EvalOrder {
		if !strings.Contains(string(design), "`-exp "+name+"`") {
			t.Errorf("DESIGN.md's per-experiment index has no row for `-exp %s`", name)
		}
	}
}
