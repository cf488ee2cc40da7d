package experiments

import (
	"strings"
	"testing"

	"flowpulse/internal/core"
	"flowpulse/internal/spray"
)

// Test configurations are scaled down (8 leaves × 4 spines, small
// collectives) so the suite runs in seconds; the flowpulse-eval CLI
// and benchmarks run the paper-scale versions.

func TestTrialCleanHasNoPositives(t *testing.T) {
	tr := Trial{Scenario: core.Scenario{Leaves: 8, Spines: 4, BytesPerRank: 2 << 20, Iterations: 2, Seed: 1}}
	out, err := tr.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Samples) != 2 {
		t.Fatalf("samples = %d", len(out.Samples))
	}
	for _, s := range out.Samples {
		if s.Positive {
			t.Fatal("clean trial labeled positive")
		}
	}
	if out.FirstDetection != 0 || out.FalseAlerts != 0 {
		t.Fatalf("clean trial alerted: %+v", out)
	}
}

// TestGridTrialWithoutDropRateIsFaultFree: the standard trial of a grid
// whose DropRate is 0 arms nothing and labels nothing faulty.
func TestGridTrialWithoutDropRateIsFaultFree(t *testing.T) {
	g := Grid{Leaves: 8, Spines: 4, BytesPerRank: 2 << 20, CleanIters: 1, FaultIters: 2}
	out, err := g.trial(g.scenario(1), 0).Run()
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range out.Samples {
		if s.Positive {
			t.Errorf("iteration %d labeled faulty", i+1)
		}
	}
	if len(out.Samples) != 3 || out.FaultLink != 0 {
		t.Errorf("%d samples, fault link %d; want 3 and none", len(out.Samples), out.FaultLink)
	}
}

// TestGridTrialsOwnTheirFaults: two trials of one Grid never share a
// Faults backing array, so a caller editing one trial's fault (as every
// sweep does) never edits another's.
func TestGridTrialsOwnTheirFaults(t *testing.T) {
	g := Grid{Leaves: 8, Spines: 4, DropRate: 0.02, CleanIters: 1, FaultIters: 2}
	sc := g.scenario(1)
	sc.Faults = []core.FaultSpec{{Kind: core.FaultBernoulli, Rate: 0.5}}
	a, b := g.trial(sc, 0), g.trial(sc, 0)
	a.Scenario.Faults[0].Rate = 0.3
	if b.Scenario.Faults[0].Rate != 0.02 || sc.Faults[0].Rate != 0.5 {
		t.Fatalf("an edit to one trial's fault showed through: other trial %+v, scenario %+v",
			b.Scenario.Faults[0], sc.Faults[0])
	}
	if f := b.Scenario.Faults[0]; f.Onset != 1 || b.Scenario.Iterations != 3 {
		t.Fatalf("fault %+v over %d iterations, want onset 1 of 3", f, b.Scenario.Iterations)
	}
}

func TestTrialLabelsFaultPhase(t *testing.T) {
	tr := Trial{Scenario: core.Scenario{
		Leaves: 8, Spines: 4, BytesPerRank: 4 << 20, Iterations: 4, Seed: 2,
		Faults: []core.FaultSpec{{Kind: core.FaultBernoulli, Leaf: 3, Spine: 1, Rate: 0.05, Onset: 2}},
	}}
	out, err := tr.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Samples) != 4 {
		t.Fatalf("samples = %d", len(out.Samples))
	}
	for i, s := range out.Samples {
		if s.Positive != (i >= 2) {
			t.Fatalf("sample %d label wrong", i)
		}
	}
	if out.FirstDetection != 3 {
		t.Fatalf("first detection at iter %d, want 3", out.FirstDetection)
	}
}

func TestRunAllPreservesOrder(t *testing.T) {
	var trials []Trial
	for i := 0; i < 3; i++ {
		tr := Trial{Scenario: core.Scenario{Leaves: 4, Spines: 2, BytesPerRank: 1 << 20, Iterations: 2, Seed: uint64(i)}}
		if i > 0 { // trial 0 is clean
			tr.Scenario.Faults = []core.FaultSpec{{Kind: core.FaultBernoulli, Leaf: 1, Spine: 0, Rate: float64(i) * 0.05, Onset: 1}}
		}
		trials = append(trials, tr)
	}
	results, err := RunAll(trials)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	if results[0].Samples[1].Positive {
		t.Fatal("clean trial (index 0) mislabeled — order not preserved?")
	}
	if !results[2].Samples[1].Positive {
		t.Fatal("faulty trial (index 2) mislabeled")
	}
}

func TestFig2PredictionMatchesSimulation(t *testing.T) {
	res, err := Fig2(Fig2Config{Grid: Grid{Leaves: 8, Spines: 4, BytesPerRank: 8 << 20, CleanIters: 3, Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ports) != 4 {
		t.Fatalf("ports = %d", len(res.Ports))
	}
	// "Close agreement": within 2% per port.
	if res.MaxRelErr > 0.02 {
		t.Fatalf("max relative error %v, want <= 2%%\n%s", res.MaxRelErr, res)
	}
	// Pre-existing fault must zero out its port in both columns.
	zeroed := false
	for _, p := range res.Ports {
		if p.Predicted == 0 && p.Observed == 0 {
			zeroed = true
		}
	}
	if !zeroed {
		t.Fatalf("no port shows the known fault:\n%s", res)
	}
	if !strings.Contains(res.String(), "Figure 2") {
		t.Fatal("renderer broken")
	}
}

func TestFig3RebaselineHappens(t *testing.T) {
	// The fault heals after iteration 5 of 12.
	res, err := Fig3(Fig3Config{
		Grid:  Grid{Leaves: 8, Spines: 4, BytesPerRank: 4 << 20, FaultIters: 5, CleanIters: 7, Seed: 4},
		Fault: core.LeafSpineLink{LeafOrd: 2, SpineOrd: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.RebaselinedAtIter == 0 {
		t.Fatalf("no rebaseline:\n%s", res)
	}
	if int(res.RebaselinedAtIter) <= res.Config.FaultIters {
		t.Fatalf("rebaseline at %d, before heal at %d", res.RebaselinedAtIter, res.Config.FaultIters)
	}
	if res.AlertsAfterRebaseline != 0 {
		t.Fatalf("%d alerts after rebaseline:\n%s", res.AlertsAfterRebaseline, res)
	}
	// The healed observation must be HIGHER than during the fault.
	var during, after float64
	for _, pt := range res.Series {
		if int(pt.Iter) == 3 {
			during = pt.Observed
		}
		if int(pt.Iter) == res.Config.FaultIters+res.Config.CleanIters {
			after = pt.Observed
		}
	}
	if after <= during {
		t.Fatalf("healed load %v not above faulty load %v", after, during)
	}
}

func TestFig5aSeverityOrdering(t *testing.T) {
	res, err := Fig5a(Fig5aConfig{
		Grid:      Grid{Leaves: 8, Spines: 4, BytesPerRank: 4 << 20, Trials: 2, CleanIters: 2, FaultIters: 2, Seed: 5},
		DropRates: []float64{0.005, 0.03},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curves) != 2 {
		t.Fatalf("curves = %d", len(res.Curves))
	}
	at1pct := func(c Fig5aCurve) (fpr, fnr float64) {
		for _, p := range c.Points {
			if p.Threshold == 0.01 {
				return p.FPR, p.FNR
			}
		}
		t.Fatal("no 1% threshold point")
		return 0, 0
	}
	fprLow, fnrLow := at1pct(res.Curves[0])   // 0.5% drop
	fprHigh, fnrHigh := at1pct(res.Curves[1]) // 3% drop
	if fprLow != 0 || fprHigh != 0 {
		t.Fatalf("FPR at 1%% threshold nonzero: %v %v", fprLow, fprHigh)
	}
	if fnrHigh != 0 {
		t.Fatalf("3%% drop not perfectly detected: FNR %v", fnrHigh)
	}
	if fnrLow <= fnrHigh {
		t.Fatalf("FNR ordering violated: %v (0.5%%) vs %v (3%%)", fnrLow, fnrHigh)
	}
	if !res.Curves[1].PerfectAtOnePercent {
		t.Fatal("3% drop should be perfect at the 1% threshold")
	}
}

func TestFig5cSizeOrdering(t *testing.T) {
	// With 4 spines, a drop rate r yields a port deficit of only
	// r(1-1/4) (retransmits re-spray a quarter of the loss back), so
	// 2.5%% gives mean deviation ~1.9%% — solidly past the threshold at
	// 16 MiB (Poisson σ small) but frequently missed at 1 MiB, where a
	// single dropped packet is 0.6%% of a port's volume.
	res, err := Fig5c(Fig5cConfig{
		Grid:      Grid{Leaves: 8, Spines: 4, Trials: 3, CleanIters: 2, FaultIters: 2, Seed: 6},
		Sizes:     []int64{1 << 20, 16 << 20},
		DropRates: []float64{0.025},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 {
		t.Fatalf("cells = %d", len(res.Cells))
	}
	small, large := res.Cells[0], res.Cells[1]
	if small.Bytes > large.Bytes {
		small, large = large, small
	}
	if small.FNR < large.FNR {
		t.Fatalf("smaller collective has LOWER FNR: %v vs %v\n%s", small.FNR, large.FNR, res)
	}
	if large.FNR > 0.1 {
		t.Fatalf("16 MiB at 2.5%% drop should detect reliably, FNR=%v", large.FNR)
	}
}

func TestFig5bRuns(t *testing.T) {
	res, err := Fig5b(Fig5bConfig{
		Grid:    Grid{BytesPerRank: 2 << 20, Trials: 1, CleanIters: 2, FaultIters: 2, Seed: 7},
		Radixes: []int{8, 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if len(row.FPR) != len(res.Config.Thresholds) {
			t.Fatal("per-threshold columns missing")
		}
		for i := range row.FPR {
			if row.FPR[i] < 0 || row.FPR[i] > 1 || row.FNR[i] < 0 || row.FNR[i] > 1 {
				t.Fatalf("rates out of range: %+v", row)
			}
		}
	}
	if !strings.Contains(res.String(), "radix") {
		t.Fatal("renderer broken")
	}
}

func TestPreExistingPerfectAtHighRate(t *testing.T) {
	res, err := PreExisting(PreExistingConfig{
		Grid:      Grid{Leaves: 8, Spines: 4, BytesPerRank: 8 << 20, Trials: 1, CleanIters: 2, FaultIters: 2, Seed: 8},
		Counts:    []int{0, 2},
		DropRates: []float64{0.03},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Cells {
		if !c.Perfect {
			t.Fatalf("cell not perfect: %+v\n%s", c, res)
		}
	}
}

func TestHeadlineScaledDown(t *testing.T) {
	// The paper-scale headline (64 MiB per rank on 32×16) runs in the
	// CLI; here a scaled variant with the same claim structure.
	res, err := Headline(HeadlineConfig{Grid: Grid{
		DropRate:     0.015,
		BytesPerRank: 32 << 20,
		CleanIters:   1, FaultIters: 3,
		Seed: 9,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Detected {
		t.Fatalf("headline fault not detected:\n%s", res)
	}
	if !res.CorrectPort {
		t.Fatalf("deficit alerts at wrong port:\n%s", res)
	}
	if res.FalseAlerts != 0 {
		t.Fatalf("false alerts in clean phase:\n%s", res)
	}
}

func TestFig4LocalizationAccuracy(t *testing.T) {
	res, err := Fig4(Fig4Config{Grid: Grid{
		Leaves: 8, Spines: 4, BytesPerRank: 16 << 20,
		Trials: 1, FaultIters: 3,
		Seed: 10,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Downstream.Local == 0 {
		t.Fatalf("downstream fault produced no local-link verdicts:\n%s", res)
	}
	if res.Downstream.Local <= res.Downstream.Remote {
		t.Fatalf("downstream fault mostly misclassified:\n%s", res)
	}
	if res.Upstream.Remote == 0 {
		t.Fatalf("upstream fault produced no remote-link verdicts:\n%s", res)
	}
	if res.Upstream.Accuracy < 0.5 {
		t.Fatalf("upstream localization accuracy %v:\n%s", res.Upstream.Accuracy, res)
	}
}

func TestAblationSprayPolicies(t *testing.T) {
	res, err := Ablation(AblationConfig{
		Grid:     Grid{Leaves: 8, Spines: 4, BytesPerRank: 4 << 20, CleanIters: 2, FaultIters: 2, Seed: 11},
		Policies: []spray.Kind{spray.LeastLoaded, spray.Random},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	var adaptive, random AblationRow
	for _, row := range res.Rows {
		switch row.Policy {
		case spray.LeastLoaded:
			adaptive = row
		case spray.Random:
			random = row
		}
	}
	// The design-choice claim: adaptive spraying's clean noise sits
	// under the 1% threshold; uniform random spraying's does not.
	if adaptive.CleanNoise >= 0.01 {
		t.Fatalf("adaptive clean noise %v >= threshold\n%s", adaptive.CleanNoise, res)
	}
	if random.CleanNoise <= adaptive.CleanNoise {
		t.Fatalf("random spraying (%v) not noisier than adaptive (%v)", random.CleanNoise, adaptive.CleanNoise)
	}
}
