package experiments

import (
	"strings"
	"testing"

	"flowpulse/internal/sim"
)

func TestFaultTypesAllDetected(t *testing.T) {
	res, err := FaultTypes(FaultTypesConfig{Grid: Grid{
		Leaves: 8, Spines: 4, BytesPerRank: 8 << 20,
		Trials: 1, CleanIters: 2, FaultIters: 2,
		Seed: 31,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.FPR != 0 {
			t.Errorf("%s: FPR %v during clean phase\n%s", row.Name, row.FPR, res)
		}
		// Every §7 gray-fault type manifests as drops and must be
		// caught; all configured severities are ≥ 2.5% effective loss.
		if row.FNR != 0 {
			t.Errorf("%s: FNR %v, want 0\n%s", row.Name, row.FNR, res)
		}
		if row.MeanDetectionLatency == 0 || row.MeanDetectionLatency > 1.5 {
			t.Errorf("%s: detection latency %v iterations", row.Name, row.MeanDetectionLatency)
		}
	}
	if !strings.Contains(res.String(), "blackhole") {
		t.Fatal("renderer broken")
	}
}

func TestJitterDoesNotBreakSymmetry(t *testing.T) {
	// §7: jitter has no measurable effect on ring collectives.
	res, err := Jitter(JitterConfig{
		Grid:        Grid{Leaves: 8, Spines: 4, BytesPerRank: 8 << 20, DropRate: 0.03, Trials: 1, CleanIters: 2, FaultIters: 2, Seed: 32},
		JitterMaxes: []sim.Duration{0, 10 * sim.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.CleanNoise >= 0.01 {
			t.Errorf("jitter %v pushed clean noise to %v (>= threshold)\n%s", row.JitterMax, row.CleanNoise, res)
		}
		if row.FPR != 0 || row.FNR != 0 {
			t.Errorf("jitter %v: FPR %v FNR %v, want 0/0 at 3%% drop\n%s", row.JitterMax, row.FPR, row.FNR, res)
		}
	}
}

func TestTrunkMemberFaultNamed(t *testing.T) {
	res, err := Trunks(TrunkConfig{
		Grid:  Grid{Leaves: 8, Spines: 4, BytesPerRank: 16 << 20, DropRate: 0.04, Trials: 1, CleanIters: 2, FaultIters: 2, Seed: 33},
		Trunk: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FPR != 0 {
		t.Fatalf("trunk clean phase FPR %v\n%s", res.FPR, res)
	}
	if res.FNR != 0 {
		t.Fatalf("trunk member fault missed: FNR %v\n%s", res.FNR, res)
	}
	if res.CorrectMember == 0 || res.WrongMember > 0 {
		t.Fatalf("member attribution wrong: %d correct, %d wrong\n%s", res.CorrectMember, res.WrongMember, res)
	}
}

func TestClos3ExperimentBothLevels(t *testing.T) {
	// 8 iterations, the fault injected after the 4th.
	res, err := Clos3(Clos3Config{
		Grid: Grid{Leaves: 4, Spines: 2, BytesPerRank: 8 << 20, CleanIters: 4, FaultIters: 4, Seed: 34},
		Pods: 2, CoresPerGroup: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.SpineLeaf.Detected {
		t.Fatalf("spine->leaf fault missed:\n%s", res)
	}
	if !res.CoreSpine.Detected || res.CoreSpine.DetectionLevel != "spine" {
		t.Fatalf("core->spine fault not caught by spine monitors:\n%s", res)
	}
}

func TestBlockingNetworkPrioritizationHolds(t *testing.T) {
	res, err := Blocking(BlockingConfig{
		Grid:         Grid{Leaves: 8, Spines: 4, BytesPerRank: 8 << 20, Trials: 1, CleanIters: 2, FaultIters: 2, Seed: 35},
		HostsPerLeaf: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CleanNoise >= 0.01 {
		t.Fatalf("prioritization failed to isolate the collective: clean noise %v\n%s", res.CleanNoise, res)
	}
	if res.FPR != 0 || res.FNR != 0 {
		t.Fatalf("FPR %v FNR %v under blocking load, want 0/0\n%s", res.FPR, res.FNR, res)
	}
}

func TestRemediationExperiment(t *testing.T) {
	res, err := Remediation(RemediationConfig{Grid: Grid{Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	p, f := res.Rows[0], res.Rows[1]
	if p.Quarantines != 1 || p.Readmissions != 0 || p.FIBChurn != 1 {
		t.Errorf("persistent fault not pinned after one quarantine: %+v", p)
	}
	if p.TimeToQuarantine <= 0 || p.TimeToQuarantine > 8*res.IterDur {
		t.Errorf("persistent time-to-quarantine %v outside (0, 8 iterations]", p.TimeToQuarantine)
	}
	if p.PostQuarantineDeficits != 0 {
		t.Errorf("persistent row not quiet after re-baseline: %+v", p)
	}
	if f.Quarantines < 2 || f.Suppressed == 0 || f.Readmissions >= f.Quarantines {
		t.Errorf("flap damping did not engage: %+v", f)
	}
	if f.FIBChurn != f.Quarantines+f.Readmissions {
		t.Errorf("flap churn %d != quarantines+readmissions %d", f.FIBChurn, f.Quarantines+f.Readmissions)
	}
	out := res.String()
	if !strings.Contains(out, "persistent") || !strings.Contains(out, "quarantine link") {
		t.Fatalf("renderer broken:\n%s", out)
	}
	if !strings.HasPrefix(res.CSV(), "fault,time_to_quarantine_us,") {
		t.Fatal("csv header broken")
	}
}

func TestCSVRenderers(t *testing.T) {
	a := &Fig5aResult{Config: Fig5aConfig{}, Curves: []Fig5aCurve{{DropRate: 0.01}}}
	if !strings.HasPrefix(a.CSV(), "drop_rate,") {
		t.Fatal("fig5a csv header")
	}
	b := &Fig5bResult{Config: Fig5bConfig{Thresholds: []float64{0.01}},
		Rows: []Fig5bRow{{Radix: 8, Leaves: 8, Spines: 4, FPR: []float64{0}, FNR: []float64{1}}}}
	if !strings.Contains(b.CSV(), "8,8,4,0.01,0,1") {
		t.Fatalf("fig5b csv rows: %q", b.CSV())
	}
	c := &Fig5cResult{Cells: []Fig5cCell{{Bytes: 1024, DropRate: 0.02, FPR: 0, FNR: 0.5}}}
	if !strings.Contains(c.CSV(), "1024,0.02,0,0.5") {
		t.Fatalf("fig5c csv rows: %q", c.CSV())
	}
	d := &Fig2Result{Ports: []Fig2Port{{Uplink: 3, Predicted: 10, Observed: 11, RelErr: 0.1}}}
	if !strings.Contains(d.CSV(), "3,10,11,0.1") {
		t.Fatalf("fig2 csv rows: %q", d.CSV())
	}
	e := &Fig3Result{Series: []Fig3Point{{Iter: 2, Observed: 5, Baseline: 6, Alerted: true}}}
	if !strings.Contains(e.CSV(), "2,5,6,1") {
		t.Fatalf("fig3 csv rows: %q", e.CSV())
	}
}
