package core

import (
	"io"
	"strings"
	"testing"

	"flowpulse/internal/detect"
	"flowpulse/internal/predict"
	"flowpulse/internal/telemetry"
	"flowpulse/internal/topology"
	"flowpulse/internal/trace"
)

func clos3Scenario(seed uint64) Scenario {
	return Scenario{
		Pods: 4, Leaves: 4, Spines: 2, CoresPerGroup: 4,
		BytesPerRank: 8 << 20,
		Iterations:   10,
		Seed:         seed,
	}
}

// runClos3 trains a three-level scenario under dual-tier monitoring and
// returns each tier's alerts.
func runClos3(t *testing.T, sc Scenario, faults ...FaultSpec) (sys *System, leaf, spine []detect.Alert) {
	t.Helper()
	sc.Faults = faults
	rt, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	sys, err = rt.Attach(AttachOptions{Job: JobConfig{Kind: LearnedModel, Learned: predict.LearnedConfig{Warmup: 3}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Train(nil); err != nil {
		t.Fatal(err)
	}
	j := sys.Jobs()[0]
	for _, e := range j.Pipeline.Events {
		leaf = append(leaf, e.Alert)
	}
	for _, e := range j.Spine.Pipeline.Events {
		spine = append(spine, e.Alert)
	}
	return sys, leaf, spine
}

func TestClos3CleanBothLevelsSilent(t *testing.T) {
	sys, leaf, spine := runClos3(t, clos3Scenario(1))
	if len(leaf) != 0 {
		t.Fatalf("clean 3-level run: leaf alerts %v", leaf[0])
	}
	if len(spine) != 0 {
		t.Fatalf("clean 3-level run: spine alerts %v", spine[0])
	}
	// 16 leaves + 8 spines, 10 iterations each... every leaf window
	// plus every spine window that saw cross-pod traffic.
	j := sys.Jobs()[0]
	if n := j.Pipeline.Windows + j.Spine.Pipeline.Windows; n < 16*10 {
		t.Fatalf("windows = %d, want >= 160", n)
	}
	if n := sys.plane.UnroutedWindows(); n != 0 {
		t.Fatalf("%d windows reached no pipeline", n)
	}
}

func TestClos3SpineLeafFaultSeenByLeafMonitor(t *testing.T) {
	_, leaf, _ := runClos3(t, clos3Scenario(2),
		FaultSpec{Kind: FaultBernoulli, Pod: 1, LeafInPod: 2, SpineInPod: 0, Rate: 0.05, Onset: 5})
	if len(leaf) == 0 {
		t.Fatal("spine->leaf fault not seen by leaf monitors")
	}
	for _, a := range leaf {
		if a.Iter <= 5 {
			t.Fatalf("alert before injection: %v", a)
		}
	}
	// The deficit must be at the right leaf: pod 1, leaf-in-pod 2 →
	// global leaf ordinal 1*4+2 = 6, uplink 0 (spine-in-pod 0).
	foundDeficit := false
	for _, a := range leaf {
		if a.Deviation < 0 {
			foundDeficit = true
			if a.LeafOrdinal != 6 || a.Uplink != 0 {
				t.Fatalf("deficit at leaf %d uplink %d, want 6/0", a.LeafOrdinal, a.Uplink)
			}
		}
	}
	if !foundDeficit {
		t.Fatal("no deficit alert")
	}
}

func TestClos3CoreSpineFaultSeenBySpineMonitor(t *testing.T) {
	_, _, spine := runClos3(t, clos3Scenario(3),
		FaultSpec{Kind: FaultBernoulli, CoreSpine: true, Pod: 2, SpineInPod: 1, CoreIx: 0, Rate: 0.08, Onset: 5})
	if len(spine) == 0 {
		t.Fatal("core->spine fault not seen by spine monitors")
	}
	for _, a := range spine {
		if a.Iter <= 5 {
			t.Fatalf("spine alert before injection: %v", a)
		}
		if a.Level != topology.Spine {
			t.Fatalf("spine-tier alert carries level %v", a.Level)
		}
	}
	// The faulted spine is pod 2, spine-in-pod 1 → global spine
	// ordinal 2*2+1 = 5; core-in-group 0 → core port index 0.
	foundDeficit := false
	for _, a := range spine {
		if a.Deviation < 0 {
			foundDeficit = true
			if a.LeafOrdinal != 5 || a.Uplink != 0 {
				t.Fatalf("spine deficit at ordinal %d port %d, want 5/0", a.LeafOrdinal, a.Uplink)
			}
		}
	}
	if !foundDeficit {
		t.Fatal("no spine deficit alert")
	}
}

func TestClos3SpineWindowsCarryKind(t *testing.T) {
	sc := clos3Scenario(4)
	sc.Iterations = 2
	rt, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	leafK, spineK := 0, 0
	coll := telemetry.AttachAll(rt.Net, int(rt.Scenario.Job), func(w *telemetry.Window) {
		if w.SwitchKind == topology.Spine {
			spineK++
		} else {
			leafK++
		}
	})
	if err := rt.Train(nil); err != nil {
		t.Fatal(err)
	}
	coll.FlushAll(rt.Engine.Now())
	if leafK == 0 || spineK == 0 {
		t.Fatalf("window kinds: leaf=%d spine=%d", leafK, spineK)
	}
}

// TestClos3AttachRejections: a three-level fabric takes the learned
// model only and cannot be traced — each a rejection, not a panic or a
// silently wrong baseline.
func TestClos3AttachRejections(t *testing.T) {
	rt, err := clos3Scenario(5).Build()
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	for name, opts := range map[string]AttachOptions{
		"analytical model": {Job: JobConfig{Kind: AnalyticalModel}},
		"simulation model": {Job: JobConfig{Kind: SimulationModel}},
		"trace writer":     {Job: JobConfig{Kind: LearnedModel}, Trace: trace.NewWriter(io.Discard)},
	} {
		if _, err := rt.Attach(opts); err == nil || !strings.Contains(err.Error(), "two-level") {
			t.Errorf("%s on a three-level fabric: error = %v, want the two-level rejection", name, err)
		}
	}
}
