package flowpulse

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"flowpulse/internal/trace"
)

// fastScenario keeps facade tests quick: 8 leaves, 4 spines, 4 MiB.
func fastScenario(seed uint64) Scenario {
	return Scenario{Leaves: 8, Spines: 4, BytesPerRank: 4 << 20, Iterations: 4, Seed: seed}
}

// TestBreakLinkOnThreeLevels: a Link's ordinals are fabric-wide on a
// three-level cluster too (pod-major), so the wrappers fault — and heal —
// the link Link names, not pod 0's first.
func TestBreakLinkOnThreeLevels(t *testing.T) {
	cluster, err := New(Scenario{Pods: 4, Leaves: 4, Spines: 2, CoresPerGroup: 4, BytesPerRank: 8 << 20, Iterations: 10, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	mon, err := cluster.Monitor(MonitorConfig{Predictor: Learned})
	if err != nil {
		t.Fatal(err)
	}
	target := Link{LeafOrd: 6, SpineOrd: 2} // pod 1: its leaf 2, its spine 0
	var atHeal uint64
	cluster.Train(func(_ Duration, iter uint32) {
		switch iter {
		case 5:
			cluster.BreakLink(target, 0.05)
		case 8:
			cluster.HealLink(target)
			atHeal = cluster.NetworkStats().FaultDropped
		}
	})
	deficits := 0
	for _, e := range mon.Events() {
		if a := e.Alert; a.Deviation < 0 {
			deficits++
			if a.LeafOrdinal != 6 || a.Uplink != 0 || a.Iter <= 5 {
				t.Errorf("deficit %v, want leaf 6 uplink 0 after iteration 5", a)
			}
		}
	}
	if deficits == 0 {
		t.Error("the leaf monitors saw no deficit")
	}
	if end := cluster.NetworkStats().FaultDropped; atHeal == 0 || end != atHeal {
		t.Errorf("%d packets dropped by HealLink, %d by the end; want some, then no more", atHeal, end)
	}
	defer func() {
		if recover() == nil {
			t.Error("BreakLink accepted a leaf and a spine of different pods")
		}
	}()
	cluster.BreakLink(Link{LeafOrd: 6, SpineOrd: 0}, 0.05)
}

func TestQuickstartFlow(t *testing.T) {
	cluster, err := New(fastScenario(1))
	if err != nil {
		t.Fatal(err)
	}
	mon, err := cluster.Monitor(MonitorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cluster.BreakLink(Link{LeafOrd: 3, SpineOrd: 1}, 0.05)
	cluster.Train(nil)

	if len(mon.Events()) == 0 {
		t.Fatal("no detections")
	}
	// Deficit alerts (negative deviation) name the faulty port;
	// retransmit spillover may also raise surplus alerts elsewhere.
	foundDeficit := false
	for _, e := range mon.Events() {
		if e.Alert.Deviation >= 0 {
			continue
		}
		foundDeficit = true
		if e.Alert.LeafOrdinal != 3 || e.Alert.Uplink != 1 {
			t.Fatalf("deficit alert at wrong port: %v", e.Alert)
		}
	}
	if !foundDeficit {
		t.Fatal("no deficit alert at the faulty port")
	}
	if mon.PredictorName() != "analytical" {
		t.Fatalf("predictor = %q", mon.PredictorName())
	}
	if mon.Windows() != 8*4 {
		t.Fatalf("windows = %d", mon.Windows())
	}
}

func TestCleanClusterSilent(t *testing.T) {
	cluster, err := New(fastScenario(2))
	if err != nil {
		t.Fatal(err)
	}
	mon, err := cluster.Monitor(MonitorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cluster.Train(nil)
	if len(mon.Events()) != 0 {
		t.Fatalf("clean cluster alerted: %v", mon.Events()[0].Alert)
	}
	st := cluster.NetworkStats()
	if st.Sent == 0 || st.Sent != st.Delivered {
		t.Fatalf("traffic accounting: %+v", st)
	}
}

func TestMidTrainingInjection(t *testing.T) {
	cluster, err := New(fastScenario(3))
	if err != nil {
		t.Fatal(err)
	}
	var rec bytes.Buffer
	mon, err := cluster.Monitor(MonitorConfig{TraceSink: &rec})
	if err != nil {
		t.Fatal(err)
	}
	cluster.Train(func(_ Duration, iter uint32) {
		if iter == 2 {
			cluster.BreakLink(Link{LeafOrd: 5, SpineOrd: 0}, 0.05)
		}
	})
	events := mon.Events()
	if len(events) == 0 {
		t.Fatal("mid-training fault not detected")
	}
	if events[0].Alert.Iter != 3 {
		t.Fatalf("first alert in iteration %d, want 3", events[0].Alert.Iter)
	}

	// The imperative call left its ground truth in the recording: an
	// offline sweep labels iterations 3 and 4 faulty, 1 and 2 clean.
	rr, err := trace.Replay(bytes.NewReader(rec.Bytes()), trace.ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rr.Faults) != 1 || rr.Faults[0].Kind != "bernoulli" || rr.Faults[0].LeafOrd != 5 || rr.Faults[0].OnsetIter != 2 {
		t.Fatalf("recorded fault schedule %+v, want the BreakLink after iteration 2", rr.Faults)
	}
	for i, s := range rr.Samples() {
		if s.Positive != (i+1 > 2) {
			t.Errorf("iteration %d labeled faulty=%v", i+1, s.Positive)
		}
	}

	// The same fault as data runs the same run.
	sc := fastScenario(3)
	sc.Faults = []FaultSpec{{Kind: FaultBernoulli, Leaf: 5, Spine: 0, Rate: 0.05, Onset: 2}}
	scheduled, err := New(sc)
	if err != nil {
		t.Fatal(err)
	}
	mon2, err := scheduled.Monitor(MonitorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := scheduled.Train(nil); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mon2.Events(), events) || scheduled.NetworkStats() != cluster.NetworkStats() {
		t.Error("Scenario.Faults and BreakLink from the Train hook ran different runs")
	}
}

func TestHealLink(t *testing.T) {
	cluster, err := New(Scenario{Leaves: 8, Spines: 4, BytesPerRank: 4 << 20, Iterations: 6, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	mon, err := cluster.Monitor(MonitorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	target := Link{LeafOrd: 2, SpineOrd: 3}
	cluster.BreakLink(target, 0.05)
	cluster.Train(func(_ Duration, iter uint32) {
		if iter == 3 {
			cluster.HealLink(target)
		}
	})
	sawLate := false
	for _, e := range mon.Events() {
		if e.Alert.Iter > 4 {
			sawLate = true
		}
	}
	if sawLate {
		t.Fatal("alerts continued after the fault healed")
	}
	if len(mon.Events()) == 0 {
		t.Fatal("fault phase never alerted")
	}
}

func TestDisconnectKnownFault(t *testing.T) {
	// Known fault BEFORE monitoring: the model must absorb it.
	sc := fastScenario(5)
	sc.PreExisting = []Link{{LeafOrd: 1, SpineOrd: 2}}
	cluster, err := New(sc)
	if err != nil {
		t.Fatal(err)
	}
	mon, err := cluster.Monitor(MonitorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cluster.Train(nil)
	if len(mon.Events()) != 0 {
		t.Fatalf("known fault raised alerts: %v", mon.Events()[0].Alert)
	}
	// The model predicts zero on the disconnected port.
	pred := mon.PortPrediction(1)
	if pred == nil || pred[2] != 0 {
		t.Fatalf("prediction does not reflect the known fault: %v", pred)
	}
}

func TestSimulationPredictorFacade(t *testing.T) {
	cluster, err := New(fastScenario(6))
	if err != nil {
		t.Fatal(err)
	}
	mon, err := cluster.Monitor(MonitorConfig{Predictor: Simulation})
	if err != nil {
		t.Fatal(err)
	}
	cluster.BreakLink(Link{LeafOrd: 4, SpineOrd: 2}, 0.05)
	cluster.Train(nil)
	if len(mon.Events()) == 0 {
		t.Fatal("simulation predictor missed the fault")
	}
	if mon.PredictorName() != "simulation" {
		t.Fatalf("predictor = %q", mon.PredictorName())
	}
}

func TestLearnedPredictorFacade(t *testing.T) {
	sc := fastScenario(7)
	sc.Iterations = 10
	cluster, err := New(sc)
	if err != nil {
		t.Fatal(err)
	}
	mon, err := cluster.Monitor(MonitorConfig{Predictor: Learned})
	if err != nil {
		t.Fatal(err)
	}
	target := Link{LeafOrd: 6, SpineOrd: 1}
	cluster.BreakLink(target, 0.2) // transient, present during warmup
	cluster.Train(func(_ Duration, iter uint32) {
		if iter == 5 {
			cluster.HealLink(target)
		}
	})
	if mon.Rebaselines() == 0 {
		t.Fatal("learned model never re-baselined")
	}
}

func TestMonitorTwiceFails(t *testing.T) {
	cluster, err := New(fastScenario(8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.Monitor(MonitorConfig{}); err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.Monitor(MonitorConfig{}); err == nil {
		t.Fatal("second Monitor call succeeded")
	}
}

func TestCustomThreshold(t *testing.T) {
	cluster, err := New(fastScenario(9))
	if err != nil {
		t.Fatal(err)
	}
	// A huge threshold suppresses detection of a modest fault.
	mon, err := cluster.Monitor(MonitorConfig{Threshold: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	cluster.BreakLink(Link{LeafOrd: 3, SpineOrd: 1}, 0.05)
	cluster.Train(nil)
	if len(mon.Events()) != 0 {
		t.Fatal("50% threshold still alerted on a 5% fault")
	}
	// But the scores still show it.
	found := false
	for _, s := range mon.IterationScores() {
		if s > 0.01 {
			found = true
		}
	}
	if !found {
		t.Fatal("iteration scores lost the deviation")
	}
}

// TestOneEntryJobsList: a Scenario.Jobs of length one is monitored like
// any other job list — that job's id selects its windows, and its own
// demand matrix (host column, leaf span) is what the model predicts
// from. The monitor and the training loop used to disagree on whether
// such a scenario was "multi-job": a clean run raised 160 false alerts
// against the all-hosts demand matrix, and a non-zero job id left the
// monitor with no windows at all.
func TestOneEntryJobsList(t *testing.T) {
	cases := []struct {
		name string
		job  JobSpec
	}{
		{"second host column", JobSpec{HostIx: 1}},
		{"leaf span", JobSpec{LeafFirst: 2, LeafCount: 5}},
		{"non-zero job id", JobSpec{Job: 7, HostIx: 1, LeafFirst: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := Scenario{
				Leaves: 8, Spines: 4, HostsPerLeaf: 2,
				BytesPerRank: 4 << 20, Iterations: 5, Seed: 21,
				Jobs: []JobSpec{tc.job},
			}
			leaves := tc.job.LeafCount
			if leaves == 0 {
				leaves = sc.Leaves - tc.job.LeafFirst
			}
			run := func(breakAt uint32) *Monitor {
				cluster, err := New(sc)
				if err != nil {
					t.Fatal(err)
				}
				mon, err := cluster.Monitor(MonitorConfig{})
				if err != nil {
					t.Fatal(err)
				}
				cluster.Train(func(_ Duration, iter uint32) {
					if iter == breakAt {
						cluster.BreakLink(Link{LeafOrd: 3, SpineOrd: 1}, 0.05)
					}
				})
				return mon
			}

			clean := run(0)
			if got, want := clean.Windows(), leaves*sc.Iterations; got != want {
				t.Fatalf("clean run: %d windows, want %d", got, want)
			}
			if n := len(clean.Events()); n != 0 {
				t.Fatalf("clean run raised %d alerts, first %v", n, clean.Events()[0].Alert)
			}
			if len(clean.Jobs()) != 1 || clean.Jobs()[0].Windows() != clean.Windows() {
				t.Fatalf("Jobs() = %v, want the one listed job with every window", clean.Jobs())
			}
			if clean.IterationScores() == nil || clean.PortPrediction(3) == nil {
				t.Fatal("a lone job must answer the whole-monitor queries")
			}

			faulted := run(2)
			detected := false
			for _, e := range faulted.Events() {
				if e.Alert.Iter <= 2 {
					t.Fatalf("alert before the fault: %v", e.Alert)
				}
				if e.Alert.Deviation < 0 && e.Alert.LeafOrdinal == 3 && e.Alert.Uplink == 1 {
					detected = true
				}
			}
			if !detected {
				t.Fatal("5% drop on leaf 3 / spine 1 not detected")
			}
		})
	}
}

// TestMonitorContractByJobCount pins Monitor's documented answers: the
// whole-monitor iteration scores, detector stats and port predictions
// exist for one job and not for several, and Jobs() is nil exactly when
// the scenario lists no Jobs.
func TestMonitorContractByJobCount(t *testing.T) {
	two := fastScenario(22)
	two.HostsPerLeaf = 2
	two.Jobs = []JobSpec{{Job: 1}, {Job: 2, HostIx: 1}}
	for _, tc := range []struct {
		sc   Scenario
		jobs int // len(Monitor.Jobs())
		one  bool
	}{{fastScenario(22), 0, true}, {two, 2, false}} {
		cluster, err := New(tc.sc)
		if err != nil {
			t.Fatal(err)
		}
		mon, err := cluster.Monitor(MonitorConfig{})
		if err != nil {
			t.Fatal(err)
		}
		cluster.TrainAll(nil)
		if got := len(mon.Jobs()); got != tc.jobs || (tc.jobs == 0) != (mon.Jobs() == nil) {
			t.Errorf("Jobs(): %d handles (nil=%v), want %d", got, mon.Jobs() == nil, tc.jobs)
		}
		if got := mon.IterationScores() != nil; got != tc.one {
			t.Errorf("%d jobs: IterationScores() non-nil = %v", tc.jobs, got)
		}
		if got := mon.PortPrediction(0) != nil; got != tc.one {
			t.Errorf("%d jobs: PortPrediction() non-nil = %v", tc.jobs, got)
		}
		if got := mon.DetectorStats().WindowsChecked > 0; got != tc.one {
			t.Errorf("%d jobs: DetectorStats() counted = %v", tc.jobs, got)
		}
		if mon.Windows() == 0 {
			t.Errorf("%d jobs: no windows", tc.jobs)
		}
	}
	if _, err := func() (*Monitor, error) {
		cluster, err := New(two)
		if err != nil {
			t.Fatal(err)
		}
		return cluster.Monitor(MonitorConfig{Predictor: Simulation})
	}(); err == nil {
		t.Error("Simulation predictor accepted on a multi-job cluster")
	}
}

type fullDisk struct{}

func (fullDisk) Write([]byte) (int, error) { return 0, errFullDisk }

var errFullDisk = errors.New("disk full")

// TestTrainReturnsTheRunsError: what used to be a value the caller had
// to remember to fetch (the recording's I/O error) comes back from
// Train.
func TestTrainReturnsTheRunsError(t *testing.T) {
	cluster, err := New(fastScenario(23))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.Monitor(MonitorConfig{TraceSink: fullDisk{}}); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Train(nil); !errors.Is(err, errFullDisk) {
		t.Errorf("Train over a failing TraceSink: error = %v, want %v", err, errFullDisk)
	}
}
