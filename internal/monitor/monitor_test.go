package monitor

import (
	"reflect"
	"testing"

	"flowpulse/internal/detect"
	"flowpulse/internal/fabric"
	"flowpulse/internal/localize"
	"flowpulse/internal/sim"
	"flowpulse/internal/telemetry"
	"flowpulse/internal/topology"
)

// fakeDetect returns canned scores and alerts and records the windows
// it saw.
type fakeDetect struct {
	score  float64
	scored bool
	alerts []detect.Alert
	seen   []*telemetry.Window
}

func (f *fakeDetect) Evaluate(w *telemetry.Window) (float64, bool, []detect.Alert) {
	f.seen = append(f.seen, w)
	return f.score, f.scored, f.alerts
}

type fakeLocalize struct {
	calls   int
	verdict localize.Verdict
}

func (f *fakeLocalize) Localize(a detect.Alert, w *telemetry.Window, senderPred [][]float64) localize.Verdict {
	f.calls++
	return f.verdict
}

type fakeRemediate struct {
	trace []string // interleaving of Observe/Tick calls
}

func (f *fakeRemediate) Observe(a detect.Alert, v localize.Verdict) {
	f.trace = append(f.trace, "observe")
}
func (f *fakeRemediate) Tick(now sim.Time) { f.trace = append(f.trace, "tick") }

type fakeObserver struct{ windows int }

func (f *fakeObserver) Observe(w *telemetry.Window) { f.windows++ }

func win(job uint16, iter uint32, closedAt sim.Time) *telemetry.Window {
	return &telemetry.Window{
		Job: job, Iter: iter, ClosedAt: closedAt,
		PortBytes:   []int64{1, 2},
		SenderBytes: [][]int64{{1}, {2}},
	}
}

func TestPipelineOnWindowOrdering(t *testing.T) {
	det := &fakeDetect{score: 0.5, scored: true, alerts: []detect.Alert{{Uplink: 1}}}
	loc := &fakeLocalize{verdict: localize.Verdict{Kind: localize.LocalLink}}
	rem := &fakeRemediate{}
	obs := &fakeObserver{}
	var hooks []string
	p := NewPipeline(PipelineConfig{
		Detect:    det,
		Localize:  loc,
		Remediate: rem,
		Observer:  obs,
		OnEvent:   func(e Event) { hooks = append(hooks, "event") },
		OnWindow:  func(ws WindowScore) { hooks = append(hooks, "window") },
	})

	w := win(3, 1, 100)
	p.OnWindow(w)

	if p.Windows != 1 || len(p.Scores) != 1 || len(p.Events) != 1 {
		t.Fatalf("windows=%d scores=%d events=%d", p.Windows, len(p.Scores), len(p.Events))
	}
	if p.Scores[0].Score != 0.5 || !p.Scores[0].Scored {
		t.Fatalf("score record: %+v", p.Scores[0])
	}
	// The pipeline analyses a clone: the caller's window must not be
	// retained (the tap may reuse it).
	if p.Scores[0].Window == w || det.seen[0] == w {
		t.Fatal("pipeline retained the caller's window instead of a clone")
	}
	// OnWindow fires before OnEvent.
	if want := []string{"window", "event"}; !reflect.DeepEqual(hooks, want) {
		t.Fatalf("hook order %v, want %v", hooks, want)
	}
	// Remediator sees the observation before the end-of-window tick.
	if want := []string{"observe", "tick"}; !reflect.DeepEqual(rem.trace, want) {
		t.Fatalf("remediate trace %v, want %v", rem.trace, want)
	}
	if obs.windows != 1 {
		t.Fatalf("observer saw %d windows, want 1", obs.windows)
	}
	// Without a predictor the verdict stays empty (localize needs the
	// model's sender reference).
	if loc.calls != 0 || p.Events[0].Verdict.Kind != localize.Indeterminate {
		t.Fatalf("localize ran without a predictor: calls=%d verdict=%v", loc.calls, p.Events[0].Verdict)
	}
}

func TestPipelineIterationScores(t *testing.T) {
	det := &fakeDetect{scored: true}
	p := NewPipeline(PipelineConfig{Detect: det})

	det.score = 0.2
	p.OnWindow(win(1, 1, 10))
	det.score = 0.7
	p.OnWindow(win(1, 1, 20)) // same iteration, another leaf: max wins
	det.score = 0.1
	p.OnWindow(win(1, 2, 30))
	det.scored = false
	det.score = 9.9
	p.OnWindow(win(1, 3, 40)) // unscored windows are excluded

	got := p.IterationScores()
	want := map[uint32]float64{1: 0.7, 2: 0.1}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("iteration scores %v, want %v", got, want)
	}
}

// testNet is the smallest three-level fabric: 2 pods of 2 leaves × 2
// spines, one core per spine ordinal — both monitored tiers present.
func testNet(t *testing.T) *fabric.Network {
	t.Helper()
	topo, err := topology.NewClos3(topology.Clos3Config{Pods: 2, LeavesPerPod: 2, SpinesPerPod: 2, CoresPerGroup: 1})
	if err != nil {
		t.Fatal(err)
	}
	net, err := fabric.New(fabric.Config{Topo: topo, Engine: sim.NewEngine()})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestPlaneRoutesWindowsPerJob: a closed window reaches the pipeline
// keyed by its switch tier and its job, and nobody else's.
func TestPlaneRoutesWindowsPerJob(t *testing.T) {
	net := testNet(t)
	pipes := map[Key]*Pipeline{
		{topology.Leaf, 1}:  NewPipeline(PipelineConfig{Detect: &fakeDetect{}}),
		{topology.Leaf, 2}:  NewPipeline(PipelineConfig{Detect: &fakeDetect{}}),
		{topology.Spine, 1}: NewPipeline(PipelineConfig{Detect: &fakeDetect{}}),
	}
	plane := NewPlane(net, pipes)

	// Drive the shared tap directly, on the first leaf (uplinks from
	// port 1) and the first spine (core port 2): interleaved packets
	// from three jobs. Job 7 has no pipeline at all, job 2 none at the
	// spine tier.
	monitors := plane.collector.Monitors
	leaf, spine := monitors[0], monitors[len(net.Topology().Leaves())]
	for _, job := range []uint16{1, 2, 7} {
		p := &fabric.Packet{
			Src: 0, Dst: 0, Size: 1000, Kind: fabric.Data,
			Tag: fabric.FlowTag{Sentinel: true, Job: job, Iter: 1},
		}
		leaf.OnPacket(10, 1, p)
		spine.OnPacket(10, 2, p)
	}
	plane.Flush(50)

	for key, pipe := range pipes {
		if pipe.Windows != 1 {
			t.Errorf("%s tier, job %d: %d windows, want 1", key.Tier, key.Job, pipe.Windows)
		}
		if got := pipe.Scores[0].Window; got.SwitchKind != key.Tier || got.Job != key.Job {
			t.Errorf("%s tier, job %d: got a %s window of job %d", key.Tier, key.Job, got.SwitchKind, got.Job)
		}
	}
	if plane.UnroutedWindows() != 3 {
		t.Errorf("unrouted windows = %d, want 3 (job 7 at both tiers, job 2 at the spine tier)", plane.UnroutedWindows())
	}
}

func TestPlaneValidation(t *testing.T) {
	net := testNet(t)
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	mustPanic("nil pipeline", func() {
		NewPlane(net, map[Key]*Pipeline{{topology.Leaf, 1}: nil})
	})
	mustPanic("missing Detect", func() {
		NewPipeline(PipelineConfig{})
	})
}
