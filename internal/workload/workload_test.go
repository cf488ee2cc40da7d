package workload

import (
	"math"
	"testing"

	"flowpulse/internal/collective"
	"flowpulse/internal/fabric"
	"flowpulse/internal/sim"
	"flowpulse/internal/telemetry"
	"flowpulse/internal/topology"
	"flowpulse/internal/transport"
)

type rig struct {
	topo  *topology.Topology
	eng   *sim.Engine
	net   *fabric.Network
	stack *transport.Stack
}

func newRig(t *testing.T, leaves, spines int, seed uint64) *rig {
	t.Helper()
	topo, err := topology.NewFatTree(topology.FatTreeConfig{Leaves: leaves, Spines: spines})
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	net := fabric.MustNew(fabric.Config{Topo: topo, Engine: eng, Seed: seed})
	return &rig{topo: topo, eng: eng, net: net, stack: transport.NewStack(net, transport.Config{})}
}

func groupOf(topo *topology.Topology) []topology.HostID {
	g := make([]topology.HostID, len(topo.Hosts))
	for i := range g {
		g[i] = topology.HostID(i)
	}
	return g
}

func TestJobRunsIterationsSequentially(t *testing.T) {
	r := newRig(t, 4, 4, 1)
	var iters []uint32
	var times []sim.Time
	done := false
	StartJob(r.stack, JobConfig{
		Job:        1,
		Collective: &collective.RingAllReduce{Group: groupOf(r.topo), BytesPerRank: 256 << 10},
		Iterations: 4,
		Sentinel:   true,
		OnIteration: func(now sim.Time, iter uint32, _ *collective.Result) {
			iters = append(iters, iter)
			times = append(times, now)
		},
		OnDone: func(sim.Time) { done = true },
	})
	r.eng.Run()
	if !done || len(iters) != 4 {
		t.Fatalf("done=%v iters=%v", done, iters)
	}
	for i, it := range iters {
		if it != uint32(i+1) {
			t.Fatalf("iteration numbering: %v", iters)
		}
	}
	for i := 1; i < len(times); i++ {
		if times[i].Sub(times[i-1]) < 20*sim.Microsecond {
			t.Fatal("compute gap not honoured")
		}
	}
}

func TestJobValuesReduceEveryIteration(t *testing.T) {
	r := newRig(t, 4, 4, 2)
	n := 4
	var lastVals [][]float64
	StartJob(r.stack, JobConfig{
		Job:         1,
		Collective:  &collective.RingAllReduce{Group: groupOf(r.topo), BytesPerRank: 64 << 10},
		Iterations:  2,
		Sentinel:    true,
		TrackValues: true,
		OnIteration: func(_ sim.Time, _ uint32, res *collective.Result) {
			lastVals = res.Values
		},
	})
	r.eng.Run()
	if lastVals == nil {
		t.Fatal("no values")
	}
	// After iteration 1, rank values are chunk sums; iteration 2
	// re-reduces those sums: each chunk value = N * (sum over ranks of
	// initial chunk value)... verified structurally: all ranks agree.
	for c := 0; c < n; c++ {
		for rank := 1; rank < n; rank++ {
			if math.Abs(lastVals[rank][c]-lastVals[0][c]) > 1e-9 {
				t.Fatalf("ranks disagree on chunk %d after 2 iterations", c)
			}
		}
	}
}

func TestJobTagsIterations(t *testing.T) {
	r := newRig(t, 4, 4, 3)
	var windows []*telemetry.Window
	coll := telemetry.AttachAll(r.net, telemetry.JobAny, func(w *telemetry.Window) {
		windows = append(windows, w.Clone())
	})
	StartJob(r.stack, JobConfig{
		Job:        7,
		Collective: &collective.RingAllReduce{Group: groupOf(r.topo), BytesPerRank: 256 << 10},
		Iterations: 3,
		Sentinel:   true,
	})
	r.eng.Run()
	coll.FlushAll(r.eng.Now())
	// 4 leaves x 3 iterations.
	if len(windows) != 12 {
		t.Fatalf("windows = %d, want 12", len(windows))
	}
	for _, w := range windows {
		if w.Job != 7 {
			t.Fatalf("window job = %d", w.Job)
		}
		if w.Total() == 0 {
			t.Fatal("empty measured window")
		}
	}
}

func TestJobWithJitterStillCompletes(t *testing.T) {
	r := newRig(t, 4, 4, 4)
	done := false
	StartJob(r.stack, JobConfig{
		Job:        1,
		Collective: &collective.RingAllReduce{Group: groupOf(r.topo), BytesPerRank: 128 << 10},
		Iterations: 3,
		JitterMax:  10 * sim.Microsecond,
		Sentinel:   true,
		OnDone:     func(sim.Time) { done = true },
	})
	r.eng.Run()
	if !done {
		t.Fatal("jittered job incomplete")
	}
}

func TestTwoParallelJobs(t *testing.T) {
	// Jobs on disjoint host halves, different ids, sharing the fabric.
	r := newRig(t, 8, 4, 5)
	all := groupOf(r.topo)
	doneA, doneB := false, false
	StartJob(r.stack, JobConfig{
		Job:        1,
		Collective: &collective.RingAllReduce{Group: all[:4], BytesPerRank: 128 << 10},
		Iterations: 3,
		Sentinel:   true,
		OnDone:     func(sim.Time) { doneA = true },
	})
	StartJob(r.stack, JobConfig{
		Job:        2,
		Collective: &collective.RingAllReduce{Group: all[4:], BytesPerRank: 256 << 10},
		Iterations: 2,
		Sentinel:   true,
		OnDone:     func(sim.Time) { doneB = true },
	})

	// Job-filtered telemetry must only see its own job.
	var job1Windows int
	telemetry.AttachAll(r.net, 1, func(w *telemetry.Window) {
		if w.Job != 1 {
			t.Errorf("job filter leaked job %d", w.Job)
		}
		job1Windows++
	})
	r.eng.Run()
	if !doneA || !doneB {
		t.Fatalf("jobs incomplete: %v %v", doneA, doneB)
	}
	if job1Windows == 0 {
		t.Fatal("no job-1 windows")
	}
}

func TestBackgroundTrafficGeneratesAndStops(t *testing.T) {
	r := newRig(t, 4, 4, 6)
	b := StartBackground(r.stack, BackgroundConfig{
		Hosts:        groupOf(r.topo),
		MessageBytes: 16 << 10,
		MeanGap:      5 * sim.Microsecond,
		Until:        500 * 1000 * 1000, // 500 µs
		Seed:         6,
	})
	r.eng.Run()
	if b.MessagesSent < 50 {
		t.Fatalf("background sent only %d messages", b.MessagesSent)
	}
	// All background traffic is Low priority and unmeasured: a monitor
	// must see nothing.
	m := telemetry.NewLeafMonitor(r.topo, r.topo.Leaves()[0], telemetry.JobAny, nil)
	_ = m
	if r.net.Stats().Delivered == 0 {
		t.Fatal("background traffic not delivered")
	}
}

func TestBackgroundStopHalts(t *testing.T) {
	r := newRig(t, 2, 2, 7)
	b := StartBackground(r.stack, BackgroundConfig{Hosts: groupOf(r.topo), MeanGap: sim.Microsecond, Seed: 7})
	r.eng.RunUntil(50 * 1000 * 1000)
	b.Stop()
	sent := b.MessagesSent
	r.eng.Run()
	if b.MessagesSent > sent {
		t.Fatalf("generator kept sending after Stop: %d -> %d", sent, b.MessagesSent)
	}
}

func TestJobValidation(t *testing.T) {
	r := newRig(t, 2, 2, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("invalid job accepted")
		}
	}()
	StartJob(r.stack, JobConfig{Iterations: 0})
}
