package core

import (
	"encoding/json"
	"errors"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"flowpulse/internal/remediate"
	"flowpulse/internal/resilience"
	"flowpulse/internal/sim"
	"flowpulse/internal/trace"
)

// TestSimulationModelRejectsSeveralJobs: the reference run taps the
// first job only, so handing its windows to every job of a multi-job
// scenario would give the others a wrong baseline — every rig gets the
// rejection from the shared attach step.
func TestSimulationModelRejectsSeveralJobs(t *testing.T) {
	rt, err := twoJobs(16).Build()
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	_, err = rt.Attach(AttachOptions{Job: JobConfig{Kind: SimulationModel}})
	if err == nil || !strings.Contains(err.Error(), "per-job reference run") {
		t.Fatalf("two-job SimulationModel attach: error = %v, want the per-job reference run rejection", err)
	}
}

func TestAttachTwiceFails(t *testing.T) {
	rt, err := small(17).Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Attach(AttachOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Attach(AttachOptions{}); err == nil {
		t.Fatal("second Attach on one runtime succeeded")
	}
}

// TestTrainBindsAndReleases is the path examples/clos3-monitoring and
// every other rig takes — Build, Attach, Train, nothing else — on a
// sharded runtime with the resilience loop on: the two steps alone must
// leave every job's workload bound to its re-planner and the engine
// group's workers released.
func TestTrainBindsAndReleases(t *testing.T) {
	sc := twoJobs(18)
	sc.Iterations, sc.Shards = 2, 2
	rt, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := rt.Attach(AttachOptions{Remediate: &remediate.Config{}, Resilience: &resilience.Config{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Train(nil); err != nil {
		t.Fatal(err)
	}
	for _, j := range sys.Jobs() {
		if j.Replanner == nil || j.work == nil {
			t.Errorf("job %d: Train did not bind the workload", j.ID)
		}
		if j.Pipeline.Windows != sc.Leaves*sc.Iterations {
			t.Errorf("job %d: %d windows after Train, want %d (final flush missing?)", j.ID, j.Pipeline.Windows, sc.Leaves*sc.Iterations)
		}
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "after Close") {
			t.Errorf("Run after Train: recovered %v, want the engine group's after-Close panic", r)
		}
	}()
	rt.Run()
}

// TestTrainReturnsBindAndTraceErrors: the two failures a caller of the
// hand-rolled sequence could drop on the floor come back from Train.
func TestTrainReturnsBindAndTraceErrors(t *testing.T) {
	sc := small(19)
	sc.Iterations = 2
	sc.Collective = AllToAllKind // not re-plannable
	rt, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Attach(AttachOptions{Remediate: &remediate.Config{}, Resilience: &resilience.Config{}}); err != nil {
		t.Fatal(err)
	}
	if err := rt.Train(nil); err == nil || !strings.Contains(err.Error(), "re-plannable") {
		t.Errorf("Train with resilience over all-to-all: error = %v, want the re-plannable rejection", err)
	}

	sc.Collective = RingAllReduce
	if rt, err = sc.Build(); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Attach(AttachOptions{Trace: trace.NewWriter(failingWriter{})}); err != nil {
		t.Fatal(err)
	}
	if err := rt.Train(nil); !errors.Is(err, errDiskFull) {
		t.Errorf("Train over a failing trace sink: error = %v, want %v", err, errDiskFull)
	}
}

var errDiskFull = errors.New("disk full")

// failingWriter fails every write; the trace writer buffers, so the
// error surfaces when Train's flush seals the recording.
type failingWriter struct{}

func (failingWriter) Write(p []byte) (int, error) { return 0, errDiskFull }

// TestMonitorSpecAttachOptions: the one conversion from the written-down
// monitor to Attach's options — detector fields through, the closed
// loops at their defaults, and Resilience bringing Remediate with it.
func TestMonitorSpecAttachOptions(t *testing.T) {
	if opts := (MonitorSpec{}).AttachOptions(); opts.Remediate != nil || opts.Resilience != nil || opts.Job.Kind != "" {
		t.Errorf("zero spec: %+v, want the open-loop defaults", opts)
	}
	opts := MonitorSpec{Predictor: LearnedModel, Threshold: 0.02, CEDiscount: 2, Resilience: true}.AttachOptions()
	if opts.Job.Kind != LearnedModel || opts.Job.Detect.Threshold != 0.02 || opts.Job.Detect.CEDiscount != 2 {
		t.Errorf("job %+v lost a field", opts.Job)
	}
	if opts.Remediate == nil || opts.Resilience == nil {
		t.Errorf("resilience without remediation: %+v", opts)
	}
}

// TestMonitorSpecJSONKeys: the monitor's keys, in field order, are the
// ones run files and the simtest repro line spell.
func TestMonitorSpecJSONKeys(t *testing.T) {
	b, err := json.Marshal(MonitorSpec{Predictor: AnalyticalModel, Threshold: 0.01, Remediate: true, Resilience: true, CEDiscount: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"predictor":"analytical","threshold":0.01,"remediate":true,"resilience":true,"ceDiscount":1}`
	if string(b) != want {
		t.Errorf("got %s, want %s", b, want)
	}
}

// tiny is a 4×2, two-iteration scenario: enough to drive Run.
func tiny(shards int) Scenario {
	return Scenario{Leaves: 4, Spines: 2, BytesPerRank: 1 << 20, Iterations: 2, Seed: 1, Shards: shards}
}

// TestRunReleasesShardWorkers: Run closes its runtime on every path, so
// a sharded scenario's worker pool is gone when it returns — after a
// finished run, after an Attach the monitor rejects, and after a Train
// that fails (resilience over all-to-all, which cannot be re-planned).
// Workers exit asynchronously once their start channel closes, so the
// count is polled back down to where it started.
func TestRunReleasesShardWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	if _, _, err := Run(tiny(2), AttachOptions{}, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Run(tiny(2), AttachOptions{Resilience: &resilience.Config{}}, nil); err == nil {
		t.Fatal("Attach accepted resilience without remediation")
	}
	a2a := tiny(2)
	a2a.Collective = AllToAllKind
	if _, _, err := Run(a2a, AttachOptions{Remediate: &remediate.Config{}, Resilience: &resilience.Config{}}, nil); err == nil || !strings.Contains(err.Error(), "re-plannable") {
		t.Fatalf("resilience over all-to-all: error = %v, want the re-plannable rejection", err)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the runs, %d before them: shard workers leaked", runtime.NumGoroutine(), before)
		}
	}
}

// TestRunBindsWorkloadAndTimesIterations: every run binds its jobs to
// the resilience loop (a no-op without one), the hook's first call comes
// after Attach and before any iteration, and the first job's iterations
// are timed on the runtime's goodput timeline.
func TestRunBindsWorkloadAndTimesIterations(t *testing.T) {
	var calls []uint32
	rt, sys, err := Run(tiny(0), AttachOptions{Remediate: &remediate.Config{}, Resilience: &resilience.Config{}},
		func(_ *Runtime, s *System, now sim.Time, _ uint16, iter uint32) {
			if len(calls) == 0 && (s == nil || now != 0) {
				t.Errorf("first hook call: system %v at %v, want the attached system before training", s, now)
			}
			calls = append(calls, iter)
		})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Jobs()[0].Replanner == nil {
		t.Fatal("the job was not bound to the resilience loop")
	}
	if !slices.Equal(calls, []uint32{0, 1, 2}) {
		t.Errorf("hook saw iterations %v, want [0 1 2]", calls)
	}
	if p := rt.Goodput.Points(); len(p) != 2 || p[0].End <= 0 || p[1].End <= p[0].End {
		t.Fatalf("iteration timeline %v, want two increasing instants", p)
	}
}

// TestRunReportsTraceWriteError: a recording that cannot be written
// fails the run instead of leaving a truncated trace behind a nil error.
// /dev/full accepts the open and fails every write.
func TestRunReportsTraceWriteError(t *testing.T) {
	if f, err := os.OpenFile("/dev/full", os.O_WRONLY, 0); err != nil {
		t.Skip("no /dev/full here")
	} else {
		f.Close()
	}
	if _, _, err := Run(tiny(0), AttachOptions{TracePath: "/dev/full"}, nil); err == nil {
		t.Fatal("run recorded to a full device without an error")
	}
}

// TestGoodputIsAlwaysTracked: nothing arms the goodput timeline — a
// runtime keeps one from Build, and it holds one point per iteration of
// the first job, on both partitions and beside a second job.
func TestGoodputIsAlwaysTracked(t *testing.T) {
	for _, shards := range []int{0, 2} {
		sc := twoJobs(24)
		sc.Iterations, sc.Shards = 3, shards
		sc.Jobs[1].Iterations = 5
		rt, _, err := Run(sc, AttachOptions{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		var iters []uint32
		for _, p := range rt.Goodput.Points() {
			iters = append(iters, p.Iter)
		}
		if !slices.Equal(iters, []uint32{1, 2, 3}) {
			t.Errorf("shards %d: goodput points for iterations %v, want the first job's [1 2 3]", shards, iters)
		}
	}
}
