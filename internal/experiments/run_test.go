package experiments

import (
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"flowpulse/internal/core"
	"flowpulse/internal/fault"
	"flowpulse/internal/remediate"
	"flowpulse/internal/resilience"
	"flowpulse/internal/sim"
)

// smallRun is a 4×2, two-iteration scenario: enough to drive the runner.
func smallRun(shards int) runSpec {
	return runSpec{scenario: core.Scenario{Leaves: 4, Spines: 2, BytesPerRank: 1 << 20, Iterations: 2, Seed: 1, Shards: shards}}
}

// TestSimulateReleasesShardWorkers: the runner closes its runtime on
// every path, so a sharded scenario's worker pool is gone when simulate
// returns — after a finished run and after an Attach the monitor
// rejects. Workers exit asynchronously once their start channel closes,
// so the count is polled back down to where it started.
func TestSimulateReleasesShardWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	if _, err := simulate(smallRun(2)); err != nil {
		t.Fatal(err)
	}
	rejected := smallRun(2)
	rejected.attach.Resilience = &resilience.Config{} // needs remediate: Attach refuses
	if _, err := simulate(rejected); err == nil {
		t.Fatal("Attach accepted resilience without remediation")
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the runs, %d before them: shard workers leaked", runtime.NumGoroutine(), before)
		}
	}
}

// TestSimulateBindsWorkloadAndTimesIterations: every run binds its
// jobs to the resilience loop (a no-op without one) and hands back the
// first job's iteration end times.
func TestSimulateBindsWorkloadAndTimesIterations(t *testing.T) {
	spec := smallRun(0)
	spec.attach.Remediate, spec.attach.Resilience = &remediate.Config{}, &resilience.Config{}
	r, err := simulate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if r.sys.Jobs()[0].Replanner == nil {
		t.Fatal("the job was not bound to the resilience loop")
	}
	if len(r.iterEnd) != 3 || r.iterEnd[1] <= r.iterEnd[0] || r.iterEnd[2] <= r.iterEnd[1] {
		t.Fatalf("iteration end times %v, want two increasing instants", r.iterEnd)
	}
}

// TestSimulateReportsTraceWriteError: a recording that cannot be
// written fails the run instead of leaving a truncated trace behind a
// nil error. /dev/full accepts the open and fails every write.
func TestSimulateReportsTraceWriteError(t *testing.T) {
	if f, err := os.OpenFile("/dev/full", os.O_WRONLY, 0); err != nil {
		t.Skip("no /dev/full here")
	} else {
		f.Close()
	}
	spec := smallRun(0)
	spec.attach.TracePath = "/dev/full"
	if _, err := simulate(spec); err == nil {
		t.Fatal("run recorded to a full device without an error")
	}
}

// TestTrialReportsFaultLink: the result names the faulted link by the
// id its own runtime resolved (Fig4 scores verdicts against it), which
// is the id any build of the same scenario resolves.
func TestTrialReportsFaultLink(t *testing.T) {
	sc := core.Scenario{Leaves: 4, Spines: 2, BytesPerRank: 1 << 20, Iterations: 1, Seed: 3}
	ref := core.LeafSpineLink{LeafOrd: 2, SpineOrd: 1}
	faulty := sc
	faulty.Faults = []core.FaultSpec{{Kind: core.FaultBernoulli, Leaf: 2, Spine: 1, Rate: 0.05}}
	out, err := Trial{Scenario: faulty}.Run()
	if err != nil {
		t.Fatal(err)
	}
	rt, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	if want := rt.Link(ref); out.FaultLink != want {
		t.Fatalf("FaultLink = %d, want %d", out.FaultLink, want)
	}
	if out.Fabric.FaultDropped == 0 {
		t.Fatal("fabric stats missing from the result: a 5% drop dropped nothing")
	}
}

// TestTrialCallerInjection: a caller-built fault model replaces the
// Bernoulli drop at the same point of the run and labels the same
// iterations faulty.
func TestTrialCallerInjection(t *testing.T) {
	out, err := Trial{
		Scenario: core.Scenario{Leaves: 4, Spines: 2, BytesPerRank: 1 << 20, Iterations: 3, Seed: 3,
			Faults: []core.FaultSpec{{
				Kind: core.FaultModel, Leaf: 2, Spine: 1, Onset: 1,
				Model: fault.NewBernoulliDrop(0.2, sim.NewRNG(3, "caller")),
			}},
		},
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Fabric.FaultDropped == 0 {
		t.Fatal("the caller's model dropped nothing")
	}
	if out.Samples[0].Positive || !out.Samples[1].Positive || !out.Samples[2].Positive {
		t.Fatalf("labels %+v, want clean then two faulty", out.Samples)
	}
	if out.FirstDetection != 2 {
		t.Fatalf("first detection at iteration %d, want 2", out.FirstDetection)
	}
}

// TestPreExistingRejectsImpossibleCount: asking for more disconnected
// links than the fabric can lose (each leaf keeps two uplinks, so a
// two-spine fabric can lose none) is an error, not an endless search.
func TestPreExistingRejectsImpossibleCount(t *testing.T) {
	done := make(chan error, 1)
	go func() {
		_, err := PreExisting(PreExistingConfig{Grid: Grid{Leaves: 4, Spines: 2}, Counts: []int{1}})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "at most 0 links") {
			t.Fatalf("err = %v, want the fabric's limit", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("PreExisting is still looking for a link a 4x2 fabric cannot lose")
	}
}
