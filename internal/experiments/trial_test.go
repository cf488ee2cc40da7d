package experiments

import (
	"strings"
	"testing"
	"time"

	"flowpulse/internal/core"
	"flowpulse/internal/fault"
	"flowpulse/internal/sim"
)

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
