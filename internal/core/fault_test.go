package core

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"flowpulse/internal/fault"
	"flowpulse/internal/sim"
	"flowpulse/internal/trace"
)

// TestBuildRejectsBadFaults: a fault schedule is user input (CLI flags,
// -spec JSON), so everything that used to reach a panic — or be silently
// never injected — comes back from Build as an error.
func TestBuildRejectsBadFaults(t *testing.T) {
	drop := FaultSpec{Kind: FaultBernoulli, Leaf: 1, Spine: 1, Rate: 0.05, Onset: 2}
	with := func(edit func(*FaultSpec)) FaultSpec {
		f := drop
		edit(&f)
		return f
	}
	clos := clos3Scenario(1)
	for _, tc := range []struct {
		name string
		sc   Scenario
		f    FaultSpec
		want string // "" = accepted
	}{
		{"valid", small(1), drop, ""},
		{"valid onset at the last iteration", small(1), with(func(f *FaultSpec) { f.Onset = 5 }), ""},
		{"valid heal", small(1), with(func(f *FaultSpec) { f.Heal = 5 }), ""},
		{"leaf outside topology", small(1), with(func(f *FaultSpec) { f.Leaf = 99 }), "leaf 99 outside topology"},
		{"negative spine", small(1), with(func(f *FaultSpec) { f.Spine = -1 }), "spine -1 outside topology"},
		{"trunk outside topology", small(1), with(func(f *FaultSpec) { f.Trunk = 1 }), "trunk 1 outside topology"},
		{"rate above one", small(1), with(func(f *FaultSpec) { f.Rate = 1.5 }), "rate 1.5 outside [0,1]"},
		{"negative rate", small(1), with(func(f *FaultSpec) { f.Rate = -0.1 }), "outside [0,1]"},
		{"onset beyond training", small(1), with(func(f *FaultSpec) { f.Onset = 9 }), "onset after iteration 9, but training runs 5"},
		{"heal beyond training", small(1), with(func(f *FaultSpec) { f.Heal = 6 }), "heal after iteration 6"},
		{"heal at onset", small(1), with(func(f *FaultSpec) { f.Heal = 2 }), "heal after iteration 2"},
		{"unknown kind", small(1), with(func(f *FaultSpec) { f.Kind = "gremlin" }), "unknown kind"},
		{"none is not an entry", small(1), with(func(f *FaultSpec) { f.Kind = "none" }), "unknown kind"},
		{"model without a model", small(1), with(func(f *FaultSpec) { f.Kind = FaultModel }), "no Model"},
		{"flap down longer than its period", small(1),
			FaultSpec{Kind: FaultFlap, Rate: 0.3, FlapPeriod: 10 * sim.Microsecond, FlapDown: 20 * sim.Microsecond},
			"down phase 20us outside [0, period 10us]"},
		{"flap without a period", small(1), FaultSpec{Kind: FaultFlap, Rate: 0.3}, "outside [0, period"},
		{"bursty loss above the bad state's", small(1),
			FaultSpec{Kind: FaultGE, Rate: 0.5, GEPBG: 0.1, GELossBad: 0.4}, "no good→bad probability"},
		{"onset counts the first job's iterations", func() Scenario {
			sc := twoJobs(1)
			sc.Jobs[0].Iterations, sc.Jobs[1].Iterations = 3, 8
			return sc
		}(), with(func(f *FaultSpec) { f.Onset = 4 }), "training runs 3"},
		{"valid pod-local link", clos, FaultSpec{Kind: FaultBernoulli, Pod: 3, LeafInPod: 3, SpineInPod: 1, Rate: 0.05}, ""},
		{"pod outside topology", clos, FaultSpec{Kind: FaultBernoulli, Pod: 4, Rate: 0.05}, "outside topology"},
		{"core outside its group", clos, FaultSpec{Kind: FaultBernoulli, CoreSpine: true, CoreIx: 4, Rate: 0.05}, "core 4 outside topology"},
		{"valid fabric-wide link on three levels", clos, FaultSpec{Kind: FaultBernoulli, Leaf: 5, Spine: 2, Rate: 0.05}, ""},
		{"fabric-wide leaf outside topology", clos, FaultSpec{Kind: FaultBernoulli, Leaf: 16, Spine: 2, Rate: 0.05}, "leaf 16 outside topology"},
		{"leaf and spine of different pods", clos, FaultSpec{Kind: FaultBernoulli, Leaf: 5, Spine: 0, Rate: 0.05}, "its ends share 0 links"},
		{"link named both ways", clos, FaultSpec{Kind: FaultBernoulli, Leaf: 5, Spine: 2, Pod: 1, Rate: 0.05}, "name it one way"},
		{"core link named both ways", clos, FaultSpec{Kind: FaultBernoulli, CoreSpine: true, Spine: 2, Rate: 0.05}, "name it one way"},
		{"pod-local ordinals on two levels", small(1), FaultSpec{Kind: FaultBernoulli, Pod: 1, Rate: 0.05}, "two-level fabric"},
		{"core link on two levels", small(1), FaultSpec{Kind: FaultBernoulli, CoreSpine: true, Rate: 0.05}, "two-level fabric"},
	} {
		tc.sc.Faults = []FaultSpec{tc.f}
		rt, err := tc.sc.Build()
		if err == nil {
			rt.Close()
		}
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: Build rejected it: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: Build error = %v, want one containing %q", tc.name, err, tc.want)
		}
	}
	// A link carries one scheduled fault at a time: a heal clears the whole
	// link, and would take a second entry live there with it.
	up := with(func(f *FaultSpec) { f.Upstream = true })
	for _, tc := range []struct {
		name   string
		a, b   FaultSpec
		reject bool
	}{
		{"one after the other's heal", with(func(f *FaultSpec) { f.Onset, f.Heal = 1, 2 }), with(func(f *FaultSpec) { f.Onset = 3 }), false},
		{"different links", drop, with(func(f *FaultSpec) { f.Leaf = 2 }), false},
		{"both directions at once", drop, up, true},
		{"second armed before the first heals", with(func(f *FaultSpec) { f.Heal = 4 }), with(func(f *FaultSpec) { f.Upstream, f.Onset = true, 3 }), true},
		{"second armed as the first heals", with(func(f *FaultSpec) { f.Heal = 4 }), with(func(f *FaultSpec) { f.Onset = 4 }), true},
		{"first healed under a later one", with(func(f *FaultSpec) { f.Onset = 3 }), with(func(f *FaultSpec) { f.Onset, f.Heal = 1, 5 }), true},
	} {
		sc := small(1)
		sc.Faults = []FaultSpec{tc.a, tc.b}
		rt, err := sc.Build()
		if err == nil {
			rt.Close()
		}
		if rejected := err != nil && strings.Contains(err.Error(), "one scheduled fault at a time"); rejected != tc.reject {
			t.Errorf("%s: Build error = %v, want rejected=%v", tc.name, err, tc.reject)
		}
	}

	// The imperative injector shares the checks (it returns them; the
	// facade's wrappers panic, as they always have).
	rt, err := small(1).Build()
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if _, err := rt.Inject(FaultSpec{Kind: FaultBernoulli, Leaf: 99, Rate: 0.1}); err == nil {
		t.Error("Inject accepted a link outside the topology")
	}
	if err := rt.Heal(FaultSpec{Spine: 99}); err == nil {
		t.Error("Heal accepted a link outside the topology")
	}
}

// TestFaultLinkForms: on a three-level fabric a spine→leaf link has two
// names — LeafSpineLink's fabric-wide ordinals (what the facade's
// BreakLink passes) and pod-local ones — and both reach the same link,
// each on the RNG stream it always had; Heal finds it by either name.
func TestFaultLinkForms(t *testing.T) {
	wide := FaultSpec{Kind: FaultBernoulli, Leaf: 5, Spine: 2, Rate: 0.05}
	local := FaultSpec{Kind: FaultBernoulli, Pod: 1, LeafInPod: 1, SpineInPod: 0, Rate: 0.05}
	for _, tc := range []struct {
		f, heal      FaultSpec
		stream, name string
	}{
		{wide, local, "silent", "5.00% drop on leaf 5 / spine 2, downstream (spine->leaf), after iteration 0"},
		{local, wide, "c3sl", "5.00% drop on pod 1 leaf 1 / spine 0, downstream (spine->leaf), after iteration 0"},
	} {
		rt, err := clos3Scenario(1).Build()
		if err != nil {
			t.Fatal(err)
		}
		want := rt.Link(LeafSpineLink{LeafOrd: 5, SpineOrd: 2})
		s, err := tc.f.site(rt.Topo)
		if err != nil || s.link != want || s.stream != tc.stream {
			t.Errorf("%s: site = %+v, %v; want link %d on stream %q", tc.f, s, err, want, tc.stream)
		}
		if got := tc.f.String(); got != tc.name {
			t.Errorf("String() = %q, want %q", got, tc.name)
		}
		// The all-zero link is the one link both forms give the same name.
		first := rt.Topo.TrunkLinks(rt.Topo.Leaves()[0], rt.Topo.Spines()[0])[0]
		if s, err := (FaultSpec{}).site(rt.Topo); err != nil || s.link != first {
			t.Errorf("the zero spec's site = %+v, %v; want link %d", s, err, first)
		}
		var atHeal uint64
		err = rt.Train(func(_ sim.Time, _ uint16, iter uint32) {
			switch iter {
			case 2:
				if link, err := rt.Inject(tc.f); err != nil || link != want {
					t.Errorf("%s: Inject = link %d, %v; want link %d", tc.f, link, err, want)
				}
			case 4:
				if err := rt.Heal(tc.heal); err != nil {
					t.Error(err)
				}
				atHeal = rt.Net.Stats().FaultDropped
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if end := rt.Net.Stats().FaultDropped; atHeal == 0 || end != atHeal {
			t.Errorf("%s: %d packets dropped by the heal, %d by the end; want some, then no more", tc.f, atHeal, end)
		}
	}
}

// TestEveryFaultKindLeavesGroundTruth: whatever the kind, a traced run's
// recording carries the schedule — inject and heal — so an offline sweep
// labels exactly the iterations the fault was live for.
func TestEveryFaultKindLeavesGroundTruth(t *testing.T) {
	const iters = 6
	at := FaultSpec{Leaf: 2, Spine: 1, Onset: 2}
	kind := func(k FaultKind, edit func(*FaultSpec)) FaultSpec {
		f := at
		f.Kind = k
		if edit != nil {
			edit(&f)
		}
		return f
	}
	for _, f := range []FaultSpec{
		kind(FaultBernoulli, func(f *FaultSpec) { f.Rate = 0.05 }),
		kind(FaultBernoulli, func(f *FaultSpec) { f.Rate, f.Upstream, f.Heal = 0.05, true, 4 }),
		kind(FaultBlackHole, func(f *FaultSpec) { f.Onset = 0 }),
		kind(FaultGE, func(f *FaultSpec) { f.Rate, f.GEPBG, f.GELossBad = 0.05, 0.1, 0.5 }),
		kind(FaultFlap, func(f *FaultSpec) {
			f.Rate, f.FlapPeriod, f.FlapDown, f.Heal = 0.3, 40*sim.Microsecond, 20*sim.Microsecond, 5
		}),
		kind(FaultModel, func(f *FaultSpec) { f.Model = fault.NewBitError(1e-6, sim.NewRNG(1, "ber")) }),
	} {
		for _, shards := range []int{0, 2} {
			sc := Scenario{Leaves: 4, Spines: 2, BytesPerRank: 1 << 20, Iterations: iters, Seed: 21, Shards: shards, Faults: []FaultSpec{f}}
			rt, err := sc.Build()
			if err != nil {
				t.Fatalf("%s: %v", f, err)
			}
			var buf bytes.Buffer
			if _, err := rt.Attach(AttachOptions{Trace: trace.NewWriter(&buf)}); err != nil {
				t.Fatal(err)
			}
			if err := rt.Train(nil); err != nil {
				t.Fatal(err)
			}
			rr, err := trace.Replay(bytes.NewReader(buf.Bytes()), trace.ReplayOptions{})
			if err != nil {
				t.Fatal(err)
			}
			want := []trace.FaultRecord{{
				Kind: string(f.Kind), LeafOrd: f.Leaf, SpineOrd: f.Spine, Upstream: f.Upstream, Rate: f.Rate,
				OnsetIter: uint32(f.Onset), FlapPeriod: f.FlapPeriod, FlapDown: f.FlapDown,
			}}
			if f.Heal > 0 {
				healed := want[0]
				healed.OnsetIter, healed.Clear = uint32(f.Heal), true
				want = append(want, healed)
			}
			var got []trace.FaultRecord
			for _, r := range rr.Faults {
				r := *r
				r.At = 0
				got = append(got, r)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s shards=%d: recorded schedule\n  %+v\nwant\n  %+v", f, shards, got, want)
			}
			for i, s := range rr.Samples() {
				iter := i + 1
				if live := iter > f.Onset && (f.Heal == 0 || iter <= f.Heal); s.Positive != live {
					t.Errorf("%s shards=%d: iteration %d labeled faulty=%v, want %v", f, shards, iter, s.Positive, live)
				}
			}
			if rt.Net.Stats().FaultDropped == 0 {
				t.Errorf("%s shards=%d: the fault dropped nothing", f, shards)
			}
		}
	}
}

// TestInjectBeforeAttachIsRecorded: the facade lets a caller break a link
// before deploying the monitor; the recording still opens with it.
func TestInjectBeforeAttachIsRecorded(t *testing.T) {
	rt, err := small(22).Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Inject(FaultSpec{Kind: FaultBernoulli, Leaf: 3, Spine: 1, Rate: 0.05}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := rt.Attach(AttachOptions{Trace: trace.NewWriter(&buf)}); err != nil {
		t.Fatal(err)
	}
	if err := rt.Train(nil); err != nil {
		t.Fatal(err)
	}
	rr, err := trace.Replay(bytes.NewReader(buf.Bytes()), trace.ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rr.Faults) != 1 || rr.Faults[0].LeafOrd != 3 || rr.Faults[0].OnsetIter != 0 {
		t.Fatalf("recorded faults %+v, want the pre-attach injection at iteration 0", rr.Faults)
	}
}

// TestReferenceRunIsFaultFree: the simulation model's reference predicts
// the healthy fabric, so the scenario's fault schedule stays out of it —
// its windows are the windows of the same scenario with no schedule.
func TestReferenceRunIsFaultFree(t *testing.T) {
	clean := small(23)
	faulty := faulted(clean, LeafSpineLink{LeafOrd: 2, SpineOrd: 3}, 0.2, 0)
	want, err := referenceRun(clean, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := referenceRun(faulty, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("reference run of a scenario with Faults differs from the fault-free one (%d vs %d windows)", len(got), len(want))
	}
	// And the schedule does bite when it is not stripped.
	rt, err := faulty.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Train(nil); err != nil {
		t.Fatal(err)
	}
	if rt.Net.Stats().FaultDropped == 0 {
		t.Fatal("the 20% fault dropped nothing in the monitored run")
	}
}
