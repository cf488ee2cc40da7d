package simtest

import (
	"strings"
	"testing"

	"flowpulse/internal/core"
	"flowpulse/internal/detect"
)

// TestGenerateDeterministic: the seed→spec map is a pure function, and
// every generated spec is already normalized (normalize is idempotent
// on Generate's output — the property ReproCommand's seed-vs-spec
// decision rests on).
func TestGenerateDeterministic(t *testing.T) {
	for seed := uint64(0); seed < 500; seed++ {
		a, b := Generate(seed), Generate(seed)
		if a != b {
			t.Fatalf("seed %d: Generate is not deterministic:\n%s\n%s", seed, a.MarshalCompact(), b.MarshalCompact())
		}
		norm := a
		norm.normalize()
		if norm != a {
			t.Fatalf("seed %d: Generate output not normalized:\n%s\n%s", seed, a.MarshalCompact(), norm.MarshalCompact())
		}
	}
}

// TestSpecJSONRoundTrip: the compact encoding is lossless — a shrunk
// repro pasted back into -spec reruns the exact same scenario.
func TestSpecJSONRoundTrip(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		spec := Generate(seed)
		back, err := ParseSpec(spec.MarshalCompact())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if back != spec {
			t.Fatalf("seed %d: round trip changed the spec:\n%s\n%s", seed, spec.MarshalCompact(), back.MarshalCompact())
		}
	}
}

// TestReproFormatUnchanged: Spec.Fault is core's FaultSpec now, under the
// JSON keys the repro format has always had — these are seeds' repros as
// the release before the type moved printed them, flap timing, pod-local
// link and burst shape included, so an old -spec line still reruns.
func TestReproFormatUnchanged(t *testing.T) {
	for seed, old := range map[uint64]string{
		1: `{"seed":1,"topo":{"kind":"fat-tree","leaves":5,"spines":4,"hostsPerLeaf":2,"trunk":1},"work":{"collective":"ring-allreduce","bytesPerRank":2097152,"iterations":7,"predictor":"analytical"},"fault":{"kind":"flap","onset":1,"rate":0.5223901184256299,"leaf":2,"spine":2,"flapPeriodPS":251658240,"flapDownPS":167772160,"flapPhasePS":218078999},"congest":{},"diverge":{"stale":[{},{}]}}`,
		7: `{"seed":7,"topo":{"kind":"clos3","pods":3,"leavesPerPod":3,"spinesPerPod":2,"coresPerGroup":2},"work":{"collective":"ring-allreduce","bytesPerRank":2097152,"iterations":12,"predictor":"learned"},"fault":{"kind":"bernoulli","onset":4,"rate":0.10260377254291142,"coreSpine":true,"pod":2,"leafInPod":1,"coreIx":1},"congest":{},"diverge":{"stale":[{},{}]}}`,
		9: `{"seed":9,"topo":{"kind":"fat-tree","leaves":5,"spines":2,"hostsPerLeaf":1,"trunk":1},"work":{"collective":"ring-allreduce","bytesPerRank":2097152,"iterations":10,"predictor":"analytical"},"fault":{"kind":"gilbert-elliott","onset":1,"rate":0.08828306594742283,"leaf":2,"spine":1,"gePBG":0.1736165614397276,"geLossBad":0.5840829919203699},"congest":{},"diverge":{"stale":[{},{}]}}`,
	} {
		if got := Generate(seed).MarshalCompact(); got != old {
			t.Errorf("seed %d repro changed:\n got %s\nwant %s", seed, got, old)
		}
		if back, err := ParseSpec(old); err != nil || back != Generate(seed) {
			t.Errorf("seed %d: old repro parses to %+v (err %v)", seed, back, err)
		}
	}
}

// TestGenerateEnvelope: generated fault schedules respect the
// constraints the oracles rely on.
func TestGenerateEnvelope(t *testing.T) {
	for seed := uint64(0); seed < 500; seed++ {
		spec := Generate(seed)
		thr := spec.DetectThreshold()
		f := spec.Fault
		switch f.Kind {
		case faultNone:
			if f != (core.FaultSpec{Kind: faultNone}) {
				t.Fatalf("seed %d: fault-free spec carries fault fields: %s", seed, spec.MarshalCompact())
			}
		case core.FaultBernoulli, core.FaultFlap:
			if f.Rate < 3*thr && f.Rate < 0.6 {
				t.Fatalf("seed %d: %s rate %.4f below 3×threshold %.4f", seed, f.Kind, f.Rate, thr)
			}
		case core.FaultGE:
			if f.Rate < 4*thr && f.Rate < 0.45 {
				t.Fatalf("seed %d: GE rate %.4f below 4×threshold %.4f", seed, f.Rate, thr)
			}
			if f.Rate >= 0.8*f.GELossBad {
				t.Fatalf("seed %d: GE steady-state %.4f too close to in-burst loss %.4f", seed, f.Rate, f.GELossBad)
			}
		}
		if f.Kind != faultNone {
			if f.Onset > spec.Work.Iterations-4 {
				t.Fatalf("seed %d: onset %d leaves no deadline room in %d iterations", seed, f.Onset, spec.Work.Iterations)
			}
			if spec.Work.Predictor == core.LearnedModel && f.Onset < 4 {
				t.Fatalf("seed %d: onset %d inside the learned model's warm-up", seed, f.Onset)
			}
		}
		if f.Upstream && spec.Work.Collective != core.AllToAllKind {
			t.Fatalf("seed %d: upstream fault outside all-to-all: %s", seed, spec.MarshalCompact())
		}
		if spec.Work.Jobs != 0 {
			// The shared-plane envelope normalize() promises the runner.
			if spec.Work.Jobs != 2 || spec.Topo.Kind != FatTree2 ||
				spec.Topo.HostsPerLeaf != 2 ||
				spec.Work.Collective != core.RingAllReduce ||
				spec.Work.Predictor != core.AnalyticalModel ||
				spec.Work.Remediate {
				t.Fatalf("seed %d: 2-job spec outside the shared-plane envelope: %s", seed, spec.MarshalCompact())
			}
			if f.Kind != faultNone && (f.Kind != core.FaultBernoulli || f.Upstream) {
				t.Fatalf("seed %d: 2-job spec with fault %s (upstream=%v): %s", seed, f.Kind, f.Upstream, spec.MarshalCompact())
			}
		}
		if spec.Work.Resilience {
			// The resilience envelope normalize() promises the runner.
			if !spec.Work.Remediate || spec.Topo.Kind != FatTree2 ||
				spec.Topo.Spines != 2 || spec.Topo.HostsPerLeaf != 4 ||
				spec.Topo.Trunk != 1 || spec.Work.BytesPerRank != 2<<20 {
				t.Fatalf("seed %d: resilience spec outside its envelope: %s", seed, spec.MarshalCompact())
			}
			if f.Kind != faultNone && (f.Kind != core.FaultBernoulli || f.Upstream || f.Onset < 2) {
				t.Fatalf("seed %d: resilience spec with fault %s (upstream=%v, onset=%d): %s",
					seed, f.Kind, f.Upstream, f.Onset, spec.MarshalCompact())
			}
		}
	}
}

// TestRunSmoke fuzzes a handful of seeds end to end — every oracle
// must hold on an unmodified pipeline.
func TestRunSmoke(t *testing.T) {
	n := uint64(12)
	if testing.Short() {
		n = 4
	}
	for seed := uint64(0); seed < n; seed++ {
		res := Run(Generate(seed), Options{})
		if !res.OK() {
			t.Errorf("seed %d: %v", seed, res.Violations)
		}
	}
}

// TestSharedPlaneSeedsRun drives the 2-job specs through the full
// oracle set: both jobs' pipelines on one shared tap must stay clean
// before onset, flag the faulted leaf within the deadline, and replay
// bit-identically.
func TestSharedPlaneSeedsRun(t *testing.T) {
	want := 3
	if testing.Short() {
		want = 1
	}
	ran := 0
	for seed := uint64(0); seed < 300 && ran < want; seed++ {
		spec := Generate(seed)
		if spec.Work.Jobs != 2 || spec.Fault.Kind == faultNone {
			continue
		}
		if res := Run(spec, Options{}); !res.OK() {
			t.Errorf("seed %d: %v", seed, res.Violations)
		}
		ran++
	}
	if ran == 0 {
		t.Fatal("no faulted 2-job spec in 300 seeds — generation broken")
	}
}

// TestResilienceSeedsRun drives faulted resilience specs through the
// full oracle set: the quarantine must trigger a ring re-plan and the
// goodput timeline must show a sustained recovery to ≥90% of the
// pre-fault baseline (oracle 5), on top of every fabric-level oracle.
func TestResilienceSeedsRun(t *testing.T) {
	want := 3
	if testing.Short() {
		want = 1
	}
	ran := 0
	for seed := uint64(0); seed < 400 && ran < want; seed++ {
		spec := Generate(seed)
		if !spec.Work.Resilience || spec.Fault.Kind == faultNone {
			continue
		}
		if res := Run(spec, Options{}); !res.OK() {
			t.Errorf("seed %d: %v", seed, res.Violations)
		}
		ran++
	}
	if ran == 0 {
		t.Fatal("no faulted resilience spec in 400 seeds — generation broken")
	}
}

// TestWithResilienceForcesEnvelope: the -resilience sweep helper turns
// remediated seeds into normalized resilience specs and leaves the
// rest untouched.
func TestWithResilienceForcesEnvelope(t *testing.T) {
	forced, plain := 0, 0
	for seed := uint64(0); seed < 200; seed++ {
		spec := Generate(seed)
		got := WithResilience(spec)
		if !spec.Work.Remediate {
			plain++
			if got != spec {
				t.Fatalf("seed %d: WithResilience changed an unremediated spec", seed)
			}
			continue
		}
		forced++
		if !got.Work.Resilience {
			t.Fatalf("seed %d: WithResilience left a remediated spec un-replanned", seed)
		}
		norm := got
		norm.normalize()
		if norm != got {
			t.Fatalf("seed %d: WithResilience returned a non-normalized spec: %s", seed, got.MarshalCompact())
		}
	}
	if forced == 0 || plain == 0 {
		t.Fatalf("degenerate sample: %d forced, %d plain", forced, plain)
	}
}

// TestInjectedDetectorBugCaught is the self-test the fuzzer's value
// rests on: plant a detector bug — the threshold misconfigured 10×
// coarse — and the oracles must notice on some seed, and shrinking
// must still hand back a failing spec with a usable repro command.
func TestInjectedDetectorBugCaught(t *testing.T) {
	opts := Options{MutateDetect: func(c *detect.Config) {
		if c.Threshold == 0 {
			c.Threshold = 0.01
		}
		c.Threshold *= 10
	}}
	var failed *Result
	for seed := uint64(0); seed < 40 && failed == nil; seed++ {
		spec := Generate(seed)
		// A 10× threshold cannot mask a blackhole (the deficit is
		// −100%), so hunt on the rate-bounded fault kinds.
		switch spec.Fault.Kind {
		case core.FaultBernoulli, core.FaultGE:
		default:
			continue
		}
		if res := Run(spec, opts); !res.OK() {
			failed = res
		}
	}
	if failed == nil {
		t.Fatal("a 10× detection threshold was not caught by any oracle in 40 seeds")
	}
	joined := strings.Join(failed.Violations, "\n")
	if !strings.Contains(joined, "detection:") && !strings.Contains(joined, "remediation:") {
		t.Fatalf("expected a detection/remediation violation, got:\n%s", joined)
	}

	shrunk, runs := Shrink(failed.Spec, opts, 0)
	if runs == 0 {
		t.Fatal("shrink spent no runs")
	}
	if res := Run(shrunk, opts); res.OK() {
		t.Fatalf("shrunk spec no longer fails: %s", shrunk.MarshalCompact())
	}
	if cmd := shrunk.ReproCommand(); !strings.Contains(cmd, "flowpulse-check") {
		t.Fatalf("unusable repro command %q", cmd)
	}
	t.Logf("bug caught on seed %d, shrunk in %d runs: %s", failed.Spec.Seed, runs, shrunk.ReproCommand())
}

// TestReplayFingerprintStable: Run executes every spec twice and
// compares fingerprints internally; this additionally pins that two
// separate Run calls agree (no cross-call state).
func TestReplayFingerprintStable(t *testing.T) {
	spec := Generate(3)
	a, b := Run(spec, Options{}), Run(spec, Options{})
	if a.Fingerprint != b.Fingerprint {
		t.Fatalf("fingerprints differ across Run calls: %016x != %016x", a.Fingerprint, b.Fingerprint)
	}
	if a.Fingerprint == 0 {
		t.Fatal("fingerprint is zero — nothing was hashed")
	}
}

// TestShrinkBudgetAndNormalization: under a detector broken badly
// enough that faulted specs keep failing (99% threshold), the shrinker
// must respect its run budget and return a normalized spec.
func TestShrinkBudgetAndNormalization(t *testing.T) {
	opts := Options{MutateDetect: func(c *detect.Config) { c.Threshold = 0.99 }}
	var failing Spec
	found := false
	for seed := uint64(0); seed < 40 && !found; seed++ {
		spec := Generate(seed)
		if spec.Fault.Kind != core.FaultBernoulli {
			continue
		}
		if res := Run(spec, opts); !res.OK() {
			failing, found = spec, true
		}
	}
	if !found {
		t.Skip("no bernoulli seed failed under a 99% threshold")
	}
	shrunk, runs := Shrink(failing, opts, 10)
	if runs > 10 {
		t.Fatalf("shrink overspent its budget: %d runs", runs)
	}
	norm := shrunk
	norm.normalize()
	if norm != shrunk {
		t.Fatalf("shrink returned a non-normalized spec: %s", shrunk.MarshalCompact())
	}
}
