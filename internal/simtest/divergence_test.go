package simtest

import (
	"testing"

	"flowpulse/internal/sim"
)

// TestWithDivergenceEnvelope: the -divergence sweep helper turns
// remediated single-job fat-tree seeds into normalized divergence
// specs inside the envelope the convergence oracles rest on, and
// leaves every other seed untouched.
func TestWithDivergenceEnvelope(t *testing.T) {
	forced, plain := 0, 0
	for seed := uint64(0); seed < 300; seed++ {
		spec := Generate(seed)
		got := WithDivergence(spec)
		if !spec.Remediate || spec.Scenario.Pods != 0 || len(spec.Scenario.Jobs) != 0 {
			plain++
			if got.MarshalCompact() != spec.MarshalCompact() {
				t.Fatalf("seed %d: WithDivergence changed a spec outside the envelope", seed)
			}
			continue
		}
		forced++
		d := got.Scenario.Divergence
		if !d.Enabled() {
			t.Fatalf("seed %d: WithDivergence left a remediated spec without divergence: %s", seed, got.MarshalCompact())
		}
		norm := got.clone()
		norm.normalize()
		if norm.MarshalCompact() != got.MarshalCompact() {
			t.Fatalf("seed %d: WithDivergence returned a non-normalized spec: %s", seed, got.MarshalCompact())
		}
		if got.Resilience || congested(&got.Scenario.Congestion) || got.CEDiscount != 0 {
			t.Fatalf("seed %d: divergence spec kept the resilience/congestion twists: %s", seed, got.MarshalCompact())
		}
		if got.Scenario.Iterations < 8 {
			t.Fatalf("seed %d: divergence spec too short (%d iterations)", seed, got.Scenario.Iterations)
		}
		if d.FailPushes < 1 || d.FailPushes > 2 {
			t.Fatalf("seed %d: FailPushes %d outside the retry budget", seed, d.FailPushes)
		}
		est := estIterTime(&got)
		if d.AuditEvery < est || d.AuditEvery > 3*est {
			t.Fatalf("seed %d: AuditEvery %d outside [est, 3·est] (est %d)", seed, d.AuditEvery, est)
		}
		if len(d.Stale) == 0 || len(d.Stale) > 2 {
			t.Fatalf("seed %d: %d stale flips, want 1 or 2", seed, len(d.Stale))
		}
		sc := got.Scenario
		for i, st := range d.Stale {
			// The last flip must leave ≥4 iterations of headroom so the
			// audit provably runs after it (real iterations are never
			// shorter than the estimate).
			if st.At < sim.Time(est) || st.At > sim.Time(sc.Iterations-4)*sim.Time(est) {
				t.Fatalf("seed %d: stale flip %d at %dps outside [est, (iters-4)·est]", seed, i, st.At)
			}
			if st.Up {
				t.Fatalf("seed %d: stale flip %d advertises up", seed, i)
			}
			if l := st.Link; l.LeafOrd >= sc.Leaves || l.SpineOrd >= sc.Spines || l.Trunk >= sc.Trunk {
				t.Fatalf("seed %d: stale flip %d names a link outside the fabric: %+v", seed, i, st)
			}
		}
	}
	if forced == 0 || plain == 0 {
		t.Fatalf("degenerate sample: %d forced, %d plain", forced, plain)
	}
}

// TestDivergenceSpecJSONRoundTrip: divergence fields survive the
// compact repro encoding — a shrunk -divergence failure pasted back
// into -spec reruns the identical scenario.
func TestDivergenceSpecJSONRoundTrip(t *testing.T) {
	ran := 0
	for seed := uint64(0); seed < 200; seed++ {
		spec := WithDivergence(Generate(seed))
		if !spec.Scenario.Divergence.Enabled() {
			continue
		}
		ran++
		back, err := ParseSpec(spec.MarshalCompact())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if back.MarshalCompact() != spec.MarshalCompact() {
			t.Fatalf("seed %d: round trip changed the spec:\n%s\n%s", seed, spec.MarshalCompact(), back.MarshalCompact())
		}
	}
	if ran == 0 {
		t.Fatal("no divergence spec in 200 seeds — WithDivergence broken")
	}
}

// TestNormalizeClearsDivergenceOutsideEnvelope: divergence cannot
// escape its envelope — hand-written specs (or shrink candidates) that
// drop remediation, add a second job, or switch topologies lose the
// DivergenceSpec entirely rather than running injections no oracle
// covers.
func TestNormalizeClearsDivergenceOutsideEnvelope(t *testing.T) {
	var base Spec
	for seed := uint64(0); seed < 300; seed++ {
		base = WithDivergence(Generate(seed))
		if base.Scenario.Divergence.Enabled() {
			break
		}
	}
	if !base.Scenario.Divergence.Enabled() {
		t.Fatal("no divergence spec in 300 seeds — WithDivergence broken")
	}
	cases := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"unremediated", func(s *Spec) { s.Remediate = false }},
		{"two-job", func(s *Spec) { s.Scenario.Jobs = twoJobs() }},
		{"clos3", func(s *Spec) { s.Scenario.Pods = 2 }},
	}
	for _, tc := range cases {
		spec := base.clone()
		tc.mutate(&spec)
		spec.normalize()
		if d := spec.Scenario.Divergence; d.FailSkip != 0 || d.FailPushes != 0 || d.Stale != nil || d.AuditEvery != 0 {
			t.Errorf("%s: normalize kept divergence outside the envelope: %+v", tc.name, d)
		}
	}
	// Inside the envelope the stale schedule is clamped, not cleared.
	spec := base.clone()
	spec.Scenario.Divergence.Stale[0].At = 1 // far below est
	spec.normalize()
	if est := sim.Time(estIterTime(&spec)); spec.Scenario.Divergence.Stale[0].At < est {
		t.Errorf("normalize left a stale flip before the first iteration: %d < %d", spec.Scenario.Divergence.Stale[0].At, est)
	}
}

// TestDivergenceSeedsRun drives divergence specs through the full
// oracle set: every ChangeSet must commit through verification, every
// stale belief must reconverge by the audit, and no healthy link may
// end the run wrongly admin-down.
func TestDivergenceSeedsRun(t *testing.T) {
	want := 3
	if testing.Short() {
		want = 1
	}
	ran := 0
	for seed := uint64(0); seed < 300 && ran < want; seed++ {
		spec := WithDivergence(Generate(seed))
		if !spec.Scenario.Divergence.Enabled() {
			continue
		}
		if res := Run(spec, Options{}); !res.OK() {
			t.Errorf("seed %d: %v", seed, res.Violations)
		}
		ran++
	}
	if ran == 0 {
		t.Fatal("no divergence spec in 300 seeds — WithDivergence broken")
	}
}

// TestDivergenceFingerprintStable: a divergence run's fingerprint
// (which folds the plane's counters) is deterministic across repeated
// runs — the property the -divergence repro command rests on.
func TestDivergenceFingerprintStable(t *testing.T) {
	var spec Spec
	found := false
	for seed := uint64(0); seed < 300; seed++ {
		spec = WithDivergence(Generate(seed))
		if spec.Scenario.Divergence.Enabled() {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no divergence spec in 300 seeds")
	}
	a, b := Run(spec, Options{}), Run(spec, Options{})
	if a.Fingerprint != b.Fingerprint {
		t.Fatalf("divergence fingerprint unstable: %016x vs %016x", a.Fingerprint, b.Fingerprint)
	}
}
