package simtest

import (
	"strings"
	"testing"

	"flowpulse/internal/core"
	"flowpulse/internal/detect"
)

// generators are Generate and the three sweeps flowpulse-check layers on
// it: every spec any of them produces must round-trip, build and stay
// normalized.
var generators = []struct {
	name string
	gen  func(uint64) Spec
}{
	{"generate", Generate},
	{"resilience", func(s uint64) Spec { return WithResilience(Generate(s)) }},
	{"congestion", func(s uint64) Spec { return WithCongestion(Generate(s)) }},
	{"divergence", func(s uint64) Spec { return WithDivergence(Generate(s)) }},
}

// TestGenerateDeterministic: the seed→spec map is a pure function, and
// every generated spec is already normalized (normalize is idempotent
// on Generate's output — the property ReproCommand's seed-vs-spec
// decision rests on).
func TestGenerateDeterministic(t *testing.T) {
	for seed := uint64(0); seed < 500; seed++ {
		a, b := Generate(seed).MarshalCompact(), Generate(seed).MarshalCompact()
		if a != b {
			t.Fatalf("seed %d: Generate is not deterministic:\n%s\n%s", seed, a, b)
		}
		norm := Generate(seed)
		norm.normalize()
		if got := norm.MarshalCompact(); got != a {
			t.Fatalf("seed %d: Generate output not normalized:\n%s\n%s", seed, a, got)
		}
	}
}

// TestSpecJSONRoundTrip: the compact encoding is lossless — a shrunk
// repro pasted back into -spec reruns the exact same scenario — for
// every spec Generate and the three sweeps produce, and every one of
// them is a scenario Build accepts.
func TestSpecJSONRoundTrip(t *testing.T) {
	for _, g := range generators {
		for seed := uint64(0); seed < 500; seed++ {
			spec := g.gen(seed)
			line := spec.MarshalCompact()
			back, err := ParseSpec(line)
			if err != nil {
				t.Fatalf("%s seed %d: %v", g.name, seed, err)
			}
			if got := back.MarshalCompact(); got != line {
				t.Fatalf("%s seed %d: round trip changed the spec:\n%s\n%s", g.name, seed, line, got)
			}
			rt, err := spec.Scenario.Build()
			if err != nil {
				t.Fatalf("%s seed %d: Build: %v\n%s", g.name, seed, err, line)
			}
			rt.Close()
		}
	}
}

// TestReproFormatUnchanged pins three seeds' repro lines: the spec is a
// core.Scenario under its own JSON keys plus the fuzzer's monitor
// choices, flap timing, pod-local link and burst shape included. The
// lines the fuzzer's own spec types printed before (seed, topo, work,
// fault, congest, diverge) name keys this format does not have, so
// they are refused with an error naming the key rather than parsed into
// some other scenario; `-seed N` repros are unaffected.
func TestReproFormatUnchanged(t *testing.T) {
	for seed, want := range map[uint64]string{
		1: `{"scenario":{"leaves":5,"spines":4,"hostsPerLeaf":2,"trunk":1,"collective":"ring-allreduce","bytesPerRank":2097152,"iterations":7,"faults":[{"kind":"flap","onset":1,"rate":0.5223901184256299,"leaf":2,"spine":2,"flapPeriodPS":251658240,"flapDownPS":167772160,"flapPhasePS":218078999}],"seed":1},"predictor":"analytical"}`,
		7: `{"scenario":{"leaves":3,"spines":2,"pods":3,"coresPerGroup":2,"collective":"ring-allreduce","bytesPerRank":2097152,"iterations":12,"faults":[{"kind":"bernoulli","onset":4,"rate":0.10260377254291142,"coreSpine":true,"pod":2,"leafInPod":1,"coreIx":1}],"seed":7},"predictor":"learned"}`,
		9: `{"scenario":{"leaves":5,"spines":2,"hostsPerLeaf":1,"trunk":1,"collective":"ring-allreduce","bytesPerRank":2097152,"iterations":10,"faults":[{"kind":"gilbert-elliott","onset":1,"rate":0.08828306594742283,"leaf":2,"spine":1,"gePBG":0.1736165614397276,"geLossBad":0.5840829919203699}],"seed":9},"predictor":"analytical"}`,
	} {
		if got := Generate(seed).MarshalCompact(); got != want {
			t.Errorf("seed %d repro changed:\n got %s\nwant %s", seed, got, want)
		}
		if back, err := ParseSpec(want); err != nil || back.MarshalCompact() != want {
			t.Errorf("seed %d: repro parses to %s (err %v)", seed, back.MarshalCompact(), err)
		}
	}
	for seed, old := range map[uint64]string{
		1: `{"seed":1,"topo":{"kind":"fat-tree","leaves":5,"spines":4,"hostsPerLeaf":2,"trunk":1},"work":{"collective":"ring-allreduce","bytesPerRank":2097152,"iterations":7,"predictor":"analytical"},"fault":{"kind":"flap","onset":1,"rate":0.5223901184256299,"leaf":2,"spine":2,"flapPeriodPS":251658240,"flapDownPS":167772160,"flapPhasePS":218078999},"congest":{},"diverge":{"stale":[{},{}]}}`,
		7: `{"seed":7,"topo":{"kind":"clos3","pods":3,"leavesPerPod":3,"spinesPerPod":2,"coresPerGroup":2},"work":{"collective":"ring-allreduce","bytesPerRank":2097152,"iterations":12,"predictor":"learned"},"fault":{"kind":"bernoulli","onset":4,"rate":0.10260377254291142,"coreSpine":true,"pod":2,"leafInPod":1,"coreIx":1},"congest":{},"diverge":{"stale":[{},{}]}}`,
		9: `{"seed":9,"topo":{"kind":"fat-tree","leaves":5,"spines":2,"hostsPerLeaf":1,"trunk":1},"work":{"collective":"ring-allreduce","bytesPerRank":2097152,"iterations":10,"predictor":"analytical"},"fault":{"kind":"gilbert-elliott","onset":1,"rate":0.08828306594742283,"leaf":2,"spine":1,"gePBG":0.1736165614397276,"geLossBad":0.5840829919203699},"congest":{},"diverge":{"stale":[{},{}]}}`,
	} {
		if _, err := ParseSpec(old); err == nil || !strings.Contains(err.Error(), `unknown field "seed"`) {
			t.Errorf("seed %d: the old repro line was not refused for its unknown key: %v", seed, err)
		}
	}
}

// TestParseSpecRejectsUnknownKeys: a typo'd key is an error that names
// it, at any depth — never a field silently left at its default, which
// would run a different scenario than the one written down.
func TestParseSpecRejectsUnknownKeys(t *testing.T) {
	good := Generate(1).MarshalCompact()
	for typo, key := range map[string]string{
		`"predictor"`:  `predicter`,
		`"leaves"`:     `leafs`,
		`"flapDownPS"`: `flapDown`,
	} {
		bad := strings.Replace(good, typo, `"`+key+`"`, 1)
		if bad == good {
			t.Fatalf("%s is not in %s", typo, good)
		}
		if _, err := ParseSpec(bad); err == nil || !strings.Contains(err.Error(), `unknown field "`+key+`"`) {
			t.Errorf("typo %q: err = %v, want one naming the key", key, err)
		}
	}
}

// TestGenerateEnvelope: generated fault schedules respect the
// constraints the oracles rely on.
func TestGenerateEnvelope(t *testing.T) {
	for seed := uint64(0); seed < 500; seed++ {
		spec := Generate(seed)
		thr := spec.DetectThreshold()
		if len(spec.Scenario.Faults) > 1 {
			t.Fatalf("seed %d: more than one fault: %s", seed, spec.MarshalCompact())
		}
		f := spec.fault()
		if f == nil {
			f = &core.FaultSpec{}
		}
		switch f.Kind {
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
		if f.Kind != "" {
			if f.Onset > spec.Scenario.Iterations-4 {
				t.Fatalf("seed %d: onset %d leaves no deadline room in %d iterations", seed, f.Onset, spec.Scenario.Iterations)
			}
			if spec.Predictor == core.LearnedModel && f.Onset < 4 {
				t.Fatalf("seed %d: onset %d inside the learned model's warm-up", seed, f.Onset)
			}
		}
		sc := spec.Scenario
		if f.Upstream && sc.Collective != core.AllToAllKind {
			t.Fatalf("seed %d: upstream fault outside all-to-all: %s", seed, spec.MarshalCompact())
		}
		if len(sc.Jobs) != 0 {
			// The shared-plane envelope normalize() promises the runner.
			if len(sc.Jobs) != 2 || sc.Pods != 0 ||
				sc.HostsPerLeaf != 2 ||
				sc.Collective != core.RingAllReduce ||
				spec.Predictor != core.AnalyticalModel ||
				spec.Remediate {
				t.Fatalf("seed %d: 2-job spec outside the shared-plane envelope: %s", seed, spec.MarshalCompact())
			}
			if f.Kind != "" && (f.Kind != core.FaultBernoulli || f.Upstream) {
				t.Fatalf("seed %d: 2-job spec with fault %s (upstream=%v): %s", seed, f.Kind, f.Upstream, spec.MarshalCompact())
			}
		}
		if spec.Resilience != sc.InterleaveRing {
			t.Fatalf("seed %d: resilience %v with interleaved ring %v", seed, spec.Resilience, sc.InterleaveRing)
		}
		if spec.Resilience {
			// The resilience envelope normalize() promises the runner.
			if !spec.Remediate || sc.Pods != 0 ||
				sc.Spines != 2 || sc.HostsPerLeaf != 4 ||
				sc.Trunk != 1 || sc.BytesPerRank != 2<<20 {
				t.Fatalf("seed %d: resilience spec outside its envelope: %s", seed, spec.MarshalCompact())
			}
			if f.Kind != "" && (f.Kind != core.FaultBernoulli || f.Upstream || f.Onset < 2) {
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
		if len(spec.Scenario.Jobs) == 0 || spec.fault() == nil {
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
		if !spec.Resilience || spec.fault() == nil {
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
		if !spec.Remediate {
			plain++
			if got.MarshalCompact() != spec.MarshalCompact() {
				t.Fatalf("seed %d: WithResilience changed an unremediated spec", seed)
			}
			continue
		}
		forced++
		if !got.Resilience {
			t.Fatalf("seed %d: WithResilience left a remediated spec un-replanned", seed)
		}
		norm := got.clone()
		norm.normalize()
		if norm.MarshalCompact() != got.MarshalCompact() {
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
		if spec.fault() == nil {
			continue
		}
		switch spec.fault().Kind {
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

	input := failed.Spec.MarshalCompact()
	shrunk, runs := Shrink(failed.Spec, opts, 0)
	if runs == 0 {
		t.Fatal("shrink spent no runs")
	}
	if res := Run(shrunk, opts); res.OK() {
		t.Fatalf("shrunk spec no longer fails: %s", shrunk.MarshalCompact())
	}
	if got := failed.Spec.MarshalCompact(); got != input {
		t.Fatalf("Shrink edited its input through a shared slice:\nbefore %s\nafter  %s", input, got)
	}
	if cmd := shrunk.ReproCommand(); !strings.Contains(cmd, "flowpulse-check") {
		t.Fatalf("unusable repro command %q", cmd)
	}
	t.Logf("bug caught on seed %d, shrunk in %d runs: %s", failed.Spec.Scenario.Seed, runs, shrunk.ReproCommand())
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
		if f := spec.fault(); f == nil || f.Kind != core.FaultBernoulli {
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
	norm := shrunk.clone()
	norm.normalize()
	if norm.MarshalCompact() != shrunk.MarshalCompact() {
		t.Fatalf("shrink returned a non-normalized spec: %s", shrunk.MarshalCompact())
	}
}
