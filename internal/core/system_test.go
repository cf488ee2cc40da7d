package core

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flowpulse/internal/localize"
	"flowpulse/internal/remediate"
	"flowpulse/internal/resilience"
	"flowpulse/internal/sim"
	"flowpulse/internal/telemetry"
	"flowpulse/internal/trace"
)

// small is a fast test scenario: 8 leaves, 4 spines, 4 MiB per rank.
// Per-port volume is ~496 packets, so the one-packet noise quantum is
// ~0.2% — comfortably under the 1% threshold.
func small(seed uint64) Scenario {
	return Scenario{Leaves: 8, Spines: 4, BytesPerRank: 4 << 20, Iterations: 5, Seed: seed}
}

// twoJobs is an 8×4 fat tree with two hosts per leaf and two
// concurrent full-span ring jobs, one per host column.
func twoJobs(seed uint64) Scenario {
	return Scenario{
		Leaves: 8, Spines: 4, HostsPerLeaf: 2,
		BytesPerRank: 4 << 20, Iterations: 5, Seed: seed,
		Jobs: []JobScenario{
			{Job: 1, HostIx: 0},
			{Job: 2, HostIx: 1},
		},
	}
}

// only returns the stack of a system that monitors exactly one job.
func only(t *testing.T, sys *System) *Job {
	t.Helper()
	if len(sys.Jobs()) != 1 {
		t.Fatalf("system monitors %d jobs, want 1", len(sys.Jobs()))
	}
	return sys.Jobs()[0]
}

// faulted is sc with a Bernoulli drop on ref, live after iteration onset
// of the first job (0: from the start).
func faulted(sc Scenario, ref LeafSpineLink, rate float64, onset int) Scenario {
	sc.Faults = []FaultSpec{{Kind: FaultBernoulli, Leaf: ref.LeafOrd, Spine: ref.SpineOrd, Trunk: ref.Trunk, Rate: rate, Onset: onset}}
	return sc
}

// run builds a scenario with one job or several, monitors every job
// with the given model, trains to completion — fault schedule included —
// and flushes.
func run(t *testing.T, sc Scenario, kind PredictorKind, refIters int) (*Runtime, *System) {
	t.Helper()
	return runWith(t, sc, JobConfig{Kind: kind}, refIters, nil)
}

func runWith(t *testing.T, sc Scenario, job JobConfig, refIters int, rem *remediate.Config) (*Runtime, *System) {
	t.Helper()
	rt, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := rt.Attach(AttachOptions{Job: job, ReferenceIterations: refIters, Remediate: rem})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Train(nil); err != nil {
		t.Fatal(err)
	}
	return rt, sys
}

// assertCleanRun is the healthy-fabric contract for any number of
// jobs: every job's pipeline sees one window per (leaf of its span,
// iteration), raises nothing, and no window goes unrouted.
func assertCleanRun(t *testing.T, sc Scenario) *System {
	t.Helper()
	rt, sys := run(t, sc, AnalyticalModel, 0)
	for i, j := range sys.Jobs() {
		spec := rt.Jobs[i].Spec
		leaves := spec.LeafCount
		if leaves == 0 {
			leaves = sc.Leaves
		}
		if want := leaves * spec.Iterations; j.Pipeline.Windows != want {
			t.Errorf("job %d: windows = %d, want %d", j.ID, j.Pipeline.Windows, want)
		}
		if len(j.Pipeline.Events) != 0 {
			t.Errorf("job %d: clean run produced %d alerts: %v", j.ID, len(j.Pipeline.Events), j.Pipeline.Events[0].Alert)
		}
	}
	if n := sys.plane.UnroutedWindows(); n != 0 {
		t.Errorf("unrouted windows: %d", n)
	}
	return sys
}

func TestCleanRunRaisesNoAlerts(t *testing.T) {
	sc := small(1)
	sc.JitterMax = 5 * sim.Microsecond
	sc.Background = 4 * sim.Microsecond
	sys := assertCleanRun(t, sc)
	// Temporal symmetry: every scored deviation is tiny.
	for _, ws := range only(t, sys).Pipeline.Scores {
		if ws.Scored && ws.Score > 0.01 {
			t.Fatalf("clean window score %v exceeds threshold", ws.Score)
		}
	}
}

func TestSharedPlaneCleanTwoJobs(t *testing.T) {
	assertCleanRun(t, twoJobs(3))
}

func TestSharedPlaneSharedFaultSeenByBothQuarantinedOnce(t *testing.T) {
	bad := LeafSpineLink{LeafOrd: 4, SpineOrd: 1}
	_, sys := runWith(t, faulted(twoJobs(5), bad, 0.05, 2), JobConfig{}, 0, &remediate.Config{})
	for _, j := range sys.Jobs() {
		if len(j.Pipeline.Events) == 0 {
			t.Errorf("job %d did not see the shared fault", j.ID)
		}
		if !j.Detector.Config().AggregateSymmetry {
			t.Errorf("job %d: multi-job pipeline not on the aggregate basis", j.ID)
		}
	}
	st := sys.Remediator().Stats()
	if st.Quarantines != 1 {
		t.Fatalf("shared fault quarantined %d times, want exactly once: %+v", st.Quarantines, st)
	}
	if sys.faults.Len() != 1 {
		t.Fatalf("known faults: %d, want 1", sys.faults.Len())
	}
}

func TestSharedPlaneJobLocalFaultFlagsOwnerOnly(t *testing.T) {
	sc := twoJobs(7)
	// Disjoint spans: job 1 on leaves 0–3, job 2 on leaves 4–7. A
	// fault at leaf 0 lives outside job 2's slice entirely. (Spans
	// must be identical or disjoint: a partially-overlapping span
	// inherits the other job's spray comb at its private leaves — see
	// DESIGN.md decision 10.)
	sc.Jobs[0].LeafCount = 4
	sc.Jobs[1].LeafFirst, sc.Jobs[1].LeafCount = 4, 4
	local := LeafSpineLink{LeafOrd: 0, SpineOrd: 2}
	_, sys := run(t, faulted(sc, local, 0.05, 2), AnalyticalModel, 0)
	if len(sys.Job(1).Pipeline.Events) == 0 {
		t.Error("owning job missed its local fault")
	}
	if n := len(sys.Job(2).Pipeline.Events); n != 0 {
		t.Errorf("bystander job raised %d alerts for a fault outside its ring", n)
	}
}

func TestScenarioJobsValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(sc *Scenario)
	}{
		{"duplicate ids", func(sc *Scenario) { sc.Jobs[1].Job = 1 }},
		{"HostIx out of range", func(sc *Scenario) { sc.Jobs[1].HostIx = 2 }},
		{"leaf span too wide", func(sc *Scenario) { sc.Jobs[0].LeafFirst = 4 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := twoJobs(1)
			// Pin span so LeafFirst mutations overflow.
			sc.Jobs[0].LeafCount = 8
			tc.mut(&sc)
			if _, err := sc.Build(); err == nil {
				t.Fatal("invalid Jobs accepted")
			}
		})
	}
}

func TestAnalyticalDetectsSilentFault(t *testing.T) {
	sc := small(2)
	ref := LeafSpineLink{LeafOrd: 3, SpineOrd: 1}
	_, sys := run(t, faulted(sc, ref, 0.03, 0), AnalyticalModel, 0)
	if len(only(t, sys).Pipeline.Events) == 0 {
		t.Fatal("3% silent fault not detected")
	}
	// Every deficit alert must be at leaf 3's spine-1 port.
	deficits := 0
	for _, e := range only(t, sys).Pipeline.Events {
		if e.Alert.Deviation >= 0 {
			continue // retransmit spillover surpluses are possible
		}
		deficits++
		if e.Alert.LeafOrdinal != 3 || e.Alert.Uplink != 1 {
			t.Fatalf("deficit at leaf %d uplink %d, want 3/1", e.Alert.LeafOrdinal, e.Alert.Uplink)
		}
	}
	if deficits == 0 {
		t.Fatal("no deficit alerts")
	}
}

func TestDetectionIsImmediate(t *testing.T) {
	// A fault injected before iteration 3 must alert in iteration 3's
	// window — detection latency is one iteration by construction.
	sc := small(3)
	ref := LeafSpineLink{LeafOrd: 5, SpineOrd: 2}
	_, sys := run(t, faulted(sc, ref, 0.05, 2), AnalyticalModel, 0)
	if len(only(t, sys).Pipeline.Events) == 0 {
		t.Fatal("fault not detected")
	}
	first := only(t, sys).Pipeline.Events[0].Alert
	if first.Iter != 3 {
		t.Fatalf("first alert in iteration %d, want 3", first.Iter)
	}
	// Iterations 1-2 must be clean.
	for _, e := range only(t, sys).Pipeline.Events {
		if e.Alert.Iter < 3 {
			t.Fatalf("alert before fault injection: %v", e.Alert)
		}
	}
}

func TestSimulationModelDetects(t *testing.T) {
	sc := small(4)
	sc.Background = 4 * sim.Microsecond // reference captures noisy conditions too
	ref := LeafSpineLink{LeafOrd: 2, SpineOrd: 3}
	_, sys := run(t, faulted(sc, ref, 0.03, 0), SimulationModel, 3)
	if len(only(t, sys).Pipeline.Events) == 0 {
		t.Fatal("simulation model missed the fault")
	}
	for _, e := range only(t, sys).Pipeline.Events {
		if e.Alert.Deviation < 0 && (e.Alert.LeafOrdinal != 2 || e.Alert.Uplink != 3) {
			t.Fatalf("deficit at wrong port: %v", e.Alert)
		}
	}
}

func TestSimulationModelCleanRunSilent(t *testing.T) {
	sc := small(5)
	_, sys := run(t, sc, SimulationModel, 3)
	if len(only(t, sys).Pipeline.Events) != 0 {
		t.Fatalf("simulation model false-alerted: %v", only(t, sys).Pipeline.Events[0].Alert)
	}
}

func TestLearnedModelWarmupThenDetect(t *testing.T) {
	sc := small(6)
	sc.Iterations = 8
	ref := LeafSpineLink{LeafOrd: 1, SpineOrd: 0}
	_, sys := run(t, faulted(sc, ref, 0.05, 5), LearnedModel, 0)
	if len(only(t, sys).Pipeline.Events) == 0 {
		t.Fatal("learned model missed the fault")
	}
	for _, e := range only(t, sys).Pipeline.Events {
		if e.Alert.Iter <= 5 {
			t.Fatalf("alert during warmup/clean phase: %v", e.Alert)
		}
	}
}

func TestLearnedModelRebaselinesAfterTransient(t *testing.T) {
	// Fig 3 end to end: a fault present from the start (during warmup)
	// heals after iteration 6. The learned baseline absorbed the fault,
	// so the healed network looks anomalous — until the model observes
	// the healthier distribution and re-baselines.
	sc := small(7)
	sc.Iterations = 14
	// Heavy transient fault so the warmup baseline is clearly skewed.
	sc = faulted(sc, LeafSpineLink{LeafOrd: 4, SpineOrd: 2}, 0.2, 0)
	sc.Faults[0].Heal = 6
	_, sys := run(t, sc, LearnedModel, 0)

	job := only(t, sys)
	if job.Learned().Rebaselines == 0 {
		t.Fatal("learned model never re-baselined after the transient healed")
	}
	// After re-baselining, later iterations must be quiet again.
	last := job.Pipeline.Events[len(job.Pipeline.Events)-1].Alert
	if last.Iter >= 13 {
		t.Fatalf("still alerting at iteration %d after rebaseline", last.Iter)
	}
}

func TestPreExistingFaultsThenNewFault(t *testing.T) {
	// §6 "Effect of pre-existing faults": known disconnections skew the
	// expected distribution but the model accounts for them; only the
	// NEW silent fault alerts.
	sc := small(8)
	sc.PreExisting = []LeafSpineLink{
		{LeafOrd: 0, SpineOrd: 0},
		{LeafOrd: 6, SpineOrd: 2},
	}
	newFault := LeafSpineLink{LeafOrd: 3, SpineOrd: 3}
	_, sys := run(t, faulted(sc, newFault, 0.04, 2), AnalyticalModel, 0)
	if len(only(t, sys).Pipeline.Events) == 0 {
		t.Fatal("new fault not detected among pre-existing ones")
	}
	for _, e := range only(t, sys).Pipeline.Events {
		if e.Alert.Iter <= 2 {
			t.Fatalf("pre-existing faults caused an alert: %v", e.Alert)
		}
		if e.Alert.Deviation < 0 && (e.Alert.LeafOrdinal != 3 || e.Alert.Uplink != 3) {
			t.Fatalf("deficit at wrong location: %v", e.Alert)
		}
	}
}

func TestLocalizationLocalVsRemote(t *testing.T) {
	// Fig 4 end to end, using AllToAll so each ingress port carries
	// multiple senders.
	base := Scenario{Leaves: 8, Spines: 4, Collective: AllToAllKind, BytesPerRank: 8 << 20, Iterations: 4, Seed: 9}

	t.Run("local", func(t *testing.T) {
		ref := LeafSpineLink{LeafOrd: 5, SpineOrd: 1}
		rt, sys := run(t, faulted(base, ref, 0.2, 0), AnalyticalModel, 0) // downstream: all senders affected
		verdictCount := 0
		for _, e := range only(t, sys).Pipeline.Events {
			if e.Alert.Deviation >= 0 || e.Alert.LeafOrdinal != 5 {
				continue
			}
			verdictCount++
			if e.Verdict.Kind != localize.LocalLink {
				t.Fatalf("verdict %v, want local-link", e.Verdict)
			}
			if len(e.Verdict.Links) != 1 || e.Verdict.Links[0] != rt.Link(ref) {
				t.Fatalf("blamed %v, want link %d", e.Verdict.Links, rt.Link(ref))
			}
		}
		if verdictCount == 0 {
			t.Fatal("no localized deficit alerts")
		}
	})

	t.Run("remote", func(t *testing.T) {
		ref := LeafSpineLink{LeafOrd: 2, SpineOrd: 1}
		sc := faulted(base, ref, 0.2, 0)
		sc.Faults[0].Upstream = true // only leaf 2's traffic suffers
		rt, sys := run(t, sc, AnalyticalModel, 0)
		// The per-sender noise floor under all-to-all makes occasional
		// misattributions possible; the correct remote link must win by
		// majority.
		right, wrong := 0, 0
		for _, e := range only(t, sys).Pipeline.Events {
			if e.Verdict.Kind != localize.RemoteLink {
				continue
			}
			found := false
			for _, l := range e.Verdict.Links {
				if l == rt.Link(ref) {
					found = true
				}
			}
			if found {
				right++
			} else {
				wrong++
			}
		}
		if right == 0 {
			t.Fatal("no remote-link verdicts blame the faulty link")
		}
		if wrong >= right {
			t.Fatalf("misattributions (%d) outnumber correct verdicts (%d)", wrong, right)
		}
	})
}

func TestIterationScores(t *testing.T) {
	sc := small(10)
	ref := LeafSpineLink{LeafOrd: 3, SpineOrd: 1}
	_, sys := run(t, faulted(sc, ref, 0.05, 0), AnalyticalModel, 0)
	scores := only(t, sys).Pipeline.IterationScores()
	if len(scores) == 0 {
		t.Fatal("no iteration scores")
	}
	for iter, s := range scores {
		if s < 0.01 {
			t.Fatalf("iteration %d score %v under threshold despite 5%% fault", iter, s)
		}
		if math.IsNaN(s) {
			t.Fatal("NaN score")
		}
	}
}

func TestAttachValidation(t *testing.T) {
	dup := twoJobs(11)
	dup.Jobs[0].Job, dup.Jobs[1].Job = 3, 3
	cases := []struct {
		name string
		sc   Scenario
		opts AttachOptions
		want string // substring of the error
	}{
		// Attach monitors the jobs Build made, so a run with two jobs of
		// one id never reaches it.
		{"duplicate job ids", dup, AttachOptions{}, "duplicate job id 3"},
		{"unknown kind", small(11), AttachOptions{Job: JobConfig{Kind: "bogus"}}, "unknown predictor kind"},
		// A multi-job scenario has no reference run for its other jobs:
		// the run taps one job.
		{"simulation without reference", twoJobs(11), AttachOptions{Job: JobConfig{Kind: SimulationModel}}, "simulation model"},
		{"resilience without remediate", small(11), AttachOptions{Resilience: &resilience.Config{}}, "requires Config.Remediate"},
		{"trace path and writer", small(11), AttachOptions{
			TracePath: filepath.Join(t.TempDir(), "x.fpt"), Trace: trace.NewWriter(&bytes.Buffer{}),
		}, "not both"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rt, err := tc.sc.Build()
			if err == nil {
				defer rt.Close()
				_, err = rt.Attach(tc.opts)
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Build+Attach error = %v, want one containing %q", err, tc.want)
			}
		})
	}
}

// TestResilienceRejectsSimulationModelAtAttach: the rule is checked
// when the system is attached — before the reference run, not deferred
// to Train's bind — with one error text for any number of jobs.
func TestResilienceRejectsSimulationModelAtAttach(t *testing.T) {
	for _, sc := range []Scenario{small(13), twoJobs(13)} {
		rt, err := sc.Build()
		if err != nil {
			t.Fatal(err)
		}
		_, err = rt.Attach(AttachOptions{
			Job:       JobConfig{Kind: SimulationModel},
			Remediate: &remediate.Config{}, Resilience: &resilience.Config{},
		})
		rt.Close()
		want := "resilience is not supported with the simulation model"
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%d job(s): Attach error = %v, want one containing %q", len(rt.Jobs), err, want)
		}
	}
}

// TestRejectedAttachLeavesTracePathAlone: tracing records two-level
// fabrics only. An attach rejected for its topology must fail before
// TracePath is opened — a recording already at that path survives, byte
// for byte, and no file handle is left behind.
func TestRejectedAttachLeavesTracePathAlone(t *testing.T) {
	rt, err := clos3Scenario(1).Build()
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	path := filepath.Join(t.TempDir(), "previous.fpt")
	previous := []byte("a recording from an earlier run")
	if err := os.WriteFile(path, previous, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = rt.Attach(AttachOptions{Job: JobConfig{Kind: LearnedModel}, TracePath: path})
	if err == nil || !strings.Contains(err.Error(), "two-level") {
		t.Fatalf("Attach on a three-level fabric with TracePath: error = %v, want the two-level rejection", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, previous) {
		t.Fatalf("rejected attach rewrote TracePath: %q", got)
	}
}

// TestDerivedFromJobCount pins the three things a System derives from
// how many jobs it monitors: the aggregate-symmetry basis, the trace
// header's Shared flag, and (TestReplanDetailPrefix) the re-plan detail
// prefix. A lone job keeps the caller's detector setting.
func TestDerivedFromJobCount(t *testing.T) {
	for _, tc := range []struct {
		sc    Scenario
		multi bool
	}{{small(14), false}, {twoJobs(14), true}} {
		rt, err := tc.sc.Build()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		sys, err := rt.Attach(AttachOptions{Trace: trace.NewWriter(&buf)})
		if err != nil {
			t.Fatal(err)
		}
		sys.Flush(0)
		rt.Close()
		rd, err := trace.NewReader(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got := rd.Header().Shared; got != tc.multi {
			t.Errorf("%d job(s): header Shared = %v", len(rt.Jobs), got)
		}
		if len(rd.Header().Jobs) != len(rt.Jobs) {
			t.Errorf("header lists %d jobs, want %d", len(rd.Header().Jobs), len(rt.Jobs))
		}
		for _, j := range sys.Jobs() {
			if got := j.Detector.Config().AggregateSymmetry; got != tc.multi {
				t.Errorf("%d job(s): job %d AggregateSymmetry = %v", len(rt.Jobs), j.ID, got)
			}
		}
	}
}

// TestReplanDetailPrefix: a fabric-scoped quarantine re-plans every
// bound job it cuts off, and the "job N: " prefix that tells the
// timeline entries apart appears only when there are several jobs.
func TestReplanDetailPrefix(t *testing.T) {
	one := Scenario{Leaves: 4, Spines: 2, BytesPerRank: 1 << 20, Iterations: 2, Seed: 15}
	two := one
	two.HostsPerLeaf = 2
	two.Jobs = []JobScenario{{Job: 1}, {Job: 2, HostIx: 1}}
	for _, tc := range []struct {
		sc   Scenario
		want []string
	}{{one, []string{"leaf 1 unreachable"}}, {two, []string{"job 1: leaf 1 unreachable", "job 2: leaf 1 unreachable"}}} {
		rt, err := tc.sc.Build()
		if err != nil {
			t.Fatal(err)
		}
		sys, err := rt.Attach(AttachOptions{Remediate: &remediate.Config{}, Resilience: &resilience.Config{}})
		if err != nil {
			t.Fatal(err)
		}
		for i, j := range rt.startJobs(nil) {
			if err := sys.bindWorkload(rt.Jobs[i].Spec.Job, j); err != nil {
				t.Fatal(err)
			}
		}
		// Both uplinks of leaf 1 quarantined: its hosts drop out of
		// every ring that has one there.
		for spine := 0; spine < tc.sc.Spines; spine++ {
			sys.Remediator().OnQuarantine(0, rt.Link(LeafSpineLink{LeafOrd: 1, SpineOrd: spine}))
		}
		var got []string
		for _, a := range sys.Remediator().Timeline {
			if a.Kind == remediate.ActionReplan {
				got = append(got, a.Detail)
			}
		}
		if len(got) != len(tc.want) {
			t.Fatalf("%d job(s): re-plan details %q, want %d entries", len(rt.Jobs), got, len(tc.want))
		}
		for i, want := range tc.want {
			if !strings.HasPrefix(got[i], want) {
				t.Errorf("%d job(s): re-plan detail %q, want prefix %q", len(rt.Jobs), got[i], want)
			}
		}
		if err := sys.bindWorkload(99, nil); err == nil {
			t.Error("bindWorkload accepted a job that is not monitored")
		}
	}
}

func TestScenarioValidation(t *testing.T) {
	if _, err := (Scenario{Leaves: 1}).Build(); err == nil {
		t.Error("degenerate topology accepted")
	}
	if _, err := (Scenario{Collective: "nope"}).Build(); err == nil {
		t.Error("unknown collective accepted")
	}
	if _, err := (Scenario{PreExisting: []LeafSpineLink{{LeafOrd: 99, SpineOrd: 0}}}).Build(); err == nil {
		t.Error("out-of-range pre-existing link accepted")
	}
}

func TestReferenceRunDeterministic(t *testing.T) {
	sc := small(12)
	a, err := referenceRun(sc, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := referenceRun(sc, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("window counts differ: %d vs %d", len(a), len(b))
	}
	key := func(w *telemetry.Window) [4]int64 {
		return [4]int64{int64(w.LeafOrdinal), int64(w.Iter), w.Total(), w.Packets}
	}
	for i := range a {
		if key(a[i]) != key(b[i]) {
			t.Fatalf("reference runs diverge at window %d", i)
		}
	}
}
