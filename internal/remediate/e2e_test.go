package remediate_test

import (
	"reflect"
	"testing"

	"flowpulse/internal/core"
	"flowpulse/internal/remediate"
	"flowpulse/internal/sim"
)

// runRemediated builds a scenario (fault schedule included), attaches
// FlowPulse with the remediation loop, runs training, and returns the
// system plus the per-iteration completion times.
func runRemediated(t *testing.T, sc core.Scenario, rcfg *remediate.Config) (*core.Runtime, *core.System, map[uint32]sim.Time) {
	t.Helper()
	rt, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := rt.Attach(core.AttachOptions{Remediate: rcfg})
	if err != nil {
		t.Fatal(err)
	}
	iterEnd := map[uint32]sim.Time{}
	err = rt.Train(func(now sim.Time, _ uint16, iter uint32) { iterEnd[iter] = now })
	if err != nil {
		t.Fatal(err)
	}
	return rt, sys, iterEnd
}

// TestPersistentFaultQuarantinedE2E is the acceptance scenario: a
// Bernoulli 1.5% silent fault on the paper's default 32×16 fat tree is
// confirmed after K consecutive deviating windows, quarantined,
// re-baselined, and the system is alert-free afterwards. The lossy
// link never earns re-admission: its probe rounds keep losing packets.
func TestPersistentFaultQuarantinedE2E(t *testing.T) {
	const onset = 3 // fault injected after iteration 2 completes
	ref := core.LeafSpineLink{LeafOrd: 3, SpineOrd: 1}
	sc := core.Scenario{
		BytesPerRank: 8 << 20, Iterations: 10, Seed: 42,
		Faults: []core.FaultSpec{{Kind: core.FaultBernoulli, Leaf: ref.LeafOrd, Spine: ref.SpineOrd, Rate: 0.015, Onset: onset - 1}},
	}
	rt, sys, iterEnd := runRemediated(t, sc, &remediate.Config{})
	link := rt.Link(ref)
	r := sys.Remediator()
	st := r.Stats()

	if st.Confirmations != 1 || st.Quarantines != 1 {
		t.Fatalf("remediation stats: %+v\ntimeline: %v", st, r.Timeline)
	}
	if q := r.Quarantined(); len(q) != 1 || q[0] != link {
		t.Fatalf("quarantined the wrong link: %v, want %d", q, link)
	}
	if rt.Net.LinkAdminUp(link) {
		t.Fatal("quarantine did not take")
	}

	// Confirmed and quarantined within K+2 iterations of onset.
	var qAt sim.Time
	for _, a := range r.Timeline {
		if a.Kind == remediate.ActionQuarantine {
			qAt = a.At
		}
	}
	if deadline := iterEnd[onset+3+2-1]; qAt == 0 || qAt > deadline {
		t.Fatalf("quarantine at %v, deadline %v (K+2 iterations after onset)", qAt, deadline)
	}

	// Re-baselined: after one straddling iteration, no alerts at all.
	for _, e := range sys.Jobs()[0].Pipeline.Events {
		if e.Alert.Iter >= 7 {
			t.Fatalf("alert after quarantine settled: %v", e.Alert)
		}
	}

	// The 1.5% lossy link keeps failing probe rounds: no re-admission.
	if st.Readmissions != 0 {
		t.Fatalf("lossy link re-admitted: %+v", st)
	}
	if st.ProbeRounds == 0 {
		t.Fatal("no probe rounds launched")
	}
	// One quarantine, no re-admission: exactly one FIB reconvergence.
	if got := rt.Net.FIBRecomputes(); got != 1 {
		t.Fatalf("FIB recomputes = %d, want 1", got)
	}
	// Training itself completed: 32 leaves × 10 iterations of windows.
	if sys.Jobs()[0].Pipeline.Windows != 32*10 {
		t.Fatalf("windows = %d, want 320", sys.Jobs()[0].Pipeline.Windows)
	}
}

// TestFlappingLinkDampedE2E drives a periodically degraded link
// through quarantine → probe-clean → re-admission cycles and checks
// that flap damping bounds the FIB churn: the first cycle re-admits
// freely, then suppression pins the link down for good. The flap is
// lossy rather than dead — a dead link stalls the collective's barrier
// so each down phase collapses into one stretched iteration, which is
// exactly the evasion the consecutive-window rule must not reward.
func TestFlappingLinkDampedE2E(t *testing.T) {
	base := core.Scenario{Leaves: 8, Spines: 4, BytesPerRank: 4 << 20, Seed: 7}

	// Calibrate the iteration duration on a clean 2-iteration run.
	cal := base
	cal.Iterations = 2
	_, _, calEnd := runRemediated(t, cal, nil)
	iterDur := sim.Duration(calEnd[2] - calEnd[1])
	if iterDur <= 0 {
		t.Fatalf("calibration failed: %v", calEnd)
	}

	sc := base
	sc.Iterations = 30
	ref := core.LeafSpineLink{LeafOrd: 3, SpineOrd: 1}
	// Degraded (30% loss) for 3 iterations out of every 6, starting after
	// iteration 2.
	sc.Faults = []core.FaultSpec{{
		Kind: core.FaultFlap, Leaf: ref.LeafOrd, Spine: ref.SpineOrd, Rate: 0.3,
		FlapPeriod: 6 * iterDur, FlapDown: 3 * iterDur, FlapPhase: 2 * iterDur,
	}}
	// Suppress at 1500 so the second quarantine (penalty ≈ 2000) pins
	// the link; the run then only needs two flap cycles to prove
	// damping instead of the default three.
	rt, sys, _ := runRemediated(t, sc, &remediate.Config{Suppress: 1500})
	link := rt.Link(ref)
	r := sys.Remediator()
	st := r.Stats()

	if st.Quarantines < 2 {
		t.Fatalf("flap not repeatedly quarantined: %+v\ntimeline: %v", st, r.Timeline)
	}
	if st.SuppressedReadmits == 0 {
		t.Fatalf("damping never suppressed a re-admission: %+v\ntimeline: %v", st, r.Timeline)
	}
	if st.Readmissions >= st.Quarantines {
		t.Fatalf("re-admissions not behind quarantines: %+v", st)
	}
	// The link ends pinned down despite passing probe rounds while up.
	if q := r.Quarantined(); rt.Net.LinkAdminUp(link) || len(q) != 1 || q[0] != link {
		t.Fatal("flapping link not suppressed at end of run")
	}
	// Bounded churn: every FIB recompute is one quarantine or one
	// re-admission; damping caps the cycle count even though the flap
	// keeps going to the end of the run.
	churn := st.Quarantines + st.Readmissions
	if got := rt.Net.FIBRecomputes(); got != churn {
		t.Fatalf("FIB recomputes = %d, want quarantines+readmissions = %d", got, churn)
	}
	if churn > 7 {
		t.Fatalf("churn unbounded: %d FIB events\ntimeline: %v", churn, r.Timeline)
	}
}

// TestRemediationDeterministic runs the same faulty scenario twice and
// requires byte-identical remediation timelines and stats.
func TestRemediationDeterministic(t *testing.T) {
	run := func() ([]remediate.Action, remediate.Stats) {
		sc := core.Scenario{
			Leaves: 8, Spines: 4, BytesPerRank: 4 << 20, Iterations: 8, Seed: 11,
			Faults: []core.FaultSpec{{Kind: core.FaultBernoulli, Leaf: 5, Spine: 2, Rate: 0.05, Onset: 2}},
		}
		_, sys, _ := runRemediated(t, sc, &remediate.Config{})
		return sys.Remediator().Timeline, sys.Remediator().Stats()
	}
	t1, s1 := run()
	t2, s2 := run()
	if !reflect.DeepEqual(t1, t2) {
		t.Fatalf("timelines diverge:\n%v\n%v", t1, t2)
	}
	if s1 != s2 {
		t.Fatalf("stats diverge: %+v vs %+v", s1, s2)
	}
	if s1.Quarantines != 1 {
		t.Fatalf("5%% fault not quarantined: %+v\n%v", s1, t1)
	}
}
