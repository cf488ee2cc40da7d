package control

import (
	"testing"

	"flowpulse/internal/fabric"
	"flowpulse/internal/fault"
	"flowpulse/internal/sim"
	"flowpulse/internal/topology"
)

func buildPlane(t testing.TB, cfg Config) (*Plane, *fabric.Network) {
	t.Helper()
	topo, err := topology.NewFatTree(topology.FatTreeConfig{
		Leaves: 4, Spines: 2, HostsPerLeaf: 1, Trunk: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	net := fabric.MustNew(fabric.Config{Topo: topo, Engine: sim.NewEngine(), Seed: 9})
	return New(cfg, net), net
}

func trunkLink(t testing.TB, net *fabric.Network, leaf, spine int) topology.LinkID {
	t.Helper()
	topo := net.Topology()
	return topo.TrunkLinks(topo.Leaves()[leaf], topo.Spines()[spine])[0]
}

// TestApplyCommitLifecycle: the happy path — a quarantine ChangeSet
// pushes, verifies, and commits, leaving belief == intent == truth.
func TestApplyCommitLifecycle(t *testing.T) {
	p, net := buildPlane(t, Config{Verify: true})
	link := trunkLink(t, net, 0, 1)

	if !p.Quarantine(100, link) {
		t.Fatal("clean quarantine did not commit")
	}
	if net.LinkAdminUp(link) {
		t.Error("truth: link still admin-up after quarantine")
	}
	if p.LinkAdminUp(link) {
		t.Error("belief: link still believed up after commit")
	}
	if div := p.Divergent(); len(div) != 0 {
		t.Errorf("divergent after clean commit: %v", div)
	}
	st := p.Stats()
	if st.ChangeSets != 1 || st.Committed != 1 || st.RolledBack != 0 || st.Pushed != 1 {
		t.Errorf("stats after one clean quarantine: %+v", st)
	}
	log := p.Log()
	if len(log) != 1 || log[0].Status != Committed || log[0].Reason != "quarantine" || log[0].At != 100 {
		t.Errorf("changeset log: %+v", log)
	}

	if !p.Readmit(200, link) {
		t.Fatal("readmit did not commit")
	}
	if !net.LinkAdminUp(link) || !p.LinkAdminUp(link) {
		t.Error("readmit did not restore truth and belief")
	}
}

// TestApplyRetriesFailedPush: one dropped push is caught by the
// read-back and healed within the retry budget — committed, with the
// repair work on the books.
func TestApplyRetriesFailedPush(t *testing.T) {
	p, net := buildPlane(t, Config{Verify: true})
	link := trunkLink(t, net, 1, 0)
	p.Inject(fault.Divergence{Kind: fault.DivergeFailedPush, Count: 1})

	if !p.Quarantine(100, link) {
		t.Fatal("quarantine with one dropped push should commit via retry")
	}
	if net.LinkAdminUp(link) || p.LinkAdminUp(link) {
		t.Error("retry did not land the quarantine on truth and belief")
	}
	st := p.Stats()
	if st.PushesDropped != 1 || st.VerifyMismatches != 1 || st.Retries != 1 {
		t.Errorf("repair accounting: %+v", st)
	}
	if div := p.Divergent(); len(div) != 0 {
		t.Errorf("divergent after healed push: %v", div)
	}
}

// TestApplyRollsBackExhaustedRetries: when the fabric eats the push
// and every retry, the ChangeSet rolls back, belief re-syncs to truth,
// and an alert fires — the plane refuses to believe a write it cannot
// read back.
func TestApplyRollsBackExhaustedRetries(t *testing.T) {
	p, net := buildPlane(t, Config{Verify: true})
	link := trunkLink(t, net, 1, 1)
	// Initial push + maxRetries (2) re-pushes, all eaten.
	p.Inject(fault.Divergence{Kind: fault.DivergeFailedPush, Count: 3})

	if p.Quarantine(100, link) {
		t.Fatal("quarantine committed despite every push being dropped")
	}
	if !net.LinkAdminUp(link) {
		t.Error("truth changed even though every push was dropped")
	}
	if !p.LinkAdminUp(link) {
		t.Error("belief adopted the failed intent instead of truth")
	}
	if div := p.Divergent(); len(div) != 0 {
		t.Errorf("divergent after rollback: %v", div)
	}
	st := p.Stats()
	if st.RolledBack != 1 || st.Committed != 0 || st.Retries != 2 || st.PushesDropped != 3 {
		t.Errorf("rollback accounting: %+v", st)
	}
	if alerts := p.Alerts(); len(alerts) != 1 {
		t.Fatalf("want exactly one rollback alert, got %v", alerts)
	}
	if log := p.Log(); len(log) != 1 || log[0].Status != RolledBack {
		t.Errorf("changeset log after rollback: %+v", log)
	}
}

// TestUnverifiedCommitsBlindly: without verification a dropped push
// still "commits" — belief and truth split, and Reconcile (a verified-
// plane capability) refuses to help. This is the divergence the
// experiment's baseline arm lives with.
func TestUnverifiedCommitsBlindly(t *testing.T) {
	p, net := buildPlane(t, Config{Verify: false})
	link := trunkLink(t, net, 2, 0)
	p.Inject(fault.Divergence{Kind: fault.DivergeFailedPush, Count: 1})

	if !p.Quarantine(100, link) {
		t.Fatal("unverified apply should commit blindly")
	}
	if !net.LinkAdminUp(link) {
		t.Error("truth should be untouched — the push was dropped")
	}
	if p.LinkAdminUp(link) {
		t.Error("belief should hold the committed intent (down)")
	}
	div := p.Divergent()
	if len(div) != 1 || div[0] != link {
		t.Fatalf("divergent set: %v, want [%d]", div, link)
	}
	if p.Reconcile(200) {
		t.Error("unverified plane must never reconcile")
	}
	if !p.diverged {
		t.Error("episode should still be open")
	}
}

// TestReconcileRepushesLostIntent: truth drifts away from a committed
// intent behind the plane's back; Reconcile re-pushes the intent and
// closes the episode.
func TestReconcileRepushesLostIntent(t *testing.T) {
	p, net := buildPlane(t, Config{Verify: true})
	link := trunkLink(t, net, 0, 0)
	if !p.Quarantine(100, link) {
		t.Fatal("setup quarantine failed")
	}

	// The fabric flips the link back up without telling the plane — a
	// lost write surfacing late, or an out-of-band operator action.
	net.SetLinkAdmin(link, true)
	p.updateEpisode(150)
	if !p.diverged {
		t.Fatal("episode should open when truth leaves intent")
	}

	if !p.Reconcile(300) {
		t.Fatal("Reconcile found nothing despite truth≠intent")
	}
	if net.LinkAdminUp(link) {
		t.Error("Reconcile did not re-push the quarantine intent")
	}
	if div := p.Divergent(); len(div) != 0 {
		t.Errorf("divergent after reconcile: %v", div)
	}
	st := p.Stats()
	if st.Reconciles != 1 || st.Reconciled != 1 {
		t.Errorf("reconcile accounting: %+v", st)
	}
	if eps := p.Episodes(); len(eps) != 1 || eps[0] != 150 {
		t.Errorf("episodes: %v, want one of length 150", eps)
	}
	// A second call on a clean plane must report nothing to do.
	if p.Reconcile(400) {
		t.Error("Reconcile reported work on a clean plane")
	}
}

// TestStaleLSDBAuditRepair: a corrupted advertisement (no write
// involved) decays belief on its own; the periodic audit adopts truth
// and closes the episode.
func TestStaleLSDBAuditRepair(t *testing.T) {
	p, net := buildPlane(t, Config{Verify: true, AuditEvery: 1000})
	link := trunkLink(t, net, 3, 1)
	p.Inject(fault.Divergence{Kind: fault.DivergeStaleLSDB, At: 500, Link: link, Up: false})

	p.Tick(400)
	if p.diverged {
		t.Fatal("stale injection landed before its scheduled time")
	}
	p.Tick(500)
	if !p.diverged || p.LinkAdminUp(link) {
		t.Fatal("stale advertisement did not poison belief")
	}
	if !net.LinkAdminUp(link) {
		t.Fatal("stale LSDB must not touch truth")
	}

	p.Tick(1600) // next audit boundary
	st := p.Stats()
	if st.Audits == 0 || st.AuditRepairs != 1 || st.StaleAdopted != 1 {
		t.Errorf("audit accounting: %+v", st)
	}
	if !p.LinkAdminUp(link) || p.diverged {
		t.Error("audit did not adopt truth over the stale advertisement")
	}
	if st.MaxDiverged != 1100 {
		t.Errorf("MaxDiverged = %v, want 1100 (500 → 1600)", st.MaxDiverged)
	}
}

// TestPartialRolloutVerifiedHeals: a two-op ChangeSet whose second op
// stalls is healed by verification; unverified, the stall becomes a
// silent half-applied quarantine.
func TestPartialRolloutVerifiedHeals(t *testing.T) {
	p, net := buildPlane(t, Config{Verify: true})
	a, b := trunkLink(t, net, 2, 0), trunkLink(t, net, 2, 1)
	p.Inject(fault.Divergence{Kind: fault.DivergePartialRollout, Ops: 1})

	if !p.Apply(100, "quarantine", []Op{{Link: a, Up: false}, {Link: b, Up: false}}) {
		t.Fatal("verified partial rollout should heal and commit")
	}
	if net.LinkAdminUp(a) || net.LinkAdminUp(b) {
		t.Error("both ops should have landed after verification")
	}
	st := p.Stats()
	if st.OpsStalled != 1 || st.VerifyMismatches != 1 {
		t.Errorf("partial-rollout accounting: %+v", st)
	}
}

func TestPartialRolloutUnverifiedDiverges(t *testing.T) {
	p, net := buildPlane(t, Config{Verify: false})
	a, b := trunkLink(t, net, 2, 0), trunkLink(t, net, 2, 1)
	p.Inject(fault.Divergence{Kind: fault.DivergePartialRollout, Ops: 1})

	p.Apply(100, "quarantine", []Op{{Link: a, Up: false}, {Link: b, Up: false}})
	if net.LinkAdminUp(a) {
		t.Error("first op should have landed")
	}
	if !net.LinkAdminUp(b) {
		t.Error("second op should have stalled")
	}
	div := p.Divergent()
	if len(div) != 1 || div[0] != b {
		t.Errorf("divergent set: %v, want [%d]", div, b)
	}
}

// TestBelievedFIBFollowsBelief: the plane's spray sets are computed
// from belief, not truth — a stale advertisement reroutes believed
// traffic even though the fabric still forwards on the real link.
func TestBelievedFIBFollowsBelief(t *testing.T) {
	p, net := buildPlane(t, Config{Verify: true})
	topo := net.Topology()
	link := trunkLink(t, net, 0, 1)
	src, dst := topo.Leaves()[0], topo.Leaves()[1]

	before := len(p.LeafUplinkCandidates(src, dst))
	p.Inject(fault.Divergence{Kind: fault.DivergeStaleLSDB, At: 10, Link: link, Up: false})
	p.Tick(10)
	after := len(p.LeafUplinkCandidates(src, dst))
	if after >= before {
		t.Errorf("believed spray set did not shrink: %d -> %d", before, after)
	}
	if got := len(net.LeafUplinkCandidates(src, dst)); got != before {
		t.Errorf("truth FIB changed under a belief-only fault: %d -> %d", before, got)
	}
}

// TestNoteAppendsOpLessEntry: workload mutations land in the audit log
// without touching the fabric.
func TestNoteAppendsOpLessEntry(t *testing.T) {
	p, _ := buildPlane(t, Config{Verify: true})
	p.Note(100, "replan", "ring drops quarantined trunk")
	if st := p.Stats(); st.Notes != 1 || st.Pushed != 0 || st.ChangeSets != 0 {
		t.Errorf("note accounting: %+v", st)
	}
	log := p.Log()
	if len(log) != 1 || len(log[0].Ops) != 0 || log[0].Status != Committed {
		t.Errorf("note log entry: %+v", log)
	}
}

// TestPlaneReadPathZeroAllocs: the predictor hits LinkAdminUp and
// LeafUplinkCandidates on every window close for every pair — the
// believed read path must not allocate.
func TestPlaneReadPathZeroAllocs(t *testing.T) {
	p, net := buildPlane(t, Config{Verify: true})
	topo := net.Topology()
	link := trunkLink(t, net, 0, 0)
	src, dst := topo.Leaves()[0], topo.Leaves()[2]
	allocs := testing.AllocsPerRun(100, func() {
		_ = p.LinkAdminUp(link)
		_ = p.LeafUplinkCandidates(src, dst)
		p.Tick(0)
	})
	if allocs != 0 {
		t.Errorf("believed read path allocates %.1f per op, want 0", allocs)
	}
}

// BenchmarkChangeSetApply measures the unverified mutation path: push
// + belief commit + believed-FIB reconvergence.
func BenchmarkChangeSetApply(b *testing.B) {
	p, net := buildPlane(b, Config{Verify: false})
	link := trunkLink(b, net, 0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Apply(sim.Time(i), "bench", []Op{{Link: link, Up: i&1 == 1}})
	}
}

// BenchmarkChangeSetVerify measures the full verified lifecycle —
// push, read-back, commit — the price of never believing an unread
// write.
func BenchmarkChangeSetVerify(b *testing.B) {
	p, net := buildPlane(b, Config{Verify: true})
	link := trunkLink(b, net, 0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Apply(sim.Time(i), "bench", []Op{{Link: link, Up: i&1 == 1}})
	}
}

// BenchmarkPlaneReadPath measures the believed view the predictor
// consumes every window: admin read + spray-set lookup + idle tick.
func BenchmarkPlaneReadPath(b *testing.B) {
	p, net := buildPlane(b, Config{Verify: true})
	topo := net.Topology()
	link := trunkLink(b, net, 0, 0)
	src, dst := topo.Leaves()[0], topo.Leaves()[2]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.LinkAdminUp(link)
		_ = p.LeafUplinkCandidates(src, dst)
		p.Tick(sim.Time(i))
	}
}
