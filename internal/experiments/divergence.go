package experiments

import (
	"fmt"
	"strings"

	"flowpulse/internal/control"
	"flowpulse/internal/core"
	"flowpulse/internal/fault"
	"flowpulse/internal/remediate"
	"flowpulse/internal/sim"
)

// DivergenceConfig measures what ChangeSet verification buys when the
// control plane's believed topology splits from fabric truth. Three
// injection scenarios — a silently dropped re-admission push, a stale
// LSDB advertisement, and a partially rolled-out multi-link ChangeSet —
// each run twice: once with the verified plane (verify-own-writes,
// reconciliation) and once with the unverified posture most production
// controllers ship (push and trust). No scenario injects a data-plane
// fault, so every quarantine the loop performs is an innocent link
// taken out of service purely because belief lied.
type DivergenceConfig struct {
	// Grid: the fabric and collective (defaults 8×4, 4 MiB — the
	// experiment measures control-plane dynamics, not detection
	// accuracy, so it runs at small scale), the iteration at which the
	// scripted mutation or corruption lands as CleanIters (3) and the
	// rest of each trial as FaultIters (11).
	Grid
}

// DivergenceRow is one scenario × posture outcome.
type DivergenceRow struct {
	Scenario, Arm string
	// InnocentQuarantines counts links admin-downed by the loop. The
	// fabric is fault-free in every scenario, so each one is healthy
	// hardware lost to a wrong belief.
	InnocentQuarantines uint64
	// Withheld counts quarantines the remediator converted into
	// belief repairs (reconcile-before-quarantine).
	Withheld uint64
	// Alerts is the detector's alert count.
	Alerts int
	// Converged reports belief == truth == intent at end of run.
	Converged bool
	// TimeToReconcile is the longest belief≠truth episode (0 when the
	// run never diverged; see Converged for the never-closed case).
	TimeToReconcile sim.Duration
	// Plane is the control plane's full counter set.
	Plane control.Stats
}

// DivergenceResult is the experiment outcome.
type DivergenceResult struct {
	Config DivergenceConfig
	Rows   []DivergenceRow
}

// divergenceRow reduces one finished trial.
func divergenceRow(scenario, arm string, rt *core.Runtime, sys *core.System) DivergenceRow {
	ps := rt.Plane.Stats()
	rs := sys.Remediator().Stats()
	return DivergenceRow{
		Scenario: scenario, Arm: arm,
		InnocentQuarantines: rs.Quarantines,
		Withheld:            rs.Reconciliations,
		Alerts:              len(sys.Jobs()[0].Pipeline.Events),
		Converged:           len(rt.Plane.Divergent()) == 0,
		TimeToReconcile:     ps.MaxDiverged,
		Plane:               ps,
	}
}

// Divergence runs the three scenarios under both postures.
func Divergence(cfg DivergenceConfig) (*DivergenceResult, error) {
	cfg = resolve("divergence", cfg)
	res := &DivergenceResult{Config: cfg}
	base := cfg.scenario(cfg.Seed)
	base.Iterations = cfg.CleanIters + cfg.FaultIters
	target := core.LeafSpineLink{LeafOrd: cfg.Leaves / 2, SpineOrd: 1}
	// trial runs one scenario with the closed loop on the runtime's own
	// control plane and an optional per-iteration script. The script
	// sees the attached system so scripted operator actions can refresh
	// the predictor baseline the way the remediator's own actions do.
	trial := func(scenario, arm string, sc core.Scenario, script func(rt *core.Runtime, sys *core.System, now sim.Time, job uint16, iter uint32)) error {
		rt, sys, err := core.Run(sc, core.AttachOptions{Remediate: &remediate.Config{}}, script)
		if err == nil {
			res.Rows = append(res.Rows, divergenceRow(scenario, arm, rt, sys))
		}
		return err
	}

	for _, arm := range []struct {
		name       string
		unverified bool
	}{{"verified", false}, {"unverified", true}} {
		// Scenario 1 — failed push: link F sits admin-down
		// (pre-existing), and at the onset the operator re-admits it,
		// refreshing the predictor baseline the way any controller
		// action does. The push is silently eaten (FailSkip covers the
		// pre-existing ChangeSet's single push). The verified plane's
		// read-back catches the lie and re-pushes; the unverified plane
		// commits belief=up over truth=down, the predictor demands
		// traffic the dead link cannot carry, and the loop burns a full
		// detect → confirm → quarantine cycle re-learning what the
		// read-back would have said for free.
		sc := base
		sc.PreExisting = []core.LeafSpineLink{target}
		sc.Divergence = core.DivergenceSpec{
			FailSkip: 1, FailPushes: 1, Unverified: arm.unverified,
		}
		if err := trial("failed-push readmit", arm.name, sc, func(rt *core.Runtime, sys *core.System, now sim.Time, _ uint16, iter uint32) {
			if int(iter) == cfg.CleanIters {
				rt.Plane.Readmit(now, rt.Link(target))
				sys.Rebaseline()
			}
		}); err != nil {
			return nil, err
		}

		// Scenario 2 — stale LSDB: a healthy link's advertisement is
		// corrupted to "down" mid-run, and the next periodic predictor
		// refresh (one iteration later) bakes the phantom outage into
		// the expected shares. No write is involved, so
		// verify-own-writes never sees it; the verified plane catches
		// it when the first confirmed deviation triggers
		// reconciliation, the unverified plane never reconciles and
		// quarantines the innocent siblings that inherit the phantom
		// deficit.
		sc = base
		sc.Divergence = core.DivergenceSpec{Unverified: arm.unverified}
		if err := trial("stale LSDB advert", arm.name, sc, func(rt *core.Runtime, sys *core.System, now sim.Time, _ uint16, iter uint32) {
			switch int(iter) {
			case cfg.CleanIters:
				rt.Plane.Inject(fault.Divergence{
					Kind: fault.DivergeStaleLSDB,
					At:   now, Link: rt.Link(target), Up: false,
				})
			case cfg.CleanIters + 1:
				sys.Rebaseline()
			}
		}); err != nil {
			return nil, err
		}

		// Scenario 3 — partial rollout: a two-trunk quarantine lands
		// only its first operation on the fabric. Verification rolls
		// the stall forward (retry) before committing; the unverified
		// plane believes both trunks are dark while one still carries
		// traffic, and the belief never heals.
		sc = base
		sc.Trunk = 2
		sc.PreExisting = []core.LeafSpineLink{
			{LeafOrd: target.LeafOrd, SpineOrd: target.SpineOrd, Trunk: 0},
			{LeafOrd: target.LeafOrd, SpineOrd: target.SpineOrd, Trunk: 1},
		}
		sc.Divergence = core.DivergenceSpec{PartialOps: 1, Unverified: arm.unverified}
		if err := trial("partial rollout", arm.name, sc, nil); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// String renders the comparison table plus per-row plane counters.
func (r *DivergenceResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Belief vs truth — %dx%d fat tree, %d MiB per rank, %d iterations, fault-free fabric\n",
		r.Config.Leaves, r.Config.Spines, r.Config.BytesPerRank>>20, r.Config.CleanIters+r.Config.FaultIters)
	fmt.Fprintf(&b, "%-20s %-11s %9s %9s %7s %14s %10s\n",
		"scenario", "plane", "innocent", "withheld", "alerts", "t-reconcile", "converged")
	for _, row := range r.Rows {
		rec := row.TimeToReconcile.String()
		if !row.Converged {
			rec = "never"
		} else if row.TimeToReconcile == 0 {
			rec = "-"
		}
		conv := "yes"
		if !row.Converged {
			conv = "NO"
		}
		fmt.Fprintf(&b, "%-20s %-11s %9d %9d %7d %14s %10s\n",
			row.Scenario, row.Arm, row.InnocentQuarantines, row.Withheld,
			row.Alerts, rec, conv)
	}
	for _, row := range r.Rows {
		p := row.Plane
		fmt.Fprintf(&b, "plane (%s, %s): changesets=%d committed=%d rolled-back=%d retries=%d mismatches=%d stale-adopted=%d audits=%d episodes=%d/%d\n",
			row.Scenario, row.Arm, p.ChangeSets, p.Committed, p.RolledBack,
			p.Retries, p.VerifyMismatches, p.StaleAdopted, p.Audits,
			p.Reconciled, p.Divergences)
	}
	return b.String()
}

// CSV renders plottable rows.
func (r *DivergenceResult) CSV() string {
	var b strings.Builder
	b.WriteString("scenario,arm,innocent_quarantines,withheld,alerts,time_to_reconcile_us,converged\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%s,%s,%d,%d,%d,%.3f,%t\n",
			row.Scenario, row.Arm, row.InnocentQuarantines, row.Withheld,
			row.Alerts, float64(row.TimeToReconcile)/float64(sim.Microsecond),
			row.Converged)
	}
	return b.String()
}
