package experiments

import (
	"fmt"
	"strings"

	"flowpulse/internal/core"
	"flowpulse/internal/remediate"
	"flowpulse/internal/sim"
)

// ParallelJobsConfig exercises the shared monitoring plane (§7
// "Parallel Jobs"): two concurrent training jobs on one fabric, ONE
// telemetry tap per switch, per-job analysis pipelines, and one shared
// remediator. Three runs demonstrate the plane's contracts:
//
//   - shared fault, corroborated: both jobs' rings traverse the faulty
//     trunk; both pipelines flag it, the arbiter quarantines it ONCE,
//     and cross-job corroboration confirms after each job's 2nd
//     deviating window instead of the single-job K=3.
//   - shared fault, K=3: the same fault with corroboration disabled —
//     the classic confirmation path, for the time-to-quarantine delta.
//   - job-local fault: the jobs train on disjoint leaf spans and the
//     fault sits inside job 1's slice; job 2's pipeline must stay
//     silent (attribution does not leak across jobs).
type ParallelJobsConfig struct {
	// Grid: the fabric and collective (defaults 8×4, 8 MiB;
	// HostsPerLeaf is 2 — one host column per job), the injected silent
	// loss DropRate (5%), the job-1 iteration after which the fault
	// activates as CleanIters (2) and the rest of the per-job run as
	// FaultIters (8).
	Grid
}

// ParallelJobsRow is one run's outcome.
type ParallelJobsRow struct {
	Name string
	// AlertsByJob counts each job's pipeline events (job id → count).
	AlertsJob1, AlertsJob2 int
	// Quarantines and Corroborations are the shared arbiter's counters.
	Quarantines, Corroborations uint64
	// TimeToQuarantine is first quarantine minus fault onset (0 when
	// the run never quarantined).
	TimeToQuarantine sim.Duration
	// Detail is the confirmation's timeline detail (shows whether the
	// cross-job fast path fired).
	Detail string
}

// ParallelJobsResult is the experiment outcome.
type ParallelJobsResult struct {
	Config ParallelJobsConfig
	Rows   []ParallelJobsRow
}

// parallelRun runs a two-job scenario on the shared plane, injects a
// fault at the onset iteration of job 1, and summarizes.
func parallelRun(name string, sc core.Scenario, rcfg remediate.Config, ref core.LeafSpineLink, cfg ParallelJobsConfig) (ParallelJobsRow, error) {
	row := ParallelJobsRow{Name: name}
	sc.Faults = []core.FaultSpec{{Kind: core.FaultBernoulli, Leaf: ref.LeafOrd, Spine: ref.SpineOrd, Rate: cfg.DropRate, Onset: cfg.CleanIters}}
	rt, sys, err := core.Run(sc, core.AttachOptions{Remediate: &rcfg}, nil)
	if err != nil {
		return row, err
	}
	onsetAt := iterEnd(rt, cfg.CleanIters)

	row.AlertsJob1 = len(sys.Jobs()[0].Pipeline.Events)
	row.AlertsJob2 = len(sys.Jobs()[1].Pipeline.Events)
	st := sys.Remediator().Stats()
	row.Quarantines, row.Corroborations = st.Quarantines, st.Corroborations
	for _, a := range sys.Remediator().Timeline {
		switch a.Kind {
		case remediate.ActionConfirm:
			if row.Detail == "" {
				row.Detail = a.Detail
			}
		case remediate.ActionQuarantine:
			if row.TimeToQuarantine == 0 {
				row.TimeToQuarantine = sim.Duration(a.At - onsetAt)
			}
		}
	}
	return row, nil
}

// ParallelJobs runs all three scenarios.
func ParallelJobs(cfg ParallelJobsConfig) (*ParallelJobsResult, error) {
	cfg = resolve("paralleljobs", cfg)
	base := cfg.scenario(cfg.Seed)
	base.HostsPerLeaf, base.Iterations = 2, cfg.CleanIters+cfg.FaultIters
	base.Jobs = []core.JobScenario{
		{Job: 1, HostIx: 0},
		{Job: 2, HostIx: 1},
	}
	res := &ParallelJobsResult{Config: cfg}
	sharedRef := core.LeafSpineLink{LeafOrd: cfg.Leaves / 2, SpineOrd: 1}

	// Disjoint leaf spans: the fault sits inside job 1's slice, out of
	// job 2's reach. (Spans must be identical or disjoint — a partial
	// overlap inherits the other job's spray comb at its private
	// leaves; see DESIGN.md.)
	local := base
	local.Jobs = []core.JobScenario{
		{Job: 1, HostIx: 0, LeafFirst: 0, LeafCount: cfg.Leaves / 2},
		{Job: 2, HostIx: 1, LeafFirst: cfg.Leaves / 2, LeafCount: cfg.Leaves - cfg.Leaves/2},
	}
	localRef := core.LeafSpineLink{LeafOrd: 0, SpineOrd: cfg.Spines / 2}

	for _, run := range []struct {
		name string
		sc   core.Scenario
		rcfg remediate.Config
		ref  core.LeafSpineLink
	}{
		// Both jobs span every leaf: the faulty trunk carries both rings.
		{"shared fault, corroborated", base, remediate.Config{}, sharedRef},
		{"shared fault, K=3", base, remediate.Config{CorroborateWindows: -1}, sharedRef},
		{"job-local fault", local, remediate.Config{}, localRef},
	} {
		row, err := parallelRun(run.name, run.sc, run.rcfg, run.ref, cfg)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// String renders the comparison.
func (r *ParallelJobsResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Parallel jobs on one shared monitoring plane — %dx%d fat tree, 2 jobs, %d MiB per rank, %s drop\n",
		r.Config.Leaves, r.Config.Spines, r.Config.BytesPerRank>>20, pct(r.Config.DropRate))
	fmt.Fprintf(&b, "%-28s %7s %7s %5s %7s %14s\n",
		"run", "j1", "j2", "quar", "corrob", "t-quarantine")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-28s %7d %7d %5d %7d %14v\n",
			row.Name, row.AlertsJob1, row.AlertsJob2,
			row.Quarantines, row.Corroborations, row.TimeToQuarantine)
	}
	for _, row := range r.Rows {
		if row.Detail != "" {
			fmt.Fprintf(&b, "confirm (%s): %s\n", row.Name, row.Detail)
		}
	}
	return b.String()
}

// CSV renders plottable rows.
func (r *ParallelJobsResult) CSV() string {
	var b strings.Builder
	b.WriteString("run,alerts_job1,alerts_job2,quarantines,corroborations,time_to_quarantine_us\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%s,%d,%d,%d,%d,%.3f\n",
			row.Name, row.AlertsJob1, row.AlertsJob2, row.Quarantines,
			row.Corroborations, float64(row.TimeToQuarantine)/float64(sim.Microsecond))
	}
	return b.String()
}
