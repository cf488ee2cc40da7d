package simtest

// Shrinking: a failing spec is simplified by a fixed list of
// transformations, each accepted only if the shrunken spec still fails
// some oracle (not necessarily the same one — any failure is a bug, and
// the smaller repro is always the better report). Transformations apply
// greedily to fixpoint under a run budget; normalize() keeps every
// candidate inside the valid envelope, so the shrinker cannot wander
// into specs the runner refuses.

import "flowpulse/internal/core"

// ShrinkBudget is the default number of Run invocations a shrink may
// spend.
const ShrinkBudget = 40

// shrinkStep is one candidate simplification. A step that does not
// apply (already minimal, or undone by normalize) leaves the normalized
// spec as it was, and Shrink moves on without spending a run.
type shrinkStep struct {
	name  string
	apply func(*Spec)
}

var shrinkSteps = []shrinkStep{
	// normalize() restores the floors these halvings cross.
	{"fewer-iterations", func(s *Spec) { s.Scenario.Iterations /= 2 }},
	{"smaller-collective", func(s *Spec) { s.Scenario.BytesPerRank /= 2 }},
	{"fewer-leaves", func(s *Spec) {
		if s.Scenario.Pods == 0 {
			s.Scenario.Leaves = s.Scenario.Leaves/2 + 2
		}
	}},
	{"fewer-spines", func(s *Spec) {
		if s.Scenario.Pods == 0 {
			s.Scenario.Spines = s.Scenario.Spines/2 + 1
		}
	}},
	// Drop the shared plane first: a bug that survives as a plain
	// single-job run reproduces without the 2-job machinery (and frees
	// single-host-leaves below to shrink further).
	{"single-job", func(s *Spec) { s.Scenario.Jobs = nil }},
	{"single-host-leaves", func(s *Spec) { s.Scenario.HostsPerLeaf = 1 }},
	{"untrunked", func(s *Spec) {
		s.Scenario.Trunk = 1
		if f := s.fault(); f != nil {
			f.Trunk = 0
		}
	}},
	{"no-jitter", func(s *Spec) { s.Scenario.JitterMax = 0 }},
	{"ring-collective", func(s *Spec) { s.Scenario.Collective = core.RingAllReduce }},
	// The earliest-failing prefix of the fault schedule: pull the onset
	// to the front (normalize keeps learned-model warm-up).
	{"earlier-onset", func(s *Spec) {
		if f := s.fault(); f != nil {
			f.Onset = 0
		}
	}},
	// Drop the workload re-planner before the control loop: a bug that
	// survives as a plain remediated run reproduces without the re-rank
	// machinery (and frees the oversubscribed-shape pins).
	{"no-resilience", func(s *Spec) { s.Resilience = false }},
	{"one-stale-flip", func(s *Spec) {
		if d := &s.Scenario.Divergence; len(d.Stale) > 1 {
			d.Stale = d.Stale[:1]
		}
	}},
	{"no-failed-pushes", func(s *Spec) {
		if d := &s.Scenario.Divergence; d.FailPushes != 0 {
			d.FailSkip, d.FailPushes = 0, 0
		}
	}},
	// Drop the control-plane faults before the control loop itself: a
	// bug that survives as a plain remediated run reproduces without the
	// belief/truth machinery.
	{"no-divergence", func(s *Spec) { s.Scenario.Divergence = core.DivergenceSpec{} }},
	{"no-remediation", func(s *Spec) { s.Remediate = false }},
	{"smaller-clos", func(s *Spec) {
		if sc := &s.Scenario; sc.Pods != 0 {
			sc.Pods, sc.Leaves, sc.CoresPerGroup = min(sc.Pods, 2), min(sc.Leaves, 2), min(sc.CoresPerGroup, 2)
		}
	}},
}

// Shrink minimizes a failing spec. It returns the smallest spec found
// that still violates an oracle, plus the number of Run invocations
// spent. The input spec is assumed failing; if budget is <= 0,
// ShrinkBudget applies.
func Shrink(spec Spec, opts Options, budget int) (Spec, int) {
	if budget <= 0 {
		budget = ShrinkBudget
	}
	spec.normalize()
	runs := 0
	for {
		improved := false
		for _, step := range shrinkSteps {
			if runs >= budget {
				return spec, runs
			}
			// A deep copy: a step that edits the fault entry must not
			// edit the accepted spec through a shared slice.
			cand := spec.clone()
			step.apply(&cand)
			cand.normalize()
			if cand.MarshalCompact() == spec.MarshalCompact() {
				continue // the step did not apply, or bounced off normalize's floor
			}
			runs++
			if res := Run(cand, opts); !res.OK() {
				spec = cand
				improved = true
			}
		}
		if !improved {
			return spec, runs
		}
	}
}
