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

// shrinkStep is one candidate simplification. It returns false when it
// does not apply (already minimal).
type shrinkStep struct {
	name  string
	apply func(*Spec) bool
}

var shrinkSteps = []shrinkStep{
	{"fewer-iterations", func(s *Spec) bool {
		next := s.Work.Iterations / 2
		if next >= s.Work.Iterations {
			return false
		}
		s.Work.Iterations = next // normalize() restores the floor
		return true
	}},
	{"smaller-collective", func(s *Spec) bool {
		if s.Work.BytesPerRank <= 256<<10 {
			return false
		}
		s.Work.BytesPerRank /= 2
		return true
	}},
	{"fewer-leaves", func(s *Spec) bool {
		if s.Topo.Kind != FatTree2 || s.Topo.Leaves <= 4 {
			return false
		}
		s.Topo.Leaves = s.Topo.Leaves/2 + 2
		return true
	}},
	{"fewer-spines", func(s *Spec) bool {
		if s.Topo.Kind != FatTree2 || s.Topo.Spines <= 2 {
			return false
		}
		s.Topo.Spines = s.Topo.Spines/2 + 1
		return true
	}},
	{"single-job", func(s *Spec) bool {
		// Drop the shared plane first: a bug that survives as a plain
		// single-job run reproduces without the 2-job machinery (and
		// frees single-host-leaves below to shrink further).
		if s.Work.Jobs == 0 {
			return false
		}
		s.Work.Jobs = 0
		return true
	}},
	{"single-host-leaves", func(s *Spec) bool {
		if s.Topo.Kind != FatTree2 || s.Topo.HostsPerLeaf <= 1 {
			return false
		}
		s.Topo.HostsPerLeaf = 1
		return true
	}},
	{"untrunked", func(s *Spec) bool {
		if s.Topo.Kind != FatTree2 || s.Topo.Trunk <= 1 {
			return false
		}
		s.Topo.Trunk = 1
		s.Fault.Trunk = 0
		return true
	}},
	{"no-jitter", func(s *Spec) bool {
		if s.Work.JitterPS == 0 {
			return false
		}
		s.Work.JitterPS = 0
		return true
	}},
	{"ring-collective", func(s *Spec) bool {
		if s.Topo.Kind != FatTree2 || s.Work.Collective == core.RingAllReduce {
			return false
		}
		s.Work.Collective = core.RingAllReduce
		return true
	}},
	{"earlier-onset", func(s *Spec) bool {
		// The earliest-failing prefix of the fault schedule: pull the
		// onset to the front (normalize keeps learned-model warm-up).
		if s.Fault.Kind == faultNone || s.Fault.Onset == 0 {
			return false
		}
		s.Fault.Onset = 0
		return true
	}},
	{"no-resilience", func(s *Spec) bool {
		// Drop the workload re-planner before the control loop: a bug
		// that survives as a plain remediated run reproduces without the
		// re-rank machinery (and frees the oversubscribed-shape pins).
		if !s.Work.Resilience {
			return false
		}
		s.Work.Resilience = false
		return true
	}},
	{"one-stale-flip", func(s *Spec) bool {
		if s.Diverge.Stale[1].AtPS <= 0 {
			return false
		}
		s.Diverge.Stale[1] = StaleFlip{}
		return true
	}},
	{"no-failed-pushes", func(s *Spec) bool {
		if s.Diverge.FailPushes == 0 {
			return false
		}
		s.Diverge.FailSkip, s.Diverge.FailPushes = 0, 0
		return true
	}},
	{"no-divergence", func(s *Spec) bool {
		// Drop the control-plane faults before the control loop itself:
		// a bug that survives as a plain remediated run reproduces
		// without the belief/truth machinery.
		if !s.Diverge.Active() {
			return false
		}
		s.Diverge = DivergeSpec{}
		return true
	}},
	{"no-remediation", func(s *Spec) bool {
		if !s.Work.Remediate {
			return false
		}
		s.Work.Remediate = false
		return true
	}},
	{"smaller-clos", func(s *Spec) bool {
		if s.Topo.Kind != Clos3 {
			return false
		}
		shrunk := false
		if s.Topo.Pods > 2 {
			s.Topo.Pods = 2
			shrunk = true
		}
		if s.Topo.LeavesPerPod > 2 {
			s.Topo.LeavesPerPod = 2
			shrunk = true
		}
		if s.Topo.CoresPerGroup > 2 {
			s.Topo.CoresPerGroup = 2
			shrunk = true
		}
		return shrunk
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
			cand := spec
			if !step.apply(&cand) {
				continue
			}
			cand.normalize()
			if cand == spec {
				continue // the step bounced off normalize's floor
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
