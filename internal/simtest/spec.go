// Package simtest is FlowPulse's deterministic simulation fuzzer — the
// VOPR/FoundationDB pattern applied to a network monitoring system.
// A single 64-bit seed derives a complete scenario (topology, workload,
// fault schedule); the full detect → localize → remediate pipeline runs
// over it twice; and a set of invariant oracles checks what no example-
// based test can: byte conservation on every link, silence on healthy
// fabrics, detection and localization of every persistent fault, damped
// remediation, and bit-identical replay. Failing seeds shrink to a
// minimal spec and print as a one-line repro command.
package simtest

import (
	"cmp"
	"encoding/json"
	"fmt"
	"slices"
	"strings"

	"flowpulse/internal/core"
	"flowpulse/internal/sim"
	"flowpulse/internal/transport"
)

// Spec is one complete fuzz scenario: the core.Scenario the run builds
// and the monitor the fuzzer attaches to it. The zero of every field is
// meaningful, so a Spec round-trips through JSON losslessly and the
// compact encoding is the repro format.
//
// The monitor's keys sit flat beside "scenario". Its Predictor is the
// load model (fat tree; Clos runs learned at both levels); Threshold is
// always derived (DetectThreshold), never drawn, so normalize zeroes it;
// Remediate attaches the closed loop (fat tree only); CEDiscount is for
// congestion runs only. Resilience extends the loop into the workload
// (remediated fat-tree runs only): the ring is interleaved across leaves
// (Scenario.InterleaveRing), and a quarantine that cuts a leaf below the
// recovery target re-ranks it contiguous at the next iteration barrier.
// normalize() pins the envelope the re-planner is specified for — the
// 2:1 oversubscribed shape (2 spines, 4 hosts/leaf, untrunked, 2 MiB
// ranks) under at most a downstream Bernoulli fault with onset ≥ 2, so
// the quarantine halves the victim leaf's uplink capacity and the
// re-rank restores the uplink-gated baseline.
type Spec struct {
	// Scenario is the run, built as is once normalize has clamped it into
	// the envelope the oracles cover. Pods > 0 makes it a three-level
	// Clos (Leaves and Spines then count per pod, and the run is always
	// Ring-AllReduce); Faults holds at most one entry, none on a clean
	// run. Jobs, when set, is the shared plane (§7 "Parallel Jobs"): two
	// full-span jobs, one host column each, with per-job pipelines and
	// aggregate-symmetry detection — normalize pins the envelope the
	// plane is specified for: fat tree, ring, analytical model, no
	// remediation, at most a downstream Bernoulli fault. Congestion and
	// Divergence only come from WithCongestion and WithDivergence, never
	// from Generate, so the scenarios existing seeds produce are
	// untouched.
	Scenario core.Scenario `json:"scenario"`
	core.MonitorSpec
}

// fault returns the spec's one fault-schedule entry, nil on a clean run.
func (s *Spec) fault() *core.FaultSpec {
	if len(s.Scenario.Faults) == 0 {
		return nil
	}
	return &s.Scenario.Faults[0]
}

// congested reports whether any congestion traffic source is configured.
func congested(c *core.CongestionSpec) bool {
	return c.Incast > 0 || c.Storm > 0 || c.Straggler > 0
}

// twoJobs is the shared plane's job list: two full-span jobs, one host
// column each.
func twoJobs() []core.JobScenario {
	return []core.JobScenario{{Job: 1, HostIx: 0}, {Job: 2, HostIx: 1}}
}

// clone returns s with its own copies of the scenario's slices, so an
// edit to one never shows through the other.
func (s Spec) clone() Spec {
	sc := &s.Scenario
	sc.PreExisting = slices.Clone(sc.PreExisting)
	sc.Faults = slices.Clone(sc.Faults)
	sc.Jobs = slices.Clone(sc.Jobs)
	sc.Divergence.Stale = slices.Clone(sc.Divergence.Stale)
	return s
}

// DetectThreshold is the detection threshold a spec's pipeline runs at.
// It is derived, not drawn: a window of B bytes is quantized in MTU
// units by spray and scheduling, so thresholds below ~MTU/B alert on
// arithmetic noise, not faults (the paper's Fig 5c size–threshold
// tradeoff). The fuzzer therefore scales the threshold to 8 MTU of the
// smallest expected per-port window, floored at the paper's 1%, and
// normalize() keeps every fault rate a detectable multiple of it.
func (s Spec) DetectThreshold() float64 {
	const mtu = 4160
	sc := &s.Scenario
	d := float64(sc.BytesPerRank)
	var perPort float64
	if sc.Pods > 0 {
		// The spine monitors see the inter-pod share spread over
		// spine-count × core-group ports — the smallest windows.
		perPort = 2 * d / float64(sc.Spines*sc.CoresPerGroup)
	} else {
		st := float64(sc.Spines * sc.Trunk)
		if sc.Collective == core.RingAllReduce {
			// A contiguous ring crosses each leaf boundary once per
			// direction: ~2·D(N−1)/N ingress per leaf.
			perPort = 1.8 * d / st
			if s.Resilience {
				// The interleaved ring crosses once per RANK, not once
				// per leaf: H× the contiguous ring's boundary traffic.
				perPort *= float64(sc.HostsPerLeaf)
			}
		} else {
			perPort = 0.9 * float64(sc.HostsPerLeaf) * d / st
		}
	}
	return clamp(8*mtu/perPort, 0.01, 0.25)
}

// Generate derives the Spec for a seed. Every draw comes from named
// streams of the seed, so adding a new knob never perturbs the
// scenarios existing seeds map to (same discipline as the simulator's
// own RNG use).
func Generate(seed uint64) Spec {
	s := Spec{Scenario: core.Scenario{Seed: seed}}
	sc := &s.Scenario
	topoRNG := sim.NewRNG(seed, "simtest/topo")
	workRNG := sim.NewRNG(seed, "simtest/work")
	faultRNG := sim.NewRNG(seed, "simtest/fault")

	if topoRNG.Float64() < 0.8 {
		sc.Leaves = 4 + topoRNG.IntN(7) // 4..10
		sc.Spines = 2 + topoRNG.IntN(4) // 2..5
		sc.HostsPerLeaf, sc.Trunk = 1, 1
		if topoRNG.Float64() < 0.25 {
			sc.HostsPerLeaf = 2
		}
		if topoRNG.Float64() < 0.25 {
			sc.Trunk = 2
		}
	} else {
		sc.Pods = 2 + topoRNG.IntN(2)   // 2..3
		sc.Leaves = 2 + topoRNG.IntN(3) // 2..4 per pod
		sc.Spines = 2
		sc.CoresPerGroup = 2 + topoRNG.IntN(2) // 2..3
	}

	sizes := []int64{1 << 20, 1 << 20, 2 << 20, 2 << 20, 4 << 20}
	sc.BytesPerRank = sizes[workRNG.IntN(len(sizes))]
	if sc.Pods == 0 {
		colls := []core.CollectiveKind{
			core.RingAllReduce, core.RingAllReduce,
			core.ReduceScatter, core.AllGatherKind, core.AllToAllKind,
		}
		sc.Collective = colls[workRNG.IntN(len(colls))]
		switch p := workRNG.Float64(); {
		case p < 0.5:
			s.Predictor = core.AnalyticalModel
		case p < 0.7:
			s.Predictor = core.SimulationModel
		default:
			s.Predictor = core.LearnedModel
		}
		if sc.Collective == core.AllToAllKind {
			// Least-loaded spray balances each sender's aggregate egress,
			// not its per-destination split, so a receiver's per-port mix
			// in all-to-all is structurally imbalanced (±8–20% when
			// healthy). Only the iteration-aligned reference run predicts
			// through that; the uniform-split analytical model and the
			// warm-up-mean learned baseline both alert on clean fabrics.
			s.Predictor = core.SimulationModel
		}
		sc.Iterations = 6 + workRNG.IntN(5) // 6..10
		if s.Predictor == core.LearnedModel {
			sc.Iterations = 9 + workRNG.IntN(4) // warm-up headroom
		}
		if workRNG.Float64() < 0.5 {
			sc.JitterMax = sim.Duration(1+workRNG.IntN(2)) * sim.Microsecond
		}
		// The control plane's rebaseline path is wired to models that
		// implement Rebaseliner; the simulation model cannot refresh
		// its reference windows, so the loop only runs on the others.
		// Ring only: the quarantine shifts live load, and only the
		// ring's balanced per-port mix keeps the rebaselined model's
		// expectations tight enough to not implicate bystanders.
		if s.Predictor == core.AnalyticalModel &&
			sc.Collective == core.RingAllReduce && workRNG.Float64() < 0.35 {
			s.Remediate = true
		}
	} else {
		sc.Collective = core.RingAllReduce
		s.Predictor = core.LearnedModel
		sc.Iterations = 9 + workRNG.IntN(4) // 9..12
	}

	sc.Faults = generateFault(&s, faultRNG)

	// Two concurrent jobs on the shared monitoring plane. The draw
	// comes from its own named stream so adding the knob never
	// perturbed the topo/work/fault draws existing seeds map to, and
	// only seeds already inside the shared-plane envelope (see
	// Spec.Scenario) opt in.
	jobsRNG := sim.NewRNG(seed, "simtest/jobs")
	f := s.fault()
	if sc.Pods == 0 && s.Predictor == core.AnalyticalModel &&
		sc.Collective == core.RingAllReduce && !s.Remediate &&
		(f == nil || (f.Kind == core.FaultBernoulli && !f.Upstream)) &&
		jobsRNG.Float64() < 0.3 {
		sc.Jobs = twoJobs()
	}

	// The workload re-planner rides on the control loop. Its own named
	// stream keeps every earlier draw stable, and only remediated seeds
	// (already analytical + ring) opt in.
	resRNG := sim.NewRNG(seed, "simtest/resilience")
	if s.Remediate && resRNG.Float64() < 0.5 {
		s.Resilience = true
	}

	s.normalize()
	return s
}

// generateFault draws the spec's fault schedule: nil, or one entry.
func generateFault(s *Spec, rng *sim.RNG) []core.FaultSpec {
	// Rates are drawn as multiples of the spec's derived detection
	// threshold so every persistent fault is comfortably detectable and
	// the detection-deadline oracle is meaningful at any scale.
	thr := s.DetectThreshold()
	sc := &s.Scenario
	var f core.FaultSpec
	if sc.Pods > 0 {
		if rng.Float64() >= 0.6 {
			return nil
		}
		f.Kind = core.FaultBernoulli
		f.Rate = thr * (3 + 2*rng.Float64())
		f.CoreSpine = rng.Float64() < 0.5
		f.Pod = rng.IntN(sc.Pods)
		f.LeafInPod = rng.IntN(sc.Leaves)
		f.SpineInPod = rng.IntN(sc.Spines)
		f.CoreIx = rng.IntN(sc.CoresPerGroup)
		// The learned baseline forms over the warm-up windows; a
		// fault inside them is baked into the model, not detected.
		f.Onset = 4 + rng.IntN(2)
		return []core.FaultSpec{f}
	}

	switch p := rng.Float64(); {
	case p < 0.25:
		return nil
	case p < 0.55:
		f.Kind = core.FaultBernoulli
		f.Rate = thr * (3 + 3*rng.Float64())
	case p < 0.65:
		f.Kind = core.FaultBlackHole
		f.Rate = 1
	case p < 0.82:
		f.Kind = core.FaultGE
		f.Rate = thr * (4 + 2*rng.Float64()) // steady-state loss
		f.GEPBG = 0.05 + 0.15*rng.Float64()
		f.GELossBad = 0.4 + 0.4*rng.Float64()
	default:
		f.Kind = core.FaultFlap
		// Per-packet least-loaded spray actively refills a lossy port
		// (drops drain its queue, so it looks *least* loaded), masking
		// duty-cycle-averaged loss below ~15% entirely. A 2/3-duty down
		// window at ≥30% in-burst loss keeps the port deficit well above
		// what the spray can compensate at any flap phase.
		f.Rate = max(0.3+0.25*rng.Float64(), 3*thr)
		est := estIterTime(s)
		f.FlapPeriod = 3 * est
		f.FlapDown = 2 * est
		f.FlapPhase = rng.UniformDuration(3 * est)
	}
	f.Leaf = rng.IntN(sc.Leaves)
	f.Spine = rng.IntN(sc.Spines)
	f.Trunk = rng.IntN(sc.Trunk)
	// Upstream (leaf→spine) loss is only cleanly observable in
	// all-to-all: a ring port has a single sender, so the victim leaf
	// cannot distinguish the remote uplink from its own local link,
	// while many-sender ports localize it exactly (one affected sender,
	// the rest clean). Port-level detection dilutes the deficit by the
	// sender count, so normalize() scales the rate up to match.
	if f.Kind == core.FaultBernoulli && sc.Collective == core.AllToAllKind &&
		s.Predictor == core.SimulationModel {
		f.Upstream = rng.Float64() < 0.5
	}
	f.Onset = rng.IntN(sc.Iterations/2 + 1)
	return []core.FaultSpec{f}
}

// estIterTime is the rough wall time of one ring iteration: each rank
// moves ~2·D wire bytes per iteration at the default 400 Gb/s.
func estIterTime(s *Spec) sim.Duration {
	return sim.SerializationDelay(int(2*s.Scenario.BytesPerRank), 400e9)
}

// normalize clamps a Spec into the valid envelope. It runs after
// generation, after every shrink step, and on operator-supplied specs,
// so the runner only ever sees scenarios it can build — and only
// scenarios some oracle covers: every Scenario field outside the
// envelopes below is zeroed.
func (s *Spec) normalize() {
	sc := &s.Scenario
	s.MonitorSpec.Threshold = 0 // derived: DetectThreshold
	sc.Shards, sc.Spray, sc.Transport = 0, "", transport.Config{}
	sc.PreExisting, sc.Background, sc.BackgroundBytes = nil, 0, 0
	sc.Congestion.ECNKMin, sc.Congestion.ECNKMax = 0, 0
	sc.Divergence.PartialOps, sc.Divergence.Unverified = 0, false
	// The schedule is at most one fault, of a kind the oracles know.
	if len(sc.Faults) > 1 {
		sc.Faults = sc.Faults[:1]
	}
	if f := s.fault(); f != nil {
		switch f.Kind {
		case core.FaultBernoulli, core.FaultBlackHole, core.FaultGE, core.FaultFlap:
		default:
			sc.Faults = nil
		}
	}
	f := s.fault()

	sc.BytesPerRank = max(sc.BytesPerRank, 256<<10)
	if sc.Pods <= 0 {
		sc.Pods, sc.CoresPerGroup = 0, 0
		sc.Leaves = clamp(sc.Leaves, 4, 32)
		sc.Spines = clamp(sc.Spines, 2, 16)
		sc.HostsPerLeaf = clamp(sc.HostsPerLeaf, 1, 2)
		sc.Trunk = clamp(sc.Trunk, 1, 2)
		if sc.Collective == "" {
			sc.Collective = core.RingAllReduce
		}
		if s.Predictor == "" {
			s.Predictor = core.AnalyticalModel
		}
		if sc.Collective == core.AllToAllKind {
			s.Predictor = core.SimulationModel // see Generate
		}
		if s.Predictor != core.AnalyticalModel || sc.Collective != core.RingAllReduce {
			s.Remediate = false
		}
		if f != nil {
			if f.Kind == core.FaultFlap {
				// Flap timing is phrased in iteration wall time, which only
				// the ring's fixed schedule makes predictable.
				sc.Collective = core.RingAllReduce
				f.Upstream = false
				if f.FlapPeriod <= 0 {
					f.FlapPeriod = 3 * estIterTime(s)
				}
				f.FlapDown = clamp(f.FlapDown, 1, f.FlapPeriod)
				f.FlapPhase = clamp(f.FlapPhase, 0, f.FlapPeriod-1)
			}
			f.Leaf = clamp(f.Leaf, 0, sc.Leaves-1)
			f.Spine = clamp(f.Spine, 0, sc.Spines-1)
			f.Trunk = clamp(f.Trunk, 0, sc.Trunk-1)
			f.CoreSpine, f.Pod, f.LeafInPod, f.SpineInPod, f.CoreIx = false, 0, 0, 0, 0
		}
	} else {
		sc.Pods = clamp(sc.Pods, 2, 4)
		sc.Leaves = clamp(sc.Leaves, 2, 4)
		sc.Spines = 2
		sc.CoresPerGroup = clamp(sc.CoresPerGroup, 2, 4)
		sc.HostsPerLeaf, sc.Trunk = 0, 0
		sc.Collective = core.RingAllReduce
		s.Predictor = core.LearnedModel
		s.Remediate = false
		sc.JitterMax = 0
		if f != nil {
			if f.Kind != core.FaultBernoulli {
				f.Kind = core.FaultBernoulli
				if f.Rate <= 0 || f.Rate >= 1 {
					f.Rate = 0.05
				}
			}
			f.Pod = clamp(f.Pod, 0, sc.Pods-1)
			f.LeafInPod = clamp(f.LeafInPod, 0, sc.Leaves-1)
			f.SpineInPod = clamp(f.SpineInPod, 0, sc.Spines-1)
			f.CoreIx = clamp(f.CoreIx, 0, sc.CoresPerGroup-1)
			f.Leaf, f.Spine, f.Trunk = 0, 0, 0
		}
	}

	// The shared-plane envelope (see Spec.Scenario): two full-span ring
	// jobs, one host column each, analytical model, no remediation, and
	// at most a downstream Bernoulli fault. Per-job sender signatures
	// comb under shared spray, so this is exactly the geometry the
	// aggregate-symmetry basis is specified for (see DESIGN.md).
	if len(sc.Jobs) != 0 && sc.Pods == 0 {
		sc.Jobs = twoJobs()
		sc.HostsPerLeaf = 2
		sc.Collective = core.RingAllReduce
		s.Predictor = core.AnalyticalModel
		s.Remediate = false
		if f != nil {
			f.Kind = core.FaultBernoulli
			f.Upstream = false
		}
	} else {
		sc.Jobs = nil
	}

	// The congestion envelope: adversarial traffic on the single-job
	// two-level fat tree only. Congestion never rides the resilience
	// sweep — storm-perturbed goodput makes the recovery bound too noisy
	// to oracle — but remediated seeds stay in, because they give the
	// no-quarantine-under-pure-congestion oracle its teeth.
	c := &sc.Congestion
	if sc.Pods != 0 || len(sc.Jobs) != 0 {
		*c = core.CongestionSpec{}
		s.CEDiscount = 0
	}
	s.CEDiscount = clamp(s.CEDiscount, 0, 4)
	if c.Incast > 0 {
		c.Incast = clamp(c.Incast, 20*sim.Microsecond, sim.Millisecond)
		c.IncastLeaf = clamp(c.IncastLeaf, 0, sc.Leaves-1)
		if c.IncastFanout != 0 {
			c.IncastFanout = clamp(c.IncastFanout, 1, (sc.Leaves-1)*sc.HostsPerLeaf)
		}
		if c.IncastBytes != 0 {
			c.IncastBytes = clamp(c.IncastBytes, 4<<10, 256<<10)
		}
		if c.IncastHigh {
			// In-class bursts contend with the collective directly; a
			// full-fanout 128 KiB barrage would starve the victim leaf
			// outright, so the adversarial-tenant shape is pinned to a
			// modest burst.
			c.IncastFanout = clamp(c.IncastFanout, 1, 3)
			c.IncastBytes = clamp(c.IncastBytes, 4<<10, 64<<10)
		}
	} else {
		c.Incast, c.IncastLeaf = 0, 0
		c.IncastFanout, c.IncastBytes, c.IncastHigh = 0, 0, false
	}
	if c.Storm > 0 {
		c.Storm = clamp(c.Storm, 2*sim.Microsecond, sim.Millisecond)
		c.StormBytes = clamp(c.StormBytes, 4<<10, 256<<10)
	} else {
		c.Storm, c.StormBytes = 0, 0
	}
	if c.Straggler > 0 {
		c.Straggler = clamp(c.Straggler, sim.Microsecond, estIterTime(s))
		c.StragglerLeaf = clamp(c.StragglerLeaf, 0, sc.Leaves-1)
	} else {
		c.Straggler, c.StragglerLeaf = 0, 0
	}
	if congested(c) {
		s.Resilience = false
	}

	// The divergence envelope: failed pushes and up to two advertise-down
	// flips (an entry at or before time 0 is unused) on the remediated
	// single-job fat tree only — the plane's Reconcile and audit paths
	// are driven off the remediation tick, so an unremediated run would
	// never process the injections. The resilience and congestion twists
	// are shed: a stale belief re-shapes the predictor's expectations
	// mid-run, which breaks the assumptions their recovery/false-positive
	// oracles rest on.
	dv := &sc.Divergence
	if !s.Remediate || sc.Pods != 0 || len(sc.Jobs) != 0 {
		*dv = core.DivergenceSpec{}
	}
	dv.Stale = slices.DeleteFunc(dv.Stale, func(st core.StaleSpec) bool { return st.At <= 0 })
	if len(dv.Stale) > 2 {
		dv.Stale = dv.Stale[:2]
	}
	if dv.Enabled() {
		s.Resilience = false
		sc.Congestion, s.CEDiscount = core.CongestionSpec{}, 0
		sc.Iterations = max(sc.Iterations, 8) // room for a stale flip plus the audit behind it
		dv.FailSkip = clamp(dv.FailSkip, 0, 4)
		// FailPushes ≤ the plane's default retry budget (2): every
		// ChangeSet commits within one verify loop, so a dropped push is
		// repaired instantly and only stale-LSDB decay produces
		// observable divergence episodes.
		dv.FailPushes = clamp(dv.FailPushes, 0, 2)
		est := estIterTime(s)
		for i := range dv.Stale {
			st := &dv.Stale[i]
			// Land inside the run with ≥4 iterations of headroom: the
			// audit below is guaranteed a tick after the corruption, so
			// belief provably reconverges before the end-of-run oracle.
			st.At = clamp(st.At, sim.Time(est), sim.Time(sc.Iterations-4)*sim.Time(est))
			st.Link.LeafOrd = clamp(st.Link.LeafOrd, 0, sc.Leaves-1)
			st.Link.SpineOrd = clamp(st.Link.SpineOrd, 0, sc.Spines-1)
			st.Link.Trunk = clamp(st.Link.Trunk, 0, sc.Trunk-1)
			st.Up = false
		}
		if dv.AuditEvery <= 0 {
			dv.AuditEvery = 2 * est
		}
		dv.AuditEvery = clamp(dv.AuditEvery, est, 3*est)
	} else {
		*dv = core.DivergenceSpec{}
	}

	// The resilience envelope (see Spec.Resilience): the workload
	// re-planner rides the control loop on the 2:1 oversubscribed
	// interleaved ring, under at most a downstream Bernoulli fault —
	// exactly the geometry where a quarantine halves the victim leaf's
	// capacity and the re-rank provably restores the uplink-gated
	// baseline (DESIGN.md decision 13).
	if !s.Remediate || sc.Pods != 0 {
		s.Resilience = false
	}
	sc.InterleaveRing = s.Resilience
	if s.Resilience {
		sc.Spines = 2
		sc.HostsPerLeaf = 4
		sc.Trunk = 1
		sc.BytesPerRank = 2 << 20
		if f != nil {
			f.Kind = core.FaultBernoulli
			f.Upstream = false
			f.Trunk = 0
			f.Spine = clamp(f.Spine, 0, 1)
		}
	}

	minIters := 4
	if s.Predictor == core.LearnedModel {
		minIters = 6
	}
	sc.Iterations = clamp(sc.Iterations, minIters, 32)
	if f == nil {
		return
	}

	// Rates are pinned to the derived threshold: ≥3× so the
	// detection-deadline oracle holds, capped so the collective still
	// completes through retransmission.
	thr := s.DetectThreshold()
	if f.Kind == core.FaultGE && thr > 0.12 {
		// GE's burst variance eats the detection margin at coarse
		// thresholds; the steady Bernoulli process keeps the oracle sound.
		f.Kind = core.FaultBernoulli
	}
	if f.Upstream && (f.Kind != core.FaultBernoulli || sc.Collective != core.AllToAllKind ||
		s.Predictor != core.SimulationModel) {
		f.Upstream = false
	}
	switch f.Kind {
	case core.FaultBernoulli:
		if f.Rate <= 0 || f.Rate >= 1 {
			f.Rate = 0.05
		}
		lo, hi := 3*thr, 0.6
		if s.Remediate {
			// The control loop reroutes live traffic; keeping the fault
			// near-threshold avoids retransmission storms that shift the
			// spray balance and quarantine bystander links.
			hi = 4.5 * thr
		}
		if f.Upstream {
			// The port-level deficit is the rate diluted over the
			// senders sharing the port; scale the rate so the detector
			// still sees ≥3× threshold, or drop the upstream twist when
			// no survivable rate can clear that bar.
			lo = 3 * thr * float64(sc.Leaves-1)
			if lo > hi {
				f.Upstream = false
				lo = 3 * thr
			}
		}
		f.Rate = clamp(f.Rate, lo, hi)
	case core.FaultBlackHole:
		f.Rate = 1
	case core.FaultGE:
		if f.GELossBad <= 0 || f.GELossBad > 1 {
			f.GELossBad = 0.5
		}
		if f.GEPBG <= 0 || f.GEPBG > 1 {
			f.GEPBG = 0.1
		}
		if f.Rate <= 0 {
			f.Rate = f.GELossBad / 2
		}
		// Bursty loss clears the threshold only on average; the extra
		// margin (and the doubled deadline in the oracle) covers windows
		// the burst process happens to spare.
		f.Rate = clamp(f.Rate, 4*thr, 0.45)
		// Rate is the steady-state loss; it must sit strictly inside
		// (0, lossBad) for the pGB solve in the runner to be valid.
		if f.Rate >= 0.8*f.GELossBad {
			f.GELossBad = clamp(f.Rate/0.7, 0, 0.9)
		}
	case core.FaultFlap:
		if f.Rate <= 0 || f.Rate >= 1 {
			f.Rate = 0.4
		}
		// ≥0.3 in-burst: below that, least-loaded spray masks the
		// duty-cycle-averaged deficit (see Generate).
		f.Rate = clamp(f.Rate, max(0.3, 3*thr), 0.6)
	}

	minOnset := 0
	if s.Predictor == core.LearnedModel {
		minOnset = 4 // past warm-up, so the baseline stays clean
	}
	if s.Resilience {
		minOnset = 2 // the goodput baseline needs pre-fault iterations
	}
	maxOnset := sc.Iterations - 4 // leave the detection deadline room
	if s.Remediate {
		maxOnset = sc.Iterations - 5 // confirmation takes K=3 windows
	}
	if s.Resilience {
		maxOnset = sc.Iterations - 9 // confirm + re-plan + sustained recovery
	}
	if f.Kind == core.FaultGE {
		maxOnset = sc.Iterations - 8 // the oracle doubles GE's deadline
	}
	if maxOnset < minOnset {
		sc.Iterations += minOnset - maxOnset
		maxOnset = minOnset
	}
	f.Onset = clamp(f.Onset, minOnset, maxOnset)
	f.Heal, f.Model = 0, nil // the oracles are specified for faults that stay
}

// clamp bounds v to [lo, hi]. The cap applies last, so when lo > hi (a
// 3×threshold floor above the completion cap) the cap wins and a rate
// stays survivable.
func clamp[T cmp.Ordered](v, lo, hi T) T { return min(max(v, lo), hi) }

// WithDivergence layers control-plane belief/truth faults onto a
// generated spec — the -divergence sweep of flowpulse-check. Only
// remediated seeds are inside the envelope (the plane's reconcile and
// audit paths ride the remediation tick); the rest pass through
// unchanged. The injection shape is drawn from the spec's own seed on a
// dedicated stream: a failed-push burst sized within the verify loop's
// retry budget, one or two stale-LSDB advertise-down flips mid-run, and
// an audit cadence that guarantees reconvergence before the end-of-run
// oracles check it.
func WithDivergence(s Spec) Spec {
	if !s.Remediate || s.Scenario.Pods != 0 || len(s.Scenario.Jobs) != 0 {
		return s
	}
	s = s.clone()
	sc := &s.Scenario
	rng := sim.NewRNG(sc.Seed, "simtest/divergence")
	d := &sc.Divergence
	d.FailSkip = rng.IntN(3)
	d.FailPushes = 1 + rng.IntN(2)
	est := estIterTime(&s)
	iters := max(sc.Iterations, 8)
	d.Stale = make([]core.StaleSpec, 1+rng.IntN(2))
	for i := range d.Stale {
		d.Stale[i] = core.StaleSpec{
			At: sim.Time(est + rng.UniformDuration(sim.Duration(iters-5)*est)),
			Link: core.LeafSpineLink{
				LeafOrd:  rng.IntN(sc.Leaves),
				SpineOrd: rng.IntN(sc.Spines),
				Trunk:    rng.IntN(sc.Trunk),
			},
		}
	}
	d.AuditEvery = est + rng.UniformDuration(2*est)
	s.normalize()
	return s
}

// WithResilience forces the workload re-planner on for specs inside
// the remediated envelope (a no-op on the rest) — the -resilience
// sweep of flowpulse-check, which turns every control-loop seed into
// a full remediate → re-plan → recover exercise.
func WithResilience(s Spec) Spec {
	if s.Remediate {
		s = s.clone()
		s.Resilience = true
		s.normalize()
	}
	return s
}

// WithCongestion layers the adversarial-congestion regime onto a
// generated spec — the -congestion sweep of flowpulse-check. The
// ECN/DCQCN transport loop and the detector's CE discount are always
// on; which traffic generators run is drawn from the spec's own seed
// on a dedicated stream, so the congestion shape is as reproducible
// as the rest of the scenario. Specs outside the single-job two-level
// fat-tree envelope pass through unchanged.
func WithCongestion(s Spec) Spec {
	if s.Scenario.Pods != 0 || len(s.Scenario.Jobs) != 0 {
		return s
	}
	s = s.clone()
	sc := &s.Scenario
	rng := sim.NewRNG(sc.Seed, "simtest/congestion")
	c := &sc.Congestion
	c.ECN, c.DCQCN = true, true
	// Discount 2 keeps the combined envelope sound: a fault window's
	// deviation is multiplied by 1−2·ceFrac, and fault rates are
	// pinned ≥3× the threshold, so detection survives as long as under
	// a third of the fault leaf's bytes carry marks — congestion
	// concentrates its marks on its own victim leaf, not the fault's.
	s.CEDiscount = 2
	if rng.Float64() < 0.6 {
		c.Incast = rng.Jitter(50*sim.Microsecond, 150*sim.Microsecond)
		c.IncastLeaf = rng.IntN(sc.Leaves)
		if rng.Bernoulli(0.5) {
			// In-class incast: the adversarial tenant whose bursts both
			// delay the collective and draw CE marks onto measured
			// packets — the hardest false-positive shape the discount
			// must absorb. Kept to a modest burst (normalize pins the
			// ceiling) so the victim is perturbed, not starved.
			c.IncastHigh = true
			c.IncastFanout = 2
			c.IncastBytes = (32 + rng.IntN(3)*16) << 10 // 32/48/64 KiB
		}
	}
	if rng.Float64() < 0.6 {
		c.Storm = rng.Jitter(4*sim.Microsecond, 12*sim.Microsecond)
		c.StormBytes = 64 << 10
	}
	if rng.Float64() < 0.4 {
		// A fixed per-iteration delay of a third to a fifth of the
		// iteration's wire time — enough to skew any timing-sensitive
		// heuristic, invisible to the byte-conservation basis.
		c.Straggler = estIterTime(&s) / sim.Duration(3+rng.IntN(3))
		c.StragglerLeaf = rng.IntN(sc.Leaves)
	}
	if !congested(c) {
		// Every congestion seed exercises at least one traffic source.
		c.Storm = 8 * sim.Microsecond
		c.StormBytes = 64 << 10
	}
	s.normalize()
	return s
}

// MarshalCompact renders the spec as the one-line JSON the repro
// command embeds.
func (s Spec) MarshalCompact() string {
	b, err := json.Marshal(s)
	if err != nil {
		panic(err) // Spec contains only marshalable fields
	}
	return string(b)
}

// ParseSpec decodes a compact spec, normalizing it into the valid
// envelope. A key the format does not have is an error, not a field
// silently left at its default.
func ParseSpec(data string) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(strings.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("simtest: bad spec: %w", err)
	}
	s.normalize()
	return s, nil
}

// ReproCommand is the one-line reproduction recipe for a spec. A spec
// that still equals Generate(seed) reproduces from the seed alone;
// otherwise (post-shrink) the full JSON is embedded.
func (s Spec) ReproCommand() string {
	seed := s.Scenario.Seed
	if Generate(seed).MarshalCompact() == s.MarshalCompact() {
		return fmt.Sprintf("go run ./cmd/flowpulse-check -seed %d", seed)
	}
	return fmt.Sprintf("go run ./cmd/flowpulse-check -spec '%s'", s.MarshalCompact())
}
