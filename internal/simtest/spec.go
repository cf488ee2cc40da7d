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
	"encoding/json"
	"fmt"

	"flowpulse/internal/core"
	"flowpulse/internal/sim"
)

// TopoKind selects the fabric family.
type TopoKind string

// The fabric families the fuzzer explores.
const (
	FatTree2 TopoKind = "fat-tree"
	Clos3    TopoKind = "clos3"
)

// faultNone is the Kind of an unused Spec.Fault slot — the repro format
// has always spelled it out. It is not a core.FaultKind a scenario takes.
const faultNone core.FaultKind = "none"

// PredictorKind mirrors core.PredictorKind (kept as its own string so a
// Spec is a self-contained JSON document).
type PredictorKind = core.PredictorKind

// TopoSpec shapes the fabric. Fat-tree fields and Clos fields are
// mutually exclusive by Kind.
type TopoSpec struct {
	Kind TopoKind `json:"kind"`

	// Fat tree.
	Leaves       int `json:"leaves,omitempty"`
	Spines       int `json:"spines,omitempty"`
	HostsPerLeaf int `json:"hostsPerLeaf,omitempty"`
	Trunk        int `json:"trunk,omitempty"`

	// Three-level Clos.
	Pods          int `json:"pods,omitempty"`
	LeavesPerPod  int `json:"leavesPerPod,omitempty"`
	SpinesPerPod  int `json:"spinesPerPod,omitempty"`
	CoresPerGroup int `json:"coresPerGroup,omitempty"`
}

// WorkSpec shapes the training workload.
type WorkSpec struct {
	// Collective applies to fat trees; three-level runs are always
	// Ring-AllReduce (normalize pins it).
	Collective   core.CollectiveKind `json:"collective,omitempty"`
	BytesPerRank int64               `json:"bytesPerRank"`
	Iterations   int                 `json:"iterations"`
	// JitterPS is per-iteration start jitter in picoseconds.
	JitterPS int64 `json:"jitterPS,omitempty"`
	// Predictor selects the load model (fat tree; Clos runs learned at
	// both levels).
	Predictor PredictorKind `json:"predictor,omitempty"`
	// Remediate attaches the closed-loop control plane (fat tree only).
	Remediate bool `json:"remediate,omitempty"`
	// Jobs, when 2, runs two concurrent full-span training jobs on one
	// shared monitoring plane (§7 "Parallel Jobs"): one host column per
	// job, per-job pipelines, aggregate-symmetry detection. normalize()
	// pins the envelope the shared plane is specified for — fat tree,
	// ring, analytical model, no remediation, at most a downstream
	// Bernoulli fault. 0 is the classic single-job run.
	Jobs int `json:"jobs,omitempty"`
	// Resilience extends the remediation loop into the workload
	// (remediated fat-tree runs only): the ring is interleaved across
	// leaves, and a quarantine that cuts a leaf below the recovery
	// target re-ranks it contiguous at the next iteration barrier.
	// normalize() pins the envelope the re-planner is specified for —
	// the 2:1 oversubscribed shape (2 spines, 4 hosts/leaf, untrunked,
	// 2 MiB ranks) under at most a downstream Bernoulli fault with
	// onset ≥ 2, so the quarantine halves the victim leaf's uplink
	// capacity and the re-rank restores the uplink-gated baseline.
	Resilience bool `json:"resilience,omitempty"`
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
	d := float64(s.Work.BytesPerRank)
	var perPort float64
	if s.Topo.Kind == Clos3 {
		// The spine monitors see the inter-pod share spread over
		// spine-count × core-group ports — the smallest windows.
		perPort = 2 * d / float64(s.Topo.SpinesPerPod*s.Topo.CoresPerGroup)
	} else {
		st := float64(s.Topo.Spines * s.Topo.Trunk)
		if s.Work.Collective == core.RingAllReduce {
			// A contiguous ring crosses each leaf boundary once per
			// direction: ~2·D(N−1)/N ingress per leaf.
			perPort = 1.8 * d / st
			if s.Work.Resilience {
				// The interleaved ring crosses once per RANK, not once
				// per leaf: H× the contiguous ring's boundary traffic.
				perPort *= float64(s.Topo.HostsPerLeaf)
			}
		} else {
			perPort = 0.9 * float64(s.Topo.HostsPerLeaf) * d / st
		}
	}
	thr := 8 * mtu / perPort
	if thr < 0.01 {
		thr = 0.01
	}
	if thr > 0.25 {
		thr = 0.25
	}
	return thr
}

// CongestSpec is a spec's congestion regime: the ECN/DCQCN transport
// loop, the detector's CE-discount mitigation, and the adversarial
// traffic generators whose queue build-up mimics loss without any
// fault. The zero value is fully off — the classic envelope every
// existing seed maps to. Specs only gain congestion through
// WithCongestion (the -congestion sweep), never from Generate, so the
// scenarios existing seeds produce are untouched.
type CongestSpec struct {
	// ECN enables fabric CE marking; DCQCN the transport reaction point.
	ECN   bool `json:"ecn,omitempty"`
	DCQCN bool `json:"dcqcn,omitempty"`
	// CEDiscount is the detector's congestion-mitigation weight.
	CEDiscount float64 `json:"ceDiscount,omitempty"`
	// IncastGapPS, when positive, runs the N→1 burst generator with
	// this mean inter-burst gap, targeting IncastLeaf's hosts:
	// IncastFanout sources (0: every non-victim host) firing
	// IncastBytes per burst (0: the generator's 128 KiB default).
	// IncastHigh runs the bursts in the measured traffic class, where
	// their queue build-up delays the collective and draws CE marks
	// onto measured packets.
	IncastGapPS  int64 `json:"incastGapPS,omitempty"`
	IncastLeaf   int   `json:"incastLeaf,omitempty"`
	IncastFanout int   `json:"incastFanout,omitempty"`
	IncastBytes  int   `json:"incastBytes,omitempty"`
	IncastHigh   bool  `json:"incastHigh,omitempty"`
	// StormGapPS, when positive, runs the on/off heavy-flow generator
	// (StormBytes per message) in the measured traffic class.
	StormGapPS int64 `json:"stormGapPS,omitempty"`
	StormBytes int   `json:"stormBytes,omitempty"`
	// StragglerPS, when positive, delays StragglerLeaf's ranks by this
	// fixed offset every iteration.
	StragglerPS   int64 `json:"stragglerPS,omitempty"`
	StragglerLeaf int   `json:"stragglerLeaf,omitempty"`
}

// Active reports whether any congestion source is configured.
func (c *CongestSpec) Active() bool {
	return c.IncastGapPS > 0 || c.StormGapPS > 0 || c.StragglerPS > 0
}

// DivergeSpec is a spec's control-plane fault regime: injected
// belief/truth splits (see fault.Divergence and core.DivergenceSpec).
// The zero value is fully off — the classic envelope every existing
// seed maps to. Specs only gain divergence through WithDivergence (the
// -divergence sweep), never from Generate, so the scenarios existing
// seeds produce are untouched. Stale is a fixed-size array (not a
// slice) so Spec stays comparable for ReproCommand.
type DivergeSpec struct {
	// FailSkip/FailPushes inject a failed-push fault: FailSkip
	// administrative pushes go through, then FailPushes silently drop.
	// normalize() caps FailPushes at the plane's retry budget, so every
	// ChangeSet still commits through verify-own-writes — the property
	// the convergence oracle rests on.
	FailSkip   int `json:"failSkip,omitempty"`
	FailPushes int `json:"failPushes,omitempty"`
	// Stale lists up to two advertise-down corruptions; an entry with
	// AtPS <= 0 is unused.
	Stale [2]StaleFlip `json:"stale"`
	// AuditPS is the periodic belief-vs-truth audit cadence — the
	// convergence backstop when a stale belief never produces a
	// confirmable deviation.
	AuditPS int64 `json:"auditPS,omitempty"`
}

// StaleFlip schedules one stale-LSDB corruption: at AtPS the named
// link's advertisement on one endpoint flips to "down" with no write
// involved.
type StaleFlip struct {
	AtPS  int64 `json:"atPS,omitempty"`
	Leaf  int   `json:"leaf,omitempty"`
	Spine int   `json:"spine,omitempty"`
	Trunk int   `json:"trunk,omitempty"`
}

// Active reports whether any divergence fault is injected.
func (d *DivergeSpec) Active() bool {
	return d.FailPushes > 0 || d.Stale[0].AtPS > 0 || d.Stale[1].AtPS > 0
}

// Spec is one complete fuzz scenario. The zero of every field is
// meaningful, so a Spec round-trips through JSON losslessly and the
// compact encoding is the repro format.
type Spec struct {
	Seed uint64   `json:"seed"`
	Topo TopoSpec `json:"topo"`
	Work WorkSpec `json:"work"`
	// Fault is the fault schedule: at most one entry, handed to
	// core.Scenario.Faults as is — or, Kind faultNone, not at all.
	Fault   core.FaultSpec `json:"fault"`
	Congest CongestSpec    `json:"congest,omitempty"`
	Diverge DivergeSpec    `json:"diverge,omitempty"`
}

// Generate derives the Spec for a seed. Every draw comes from named
// streams of the seed, so adding a new knob never perturbs the
// scenarios existing seeds map to (same discipline as the simulator's
// own RNG use).
func Generate(seed uint64) Spec {
	s := Spec{Seed: seed}
	topoRNG := sim.NewRNG(seed, "simtest/topo")
	workRNG := sim.NewRNG(seed, "simtest/work")
	faultRNG := sim.NewRNG(seed, "simtest/fault")

	if topoRNG.Float64() < 0.8 {
		s.Topo = TopoSpec{
			Kind:         FatTree2,
			Leaves:       4 + topoRNG.IntN(7), // 4..10
			Spines:       2 + topoRNG.IntN(4), // 2..5
			HostsPerLeaf: 1,
			Trunk:        1,
		}
		if topoRNG.Float64() < 0.25 {
			s.Topo.HostsPerLeaf = 2
		}
		if topoRNG.Float64() < 0.25 {
			s.Topo.Trunk = 2
		}
	} else {
		s.Topo = TopoSpec{
			Kind:          Clos3,
			Pods:          2 + topoRNG.IntN(2), // 2..3
			LeavesPerPod:  2 + topoRNG.IntN(3), // 2..4
			SpinesPerPod:  2,
			CoresPerGroup: 2 + topoRNG.IntN(2), // 2..3
		}
	}

	sizes := []int64{1 << 20, 1 << 20, 2 << 20, 2 << 20, 4 << 20}
	s.Work.BytesPerRank = sizes[workRNG.IntN(len(sizes))]
	if s.Topo.Kind == FatTree2 {
		colls := []core.CollectiveKind{
			core.RingAllReduce, core.RingAllReduce,
			core.ReduceScatter, core.AllGatherKind, core.AllToAllKind,
		}
		s.Work.Collective = colls[workRNG.IntN(len(colls))]
		switch p := workRNG.Float64(); {
		case p < 0.5:
			s.Work.Predictor = core.AnalyticalModel
		case p < 0.7:
			s.Work.Predictor = core.SimulationModel
		default:
			s.Work.Predictor = core.LearnedModel
		}
		if s.Work.Collective == core.AllToAllKind {
			// Least-loaded spray balances each sender's aggregate egress,
			// not its per-destination split, so a receiver's per-port mix
			// in all-to-all is structurally imbalanced (±8–20% when
			// healthy). Only the iteration-aligned reference run predicts
			// through that; the uniform-split analytical model and the
			// warm-up-mean learned baseline both alert on clean fabrics.
			s.Work.Predictor = core.SimulationModel
		}
		s.Work.Iterations = 6 + workRNG.IntN(5) // 6..10
		if s.Work.Predictor == core.LearnedModel {
			s.Work.Iterations = 9 + workRNG.IntN(4) // warm-up headroom
		}
		if workRNG.Float64() < 0.5 {
			s.Work.JitterPS = int64((1 + workRNG.IntN(2)) * int(sim.Microsecond))
		}
		// The control plane's rebaseline path is wired to models that
		// implement Rebaseliner; the simulation model cannot refresh
		// its reference windows, so the loop only runs on the others.
		// Ring only: the quarantine shifts live load, and only the
		// ring's balanced per-port mix keeps the rebaselined model's
		// expectations tight enough to not implicate bystanders.
		if s.Work.Predictor == core.AnalyticalModel &&
			s.Work.Collective == core.RingAllReduce && workRNG.Float64() < 0.35 {
			s.Work.Remediate = true
		}
	} else {
		s.Work.Collective = core.RingAllReduce
		s.Work.Predictor = core.LearnedModel
		s.Work.Iterations = 9 + workRNG.IntN(4) // 9..12
	}

	s.Fault = generateFault(&s, faultRNG)

	// Two concurrent jobs on the shared monitoring plane. The draw
	// comes from its own named stream so adding the knob never
	// perturbed the topo/work/fault draws existing seeds map to, and
	// only seeds already inside the shared-plane envelope (see
	// WorkSpec.Jobs) opt in.
	jobsRNG := sim.NewRNG(seed, "simtest/jobs")
	if s.Topo.Kind == FatTree2 && s.Work.Predictor == core.AnalyticalModel &&
		s.Work.Collective == core.RingAllReduce && !s.Work.Remediate &&
		(s.Fault.Kind == faultNone || (s.Fault.Kind == core.FaultBernoulli && !s.Fault.Upstream)) &&
		jobsRNG.Float64() < 0.3 {
		s.Work.Jobs = 2
	}

	// The workload re-planner rides on the control loop. Its own named
	// stream keeps every earlier draw stable, and only remediated seeds
	// (already analytical + ring) opt in.
	resRNG := sim.NewRNG(seed, "simtest/resilience")
	if s.Work.Remediate && resRNG.Float64() < 0.5 {
		s.Work.Resilience = true
	}

	s.normalize()
	return s
}

func generateFault(s *Spec, rng *sim.RNG) core.FaultSpec {
	// Rates are drawn as multiples of the spec's derived detection
	// threshold so every persistent fault is comfortably detectable and
	// the detection-deadline oracle is meaningful at any scale.
	thr := s.DetectThreshold()
	f := core.FaultSpec{Kind: faultNone}
	if s.Topo.Kind == Clos3 {
		if rng.Float64() < 0.6 {
			f.Kind = core.FaultBernoulli
			f.Rate = thr * (3 + 2*rng.Float64())
			f.CoreSpine = rng.Float64() < 0.5
			f.Pod = rng.IntN(s.Topo.Pods)
			f.LeafInPod = rng.IntN(s.Topo.LeavesPerPod)
			f.SpineInPod = rng.IntN(s.Topo.SpinesPerPod)
			f.CoreIx = rng.IntN(s.Topo.CoresPerGroup)
			// The learned baseline forms over the warm-up windows; a
			// fault inside them is baked into the model, not detected.
			f.Onset = 4 + rng.IntN(2)
		}
		return f
	}

	switch p := rng.Float64(); {
	case p < 0.25:
		return f
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
		f.Rate = 0.3 + 0.25*rng.Float64()
		if f.Rate < 3*thr {
			f.Rate = 3 * thr
		}
		est := estIterTime(s)
		f.FlapPeriod = 3 * est
		f.FlapDown = 2 * est
		f.FlapPhase = rng.UniformDuration(3 * est)
	}
	f.Leaf = rng.IntN(s.Topo.Leaves)
	f.Spine = rng.IntN(s.Topo.Spines)
	f.Trunk = rng.IntN(s.Topo.Trunk)
	// Upstream (leaf→spine) loss is only cleanly observable in
	// all-to-all: a ring port has a single sender, so the victim leaf
	// cannot distinguish the remote uplink from its own local link,
	// while many-sender ports localize it exactly (one affected sender,
	// the rest clean). Port-level detection dilutes the deficit by the
	// sender count, so normalize() scales the rate up to match.
	if f.Kind == core.FaultBernoulli && s.Work.Collective == core.AllToAllKind &&
		s.Work.Predictor == core.SimulationModel {
		f.Upstream = rng.Float64() < 0.5
	}
	maxOnset := s.Work.Iterations / 2
	if f.Kind != faultNone {
		f.Onset = rng.IntN(maxOnset + 1)
	}
	return f
}

// estIterTime is the rough wall time of one ring iteration: each rank
// moves ~2·D wire bytes per iteration at the default 400 Gb/s.
func estIterTime(s *Spec) sim.Duration {
	return sim.SerializationDelay(int(2*s.Work.BytesPerRank), 400e9)
}

// normalize clamps a Spec into the valid envelope. It runs after
// generation, after every shrink step, and on operator-supplied specs,
// so the runner only ever sees scenarios it can build.
func (s *Spec) normalize() {
	t, w, f := &s.Topo, &s.Work, &s.Fault
	if t.Kind == "" {
		t.Kind = FatTree2
	}
	if w.BytesPerRank < 256<<10 {
		w.BytesPerRank = 256 << 10
	}
	switch t.Kind {
	case FatTree2:
		t.Leaves = clamp(t.Leaves, 4, 32)
		t.Spines = clamp(t.Spines, 2, 16)
		t.HostsPerLeaf = clamp(t.HostsPerLeaf, 1, 2)
		t.Trunk = clamp(t.Trunk, 1, 2)
		t.Pods, t.LeavesPerPod, t.SpinesPerPod, t.CoresPerGroup = 0, 0, 0, 0
		if w.Collective == "" {
			w.Collective = core.RingAllReduce
		}
		if w.Predictor == "" {
			w.Predictor = core.AnalyticalModel
		}
		if w.Collective == core.AllToAllKind {
			w.Predictor = core.SimulationModel // see Generate
		}
		if w.Predictor != core.AnalyticalModel || w.Collective != core.RingAllReduce {
			w.Remediate = false
		}
		if f.Kind == core.FaultFlap {
			// Flap timing is phrased in iteration wall time, which only
			// the ring's fixed schedule makes predictable.
			w.Collective = core.RingAllReduce
			f.Upstream = false
			if f.FlapPeriod <= 0 {
				f.FlapPeriod = 3 * estIterTime(s)
			}
			f.FlapDown = sim.Duration(clamp64(int64(f.FlapDown), 1, int64(f.FlapPeriod)))
			f.FlapPhase = sim.Duration(clamp64(int64(f.FlapPhase), 0, int64(f.FlapPeriod)-1))
		}
		f.Leaf = clamp(f.Leaf, 0, t.Leaves-1)
		f.Spine = clamp(f.Spine, 0, t.Spines-1)
		f.Trunk = clamp(f.Trunk, 0, t.Trunk-1)
		f.CoreSpine, f.Pod, f.LeafInPod, f.SpineInPod, f.CoreIx = false, 0, 0, 0, 0
	case Clos3:
		t.Pods = clamp(t.Pods, 2, 4)
		t.LeavesPerPod = clamp(t.LeavesPerPod, 2, 4)
		t.SpinesPerPod = clamp(t.SpinesPerPod, 2, 2)
		t.CoresPerGroup = clamp(t.CoresPerGroup, 2, 4)
		t.Leaves, t.Spines, t.HostsPerLeaf, t.Trunk = 0, 0, 0, 0
		w.Collective = core.RingAllReduce
		w.Predictor = core.LearnedModel
		w.Remediate = false
		w.JitterPS = 0
		if f.Kind != faultNone && f.Kind != core.FaultBernoulli {
			f.Kind = core.FaultBernoulli
			if f.Rate <= 0 || f.Rate >= 1 {
				f.Rate = 0.05
			}
		}
		f.Pod = clamp(f.Pod, 0, t.Pods-1)
		f.LeafInPod = clamp(f.LeafInPod, 0, t.LeavesPerPod-1)
		f.SpineInPod = clamp(f.SpineInPod, 0, t.SpinesPerPod-1)
		f.CoreIx = clamp(f.CoreIx, 0, t.CoresPerGroup-1)
		f.Leaf, f.Spine, f.Trunk = 0, 0, 0
	}

	// The shared-plane envelope (see WorkSpec.Jobs): two full-span
	// ring jobs, one host column each, analytical model, no
	// remediation, and at most a downstream Bernoulli fault. Per-job
	// sender signatures comb under shared spray, so this is exactly
	// the geometry the aggregate-symmetry basis is specified for (see
	// DESIGN.md).
	if w.Jobs != 0 {
		w.Jobs = 2
	}
	if t.Kind != FatTree2 {
		w.Jobs = 0
	}
	if w.Jobs == 2 {
		t.HostsPerLeaf = 2
		w.Collective = core.RingAllReduce
		w.Predictor = core.AnalyticalModel
		w.Remediate = false
		if f.Kind != faultNone && f.Kind != core.FaultBernoulli {
			f.Kind = core.FaultBernoulli
		}
		f.Upstream = false
	}

	// The congestion envelope (see CongestSpec): adversarial traffic
	// on the single-job two-level fat tree only. Congestion never
	// rides the resilience sweep — storm-perturbed goodput makes the
	// recovery bound too noisy to oracle — but remediated seeds stay
	// in, because they give the no-quarantine-under-pure-congestion
	// oracle its teeth.
	c := &s.Congest
	if t.Kind != FatTree2 || w.Jobs != 0 {
		*c = CongestSpec{}
	}
	c.CEDiscount = clampF(c.CEDiscount, 0, 4)
	if c.IncastGapPS > 0 {
		c.IncastGapPS = clamp64(c.IncastGapPS, int64(20*sim.Microsecond), int64(sim.Millisecond))
		c.IncastLeaf = clamp(c.IncastLeaf, 0, t.Leaves-1)
		if c.IncastFanout != 0 {
			c.IncastFanout = clamp(c.IncastFanout, 1, (t.Leaves-1)*t.HostsPerLeaf)
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
		c.IncastGapPS, c.IncastLeaf = 0, 0
		c.IncastFanout, c.IncastBytes, c.IncastHigh = 0, 0, false
	}
	if c.StormGapPS > 0 {
		c.StormGapPS = clamp64(c.StormGapPS, int64(2*sim.Microsecond), int64(sim.Millisecond))
		c.StormBytes = clamp(c.StormBytes, 4<<10, 256<<10)
	} else {
		c.StormGapPS, c.StormBytes = 0, 0
	}
	if c.StragglerPS > 0 {
		c.StragglerPS = clamp64(c.StragglerPS, int64(sim.Microsecond), int64(estIterTime(s)))
		c.StragglerLeaf = clamp(c.StragglerLeaf, 0, t.Leaves-1)
	} else {
		c.StragglerPS, c.StragglerLeaf = 0, 0
	}
	if c.Active() {
		w.Resilience = false
	}

	// The divergence envelope (see DivergeSpec): control-plane faults
	// ride the remediated single-job fat tree only — the plane's
	// Reconcile and audit paths are driven off the remediation tick, so
	// an unremediated run would never process the injections. The
	// resilience and congestion twists are shed: a stale belief
	// re-shapes the predictor's expectations mid-run, which breaks the
	// assumptions their recovery/false-positive oracles rest on.
	dv := &s.Diverge
	if !w.Remediate || t.Kind != FatTree2 || w.Jobs != 0 {
		*dv = DivergeSpec{}
	}
	if dv.Active() {
		w.Resilience = false
		s.Congest = CongestSpec{}
		if w.Iterations < 8 {
			w.Iterations = 8 // room for a stale flip plus the audit behind it
		}
		dv.FailSkip = clamp(dv.FailSkip, 0, 4)
		// FailPushes ≤ the plane's default retry budget (2): every
		// ChangeSet commits within one verify loop, so a dropped push is
		// repaired instantly and only stale-LSDB decay produces
		// observable divergence episodes.
		dv.FailPushes = clamp(dv.FailPushes, 0, 2)
		est := int64(estIterTime(s))
		for i := range dv.Stale {
			st := &dv.Stale[i]
			if st.AtPS <= 0 {
				*st = StaleFlip{}
				continue
			}
			// Land inside the run with ≥4 iterations of headroom: the
			// audit below is guaranteed a tick after the corruption, so
			// belief provably reconverges before the end-of-run oracle.
			st.AtPS = clamp64(st.AtPS, est, int64(w.Iterations-4)*est)
			st.Leaf = clamp(st.Leaf, 0, t.Leaves-1)
			st.Spine = clamp(st.Spine, 0, t.Spines-1)
			st.Trunk = clamp(st.Trunk, 0, t.Trunk-1)
		}
		if dv.AuditPS <= 0 {
			dv.AuditPS = 2 * est
		}
		dv.AuditPS = clamp64(dv.AuditPS, est, 3*est)
	} else {
		*dv = DivergeSpec{}
	}

	// The resilience envelope (see WorkSpec.Resilience): the workload
	// re-planner rides the control loop on the 2:1 oversubscribed
	// interleaved ring, under at most a downstream Bernoulli fault —
	// exactly the geometry where a quarantine halves the victim leaf's
	// capacity and the re-rank provably restores the uplink-gated
	// baseline (DESIGN.md decision 13).
	if !w.Remediate || t.Kind != FatTree2 {
		w.Resilience = false
	}
	if w.Resilience {
		t.Spines = 2
		t.HostsPerLeaf = 4
		t.Trunk = 1
		w.BytesPerRank = 2 << 20
		if f.Kind != faultNone && f.Kind != core.FaultBernoulli {
			f.Kind = core.FaultBernoulli
		}
		f.Upstream = false
		f.Trunk = 0
		f.Spine = clamp(f.Spine, 0, 1)
	}

	switch f.Kind {
	case faultNone, core.FaultBernoulli, core.FaultBlackHole, core.FaultGE, core.FaultFlap:
	default:
		f.Kind = faultNone
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
	if f.Upstream && (f.Kind != core.FaultBernoulli || w.Collective != core.AllToAllKind ||
		w.Predictor != core.SimulationModel) {
		f.Upstream = false
	}
	switch f.Kind {
	case core.FaultBernoulli:
		if f.Rate <= 0 || f.Rate >= 1 {
			f.Rate = 0.05
		}
		lo, hi := 3*thr, 0.6
		if w.Remediate {
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
			lo = 3 * thr * float64(t.Leaves-1)
			if lo > hi {
				f.Upstream = false
				lo = 3 * thr
			}
		}
		f.Rate = clampF(f.Rate, lo, hi)
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
		f.Rate = clampF(f.Rate, 4*thr, 0.45)
		// Rate is the steady-state loss; it must sit strictly inside
		// (0, lossBad) for the pGB solve in the runner to be valid.
		if f.Rate >= 0.8*f.GELossBad {
			f.GELossBad = clampF(f.Rate/0.7, 0, 0.9)
		}
	case core.FaultFlap:
		if f.Rate <= 0 || f.Rate >= 1 {
			f.Rate = 0.4
		}
		// ≥0.3 in-burst: below that, least-loaded spray masks the
		// duty-cycle-averaged deficit (see Generate).
		lo := 0.3
		if 3*thr > lo {
			lo = 3 * thr
		}
		f.Rate = clampF(f.Rate, lo, 0.6)
	}

	minIters := 4
	if w.Predictor == core.LearnedModel {
		minIters = 6
	}
	w.Iterations = clamp(w.Iterations, minIters, 32)
	if f.Kind == faultNone {
		*f = core.FaultSpec{Kind: faultNone}
		return
	}
	minOnset := 0
	if w.Predictor == core.LearnedModel {
		minOnset = 4 // past warm-up, so the baseline stays clean
	}
	if w.Resilience {
		minOnset = 2 // the goodput baseline needs pre-fault iterations
	}
	maxOnset := w.Iterations - 4 // leave the detection deadline room
	if w.Remediate {
		maxOnset = w.Iterations - 5 // confirmation takes K=3 windows
	}
	if w.Resilience {
		maxOnset = w.Iterations - 9 // confirm + re-plan + sustained recovery
	}
	if f.Kind == core.FaultGE {
		maxOnset = w.Iterations - 8 // the oracle doubles GE's deadline
	}
	if maxOnset < minOnset {
		w.Iterations += minOnset - maxOnset
		maxOnset = minOnset
	}
	f.Onset = clamp(f.Onset, minOnset, maxOnset)
	f.Heal = 0 // the oracles are specified for faults that stay
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func clamp64(v, lo, hi int64) int64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// clampF applies the lower bound first, so when lo > hi (a 3×threshold
// floor above the completion cap) the cap wins and the rate stays
// survivable.
func clampF(v, lo, hi float64) float64 {
	if v < lo {
		v = lo
	}
	if v > hi {
		v = hi
	}
	return v
}

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
	if !s.Work.Remediate || s.Topo.Kind != FatTree2 || s.Work.Jobs != 0 {
		return s
	}
	rng := sim.NewRNG(s.Seed, "simtest/divergence")
	d := &s.Diverge
	d.FailSkip = rng.IntN(3)
	d.FailPushes = 1 + rng.IntN(2)
	est := estIterTime(&s)
	iters := s.Work.Iterations
	if iters < 8 {
		iters = 8
	}
	n := 1 + rng.IntN(2)
	for i := 0; i < n; i++ {
		d.Stale[i] = StaleFlip{
			AtPS:  int64(est) + int64(rng.UniformDuration(sim.Duration(iters-5)*est)),
			Leaf:  rng.IntN(s.Topo.Leaves),
			Spine: rng.IntN(s.Topo.Spines),
			Trunk: rng.IntN(s.Topo.Trunk),
		}
	}
	d.AuditPS = int64(est) + int64(rng.UniformDuration(2*est))
	s.normalize()
	return s
}

// WithResilience forces the workload re-planner on for specs inside
// the remediated envelope (a no-op on the rest) — the -resilience
// sweep of flowpulse-check, which turns every control-loop seed into
// a full remediate → re-plan → recover exercise.
func WithResilience(s Spec) Spec {
	if s.Work.Remediate {
		s.Work.Resilience = true
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
	if s.Topo.Kind != FatTree2 || s.Work.Jobs != 0 {
		return s
	}
	rng := sim.NewRNG(s.Seed, "simtest/congestion")
	c := &s.Congest
	c.ECN, c.DCQCN = true, true
	// Discount 2 keeps the combined envelope sound: a fault window's
	// deviation is multiplied by 1−2·ceFrac, and fault rates are
	// pinned ≥3× the threshold, so detection survives as long as under
	// a third of the fault leaf's bytes carry marks — congestion
	// concentrates its marks on its own victim leaf, not the fault's.
	c.CEDiscount = 2
	if rng.Float64() < 0.6 {
		c.IncastGapPS = int64(rng.Jitter(50*sim.Microsecond, 150*sim.Microsecond))
		c.IncastLeaf = rng.IntN(s.Topo.Leaves)
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
		c.StormGapPS = int64(rng.Jitter(4*sim.Microsecond, 12*sim.Microsecond))
		c.StormBytes = 64 << 10
	}
	if rng.Float64() < 0.4 {
		// A fixed per-iteration delay of a third to a fifth of the
		// iteration's wire time — enough to skew any timing-sensitive
		// heuristic, invisible to the byte-conservation basis.
		div := 3 + rng.IntN(3)
		c.StragglerPS = int64(estIterTime(&s)) / int64(div)
		c.StragglerLeaf = rng.IntN(s.Topo.Leaves)
	}
	if !c.Active() {
		// Every congestion seed exercises at least one traffic source.
		c.StormGapPS = int64(8 * sim.Microsecond)
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
// envelope.
func ParseSpec(data string) (Spec, error) {
	var s Spec
	if err := json.Unmarshal([]byte(data), &s); err != nil {
		return Spec{}, fmt.Errorf("simtest: bad spec: %w", err)
	}
	s.normalize()
	return s, nil
}

// ReproCommand is the one-line reproduction recipe for a spec. A spec
// that still equals Generate(seed) reproduces from the seed alone;
// otherwise (post-shrink) the full JSON is embedded.
func (s Spec) ReproCommand() string {
	if gen := Generate(s.Seed); gen == s {
		return fmt.Sprintf("go run ./cmd/flowpulse-check -seed %d", s.Seed)
	}
	return fmt.Sprintf("go run ./cmd/flowpulse-check -spec '%s'", s.MarshalCompact())
}
