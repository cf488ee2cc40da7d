package core

import (
	"fmt"
	"slices"

	"flowpulse/internal/collective"
	"flowpulse/internal/control"
	"flowpulse/internal/fabric"
	"flowpulse/internal/fault"
	"flowpulse/internal/metrics"
	"flowpulse/internal/sim"
	"flowpulse/internal/spray"
	"flowpulse/internal/telemetry"
	"flowpulse/internal/topology"
	"flowpulse/internal/transport"
	"flowpulse/internal/workload"
)

// CollectiveKind names the workload patterns a Scenario can run.
type CollectiveKind string

// Supported collective kinds.
const (
	RingAllReduce CollectiveKind = "ring-allreduce"
	ReduceScatter CollectiveKind = "reduce-scatter"
	AllGatherKind CollectiveKind = "all-gather"
	AllToAllKind  CollectiveKind = "all-to-all"
)

// LeafSpineLink names a leaf-spine link by ordinals (stable across
// rebuilds of the same scenario, unlike raw LinkIDs).
type LeafSpineLink struct {
	LeafOrd  int `json:"leafOrd,omitempty"`
	SpineOrd int `json:"spineOrd,omitempty"`
	Trunk    int `json:"trunk,omitempty"`
}

// Scenario is a complete, reproducible experiment description: build
// the same Scenario twice and the fabrics are identical (the
// simulation-based predictor depends on this). Its JSON form is the one
// written description of a simulated run — flowpulse-sim's -scenario
// file and the simtest repro line: lowerCamel keys, a zero or absent
// field is the default, durations and times are picoseconds under keys
// ending in PS.
type Scenario struct {
	// Leaves, Spines, HostsPerLeaf, Trunk shape the fat tree.
	// Defaults: the paper's 32×16, one host per leaf, single links.
	Leaves       int `json:"leaves,omitempty"`
	Spines       int `json:"spines,omitempty"`
	HostsPerLeaf int `json:"hostsPerLeaf,omitempty"`
	Trunk        int `json:"trunk,omitempty"`
	// Pods, when positive, makes the fabric a three-level Clos (§7
	// "Network Topology"): Pods pods of Leaves × Spines each — the two
	// counts are then per pod — joined by CoresPerGroup core switches per
	// spine ordinal (see topology.Clos3Config). Leaf and spine ordinals
	// everywhere else (LeafSpineLink, JobScenario spans, congestion
	// victims) stay fabric-wide, pod-major. CoresPerGroup is read only
	// when Pods is set.
	Pods          int `json:"pods,omitempty"`
	CoresPerGroup int `json:"coresPerGroup,omitempty"`
	// Spray selects the load-balancing policy (default least-loaded).
	Spray spray.Kind `json:"spray,omitempty"`
	// Transport tunes the RoCE-like transport. It is set from Go only.
	Transport transport.Config `json:"-"`
	// Collective selects the workload (default RingAllReduce).
	Collective CollectiveKind `json:"collective,omitempty"`
	// InterleaveRing orders the (single-job) collective's ranks
	// column-major across leaves — host (leaf, ix) gets rank
	// ix·Leaves + leaf — instead of the default leaf-major order. Every
	// ring edge then crosses leaves: the placement-oblivious schedule
	// whose goodput a leaf's uplink capacity actually gates, and the
	// regime where resilience re-planning has something to repair (a
	// leaf-major ring keeps each leaf at two crossing edges and is
	// NIC-bound; see internal/resilience).
	InterleaveRing bool `json:"interleaveRing,omitempty"`
	// BytesPerRank is the collective size D (default 4 MiB).
	BytesPerRank int64 `json:"bytesPerRank,omitempty"`
	// Iterations is the training length (default 8).
	Iterations int `json:"iterations,omitempty"`
	// JitterMax is the per-rank, per-iteration uniform start delay.
	JitterMax sim.Duration `json:"jitterMaxPS,omitempty"`
	// PreExisting lists disconnected (known-faulty) links.
	PreExisting []LeafSpineLink `json:"preExisting,omitempty"`
	// Faults is the silent-fault schedule: Runtime.Train arms (and heals)
	// each entry when the first job completes the entry's iteration.
	// Build rejects a link outside the topology, a rate outside [0,1], a
	// flap down for longer than its period, an Onset or Heal the training
	// never reaches, and two entries live on one link at once; it then
	// drops a Bernoulli entry of rate 0, which is no fault.
	Faults []FaultSpec `json:"faults,omitempty"`
	// Background, when positive, runs a Low-priority random-pair
	// traffic generator with this mean inter-message gap. Background
	// load does not enter the measurement (it is untagged and
	// deprioritized, §5.1) but it does perturb the spray decisions the
	// collective's packets see — the realistic noise source behind
	// nonzero false-positive rates at low thresholds.
	Background sim.Duration `json:"backgroundPS,omitempty"`
	// BackgroundBytes is the background message payload (default 64 KiB).
	BackgroundBytes int `json:"backgroundBytes,omitempty"`
	// Congestion bundles the adversarial-traffic and ECN/DCQCN knobs.
	// The zero value is fully off, and a scenario with it off builds
	// byte-identically to earlier releases.
	Congestion CongestionSpec `json:"congestion,omitzero"`
	// Divergence bundles the control-plane fault knobs: injected
	// belief/truth splits and the plane's verification posture. The
	// zero value is fully off — a verified plane whose belief tracks
	// truth exactly — and runs byte-identically to earlier releases.
	Divergence DivergenceSpec `json:"divergence,omitzero"`
	// Job is the training job id.
	Job uint16 `json:"job,omitempty"`
	// Jobs, when non-empty, makes this a multi-job scenario (§7
	// "Parallel Jobs"): each entry is one concurrent training job on
	// its own host slice. Scenario-level workload fields (Collective,
	// BytesPerRank, Iterations, …) become per-job defaults, and
	// Scenario.Job names Jobs[0] when that entry leaves Job zero.
	Jobs []JobScenario `json:"jobs,omitempty"`
	// Seed roots every random stream in the scenario.
	Seed uint64 `json:"seed,omitempty"`
	// Shards picks the partition the one event engine (sim.Group) runs
	// the fabric on. 0 (the default) is the one-domain partition: a
	// single-threaded run, byte-compatible with earlier releases. N ≥ 1
	// is one domain per switch on N workers, whose results are
	// bit-identical for EVERY N ≥ 1 (worker count only changes packing,
	// never the schedule) but differ microscopically from the one-domain
	// schedule; see DESIGN.md decision 12. Either way the runtime is
	// driven via Runtime.Train (or Run) and released with Runtime.Close.
	// It is how the run executes, not what it simulates, so it has no
	// JSON key: flowpulse-sim's -shards and simtest.Options.Shards set it.
	Shards int `json:"-"`
}

// CongestionSpec describes a scenario's congestion regime: transport
// congestion control (ECN marking + DCQCN reaction) and the adversarial
// traffic generators whose queue build-up mimics loss without any
// fault. Generators start with training and stop when the last job
// finishes, like the Background generator.
type CongestionSpec struct {
	// ECN enables RED-style CE marking at every switch egress queue
	// (fabric.ECNConfig defaults: 100 KiB / 400 KiB knees, 20% max
	// probability — under the PFC Xoff threshold, so marking reacts
	// before pauses). ECNKMin/ECNKMax override the knees (bytes; zero
	// keeps the defaults): sensitive fabrics mark mild queue build-up
	// that the default knee lets pass unmarked, trading mark volume for
	// congestion evidence on lightly perturbed windows.
	ECN     bool  `json:"ecn,omitempty"`
	ECNKMin int64 `json:"ecnKMin,omitempty"`
	ECNKMax int64 `json:"ecnKMax,omitempty"`
	// DCQCN enables the transport's per-pair rate limiter, the reaction
	// point of the ECN loop. Meaningful only with ECN (no marks, no
	// cuts).
	DCQCN bool `json:"dcqcn,omitempty"`
	// Incast, when positive, runs an N→1 burst generator with this mean
	// inter-burst gap: IncastFanout sources (default: every non-victim
	// host) each fire IncastBytes (default 128 KiB) at a random host of
	// leaf IncastLeaf. IncastHigh runs the bursts in the measured
	// traffic class instead of Low — the adversarial tenant whose queue
	// build-up both delays the collective (mimicking loss) and draws CE
	// marks onto the measured packets behind it, which is exactly the
	// signal detect.Config.CEDiscount keys on.
	Incast       sim.Duration `json:"incastPS,omitempty"`
	IncastLeaf   int          `json:"incastLeaf,omitempty"`
	IncastFanout int          `json:"incastFanout,omitempty"`
	IncastBytes  int          `json:"incastBytes,omitempty"`
	IncastHigh   bool         `json:"incastHigh,omitempty"`
	// Storm, when positive, runs a bursty on/off heavy-flow generator —
	// a multi-tenant neighbor in the measured traffic class — with this
	// mean in-burst message gap (StormBytes per message, default
	// 256 KiB; default 50 µs on / 150 µs off phases).
	Storm      sim.Duration `json:"stormPS,omitempty"`
	StormBytes int          `json:"stormBytes,omitempty"`
	// Straggler, when positive, delays the ranks hosted on leaf
	// StragglerLeaf by this fixed offset at every iteration start — the
	// topology-asymmetric straggler that skews temporal symmetry with
	// no network involvement at all.
	Straggler     sim.Duration `json:"stragglerPS,omitempty"`
	StragglerLeaf int          `json:"stragglerLeaf,omitempty"`
}

// DivergenceSpec describes a scenario's control-plane fault regime:
// which belief/truth splits to inject (see fault.Divergence) and how
// the control plane defends itself. Links are named by ordinals so the
// spec survives rebuilds, like PreExisting.
type DivergenceSpec struct {
	// FailSkip and FailPushes drive fault.DivergeFailedPush: let
	// FailSkip administrative pushes through untouched, then silently
	// drop the next FailPushes. FailPushes 0 injects nothing.
	FailSkip   int `json:"failSkip,omitempty"`
	FailPushes int `json:"failPushes,omitempty"`
	// PartialOps, when positive, drives fault.DivergePartialRollout:
	// the next ChangeSet with more operations lands only its first
	// PartialOps on the fabric.
	PartialOps int `json:"partialOps,omitempty"`
	// Stale lists fault.DivergeStaleLSDB injections: advertisement
	// corruptions that land at their times with no write involved.
	Stale []StaleSpec `json:"stale,omitempty"`
	// Unverified disables verify-own-writes AND reconciliation: the
	// control plane trusts that every push landed, committing intent
	// straight to belief. This is the baseline arm of the divergence
	// experiment — the posture most production controllers ship with.
	Unverified bool `json:"unverified,omitempty"`
	// AuditEvery, when positive, runs the periodic belief-vs-truth
	// audit at this cadence on the remediation tick (verified planes
	// only). The backstop that catches stale-LSDB decay even when no
	// deviation ever reaches the remediator.
	AuditEvery sim.Duration `json:"auditEveryPS,omitempty"`
}

// StaleSpec is one scheduled advertisement corruption.
type StaleSpec struct {
	// At is when the corruption lands (on the plane's next tick).
	At sim.Time `json:"atPS,omitempty"`
	// Link names the link whose advertisement is overwritten.
	Link LeafSpineLink `json:"link,omitzero"`
	// Up is the (wrong) advertised state.
	Up bool `json:"up,omitempty"`
}

// Enabled reports whether any divergence is injected or the plane's
// verification posture differs from the default. False means the run
// is byte-identical to one built before this knob existed.
func (d *DivergenceSpec) Enabled() bool {
	return d.FailPushes > 0 || d.PartialOps > 0 || len(d.Stale) > 0 || d.Unverified
}

// JobScenario describes one training job of a multi-job scenario.
// Zero-valued workload fields inherit the scenario-level values.
type JobScenario struct {
	// Job is the job id. Jobs[0] defaults to Scenario.Job; entry i>0
	// defaults to id i. Ids must be distinct across entries.
	Job uint16 `json:"job,omitempty"`
	// Collective, BytesPerRank, Iterations, and JitterMax
	// override the scenario-level fields for this job.
	Collective   CollectiveKind `json:"collective,omitempty"`
	BytesPerRank int64          `json:"bytesPerRank,omitempty"`
	Iterations   int            `json:"iterations,omitempty"`
	JitterMax    sim.Duration   `json:"jitterMaxPS,omitempty"`
	// HostIx selects which host on each leaf carries this job's ranks
	// (0 ≤ HostIx < HostsPerLeaf): jobs sharing a leaf span stay on
	// disjoint hosts.
	HostIx int `json:"hostIx,omitempty"`
	// LeafFirst and LeafCount restrict the job's ranks to a
	// contiguous span of leaves. LeafCount 0 spans every leaf from
	// LeafFirst on.
	LeafFirst int `json:"leafFirst,omitempty"`
	LeafCount int `json:"leafCount,omitempty"`
}

func (sc *Scenario) setDefaults() {
	if sc.Leaves == 0 {
		sc.Leaves = 32
	}
	if sc.Spines == 0 {
		sc.Spines = 16
	}
	if sc.HostsPerLeaf == 0 {
		sc.HostsPerLeaf = 1
	}
	if sc.Trunk == 0 {
		sc.Trunk = 1
	}
	if sc.Collective == "" {
		sc.Collective = RingAllReduce
	}
	if sc.BytesPerRank == 0 {
		sc.BytesPerRank = 4 << 20
	}
	if sc.Iterations == 0 {
		sc.Iterations = 8
	}
	// The paper's 5 µs retransmission timeout assumes the ring's
	// single-sender-per-leaf property (§5.1): no fan-in, so queueing
	// never approaches the timeout. All-to-all concentrates several
	// senders on one downlink, where tens of microseconds of
	// legitimate queueing would otherwise read as loss and flood the
	// fabric with duplicates (the paper defers congestion control and
	// dynamic-demand collectives to future work, §7).
	if sc.Transport.RTO == 0 && sc.Collective == AllToAllKind {
		sc.Transport.RTO = 100 * sim.Microsecond
	}
}

// Runtime is a built scenario: the live simulation objects.
type Runtime struct {
	Scenario Scenario
	Topo     *topology.Topology
	// Engine is EngineGroup's control engine: domain 0, where workload
	// orchestration, monitoring and remediation run — and, when Shards is
	// 0, everything else.
	Engine *sim.Engine
	// EngineGroup runs the simulation, on the partition Scenario.Shards
	// picked.
	EngineGroup *sim.Group
	Net         *fabric.Network
	// Plane is the control plane holding the believed topology view.
	Plane *control.Plane
	Stack *transport.Stack
	// Group is every host in rank order and Coll the scenario-level
	// collective over it. Training runs Jobs, not these: swap a job's
	// collective after Build through Jobs[i].Coll.
	Group []topology.HostID
	Coll  collective.Collective
	// Jobs holds the per-job runtimes, one or more: Scenario.Jobs
	// materialized, or — when that is empty — the one all-hosts job the
	// scenario-level fields describe (Group and Coll above).
	Jobs []JobRuntime
	// Goodput receives every completed iteration of Jobs[0]'s training
	// loop — the raw material of the goodput/stall/recovery metric
	// family — and Inject marks the first fault's onset on it.
	Goodput metrics.GoodputTimeline

	sys     *System      // set by Attach
	armed   []armedFault // Inject's, until Heal
	iter    uint32       // iterations the first job has completed
	bg      *workload.Background
	incast  *workload.Incast
	storm   *workload.Storm
	running int // jobs still training (Background gating)
}

// JobRuntime is one training job, built: its normalized spec (the
// placement fields stay zero for the all-hosts job of a scenario
// without Jobs), host group, and collective.
type JobRuntime struct {
	Spec  JobScenario
	Group []topology.HostID
	Coll  collective.Collective
}

// Build constructs the fabric, transport, and collective for a
// scenario, applying pre-existing faults as administrative
// disconnections (routing converges around them before training
// starts, as in §6).
func (sc Scenario) Build() (rt *Runtime, err error) {
	sc.setDefaults()
	var topo *topology.Topology
	if sc.Pods > 0 {
		topo, err = topology.NewClos3(topology.Clos3Config{
			Pods: sc.Pods, LeavesPerPod: sc.Leaves, SpinesPerPod: sc.Spines, CoresPerGroup: sc.CoresPerGroup,
			HostsPerLeaf: sc.HostsPerLeaf, Trunk: sc.Trunk,
		})
	} else {
		topo, err = topology.NewFatTree(topology.FatTreeConfig{
			Leaves: sc.Leaves, Spines: sc.Spines, HostsPerLeaf: sc.HostsPerLeaf,
			Trunk: sc.Trunk,
		})
	}
	if err != nil {
		return nil, err
	}
	part := topology.OneDomain(topo)
	if sc.Shards >= 1 {
		part = topology.NewPartition(topo)
	}
	grp := sim.NewGroup(sim.GroupConfig{Domains: part.NumDomains, Lookahead: part.Lookahead, Workers: sc.Shards})
	// A failed build must not leave the group's workers running.
	defer func() {
		if err != nil {
			grp.Close()
		}
	}()
	net, err := fabric.New(fabric.Config{
		Topo: topo, Group: grp, Partition: part, Spray: sc.Spray, Seed: sc.Seed,
		ECN: fabric.ECNConfig{
			Enabled:   sc.Congestion.ECN,
			KMinBytes: sc.Congestion.ECNKMin,
			KMaxBytes: sc.Congestion.ECNKMax,
		},
	})
	if err != nil {
		return nil, err
	}
	// The control plane is built (and armed with any divergence faults)
	// before the pre-existing disconnections are pushed, so a scenario
	// can direct a failed push or partial rollout at the initial
	// quarantine itself.
	plane := control.New(control.Config{
		Verify:     !sc.Divergence.Unverified,
		AuditEvery: sc.Divergence.AuditEvery,
	}, net)
	if sc.Divergence.FailPushes > 0 {
		plane.Inject(fault.Divergence{Kind: fault.DivergeFailedPush, Skip: sc.Divergence.FailSkip, Count: sc.Divergence.FailPushes})
	}
	if sc.Divergence.PartialOps > 0 {
		plane.Inject(fault.Divergence{Kind: fault.DivergePartialRollout, Ops: sc.Divergence.PartialOps})
	}
	for _, st := range sc.Divergence.Stale {
		link, err := resolveLink(topo, st.Link)
		if err != nil {
			return nil, err
		}
		plane.Inject(fault.Divergence{Kind: fault.DivergeStaleLSDB, At: st.At, Link: link, Up: st.Up})
	}
	if len(sc.PreExisting) > 0 {
		// One multi-op ChangeSet: the pre-existing disconnections are a
		// single administrative decision, pushed link by link in spec
		// order (the same SetLinkAdmin sequence earlier releases issued
		// directly).
		ops := make([]control.Op, 0, len(sc.PreExisting))
		for _, pf := range sc.PreExisting {
			link, err := resolveLink(topo, pf)
			if err != nil {
				return nil, err
			}
			ops = append(ops, control.Op{Link: link, Up: false})
		}
		plane.Apply(0, "pre-existing", ops)
	}
	if sc.Congestion.DCQCN {
		sc.Transport.DCQCN = true
	}
	stack := transport.NewStack(net, sc.Transport)

	group := make([]topology.HostID, len(topo.Hosts))
	if sc.InterleaveRing {
		// Column-major: hosts are leaf-major (leaf*HostsPerLeaf + ix),
		// ranks walk leaves fastest.
		k := 0
		for ix := 0; ix < sc.HostsPerLeaf; ix++ {
			for leaf := range topo.Leaves() {
				group[k] = topology.HostID(leaf*sc.HostsPerLeaf + ix)
				k++
			}
		}
	} else {
		for i := range group {
			group[i] = topology.HostID(i)
		}
	}
	coll, err := buildCollective(sc.Collective, group, sc.BytesPerRank)
	if err != nil {
		return nil, err
	}
	rt = &Runtime{Scenario: sc, Topo: topo, Engine: grp.Control(), EngineGroup: grp, Net: net, Plane: plane, Stack: stack, Group: group, Coll: coll}
	if err := rt.buildJobs(); err != nil {
		return nil, err
	}
	if err := checkFaults(sc.Faults, topo, rt.Jobs[0].Spec.Iterations); err != nil {
		return nil, err
	}
	// A Bernoulli drop of rate 0 is no fault: it leaves the schedule, so
	// Train never arms it and no run labels or records it as ground truth.
	rt.Scenario.Faults = slices.DeleteFunc(slices.Clone(sc.Faults), func(f FaultSpec) bool {
		return f.Kind == FaultBernoulli && f.Rate == 0
	})
	return rt, nil
}

// Run drives the simulation until every event has drained, returning
// the final simulated time.
func (rt *Runtime) Run() sim.Time { return rt.EngineGroup.Run() }

// EngineStats returns how many events the run has executed and what its
// event queue was asked to do, summed over the partition's domains
// (PeakPending is the sum of the domains' peaks, an upper bound on the
// run's).
func (rt *Runtime) EngineStats() (executed uint64, q sim.QueueStats) {
	for d := 0; d < rt.EngineGroup.Domains(); d++ {
		e := rt.EngineGroup.Engine(d)
		s := e.QueueStats()
		executed += e.Executed()
		q.LanePushes += s.LanePushes
		q.HeapPushes += s.HeapPushes
		q.PeakPending += s.PeakPending
	}
	return executed, q
}

// Close releases the engine group (its worker pool, when it has one):
// the runtime cannot Run again. Safe to call more than once.
func (rt *Runtime) Close() { rt.EngineGroup.Close() }

// buildCollective constructs one collective over a host group.
func buildCollective(kind CollectiveKind, group []topology.HostID, bytesPerRank int64) (collective.Collective, error) {
	switch kind {
	case RingAllReduce:
		return &collective.RingAllReduce{Group: group, BytesPerRank: bytesPerRank}, nil
	case ReduceScatter:
		return &collective.ReduceScatter{Group: group, BytesPerRank: bytesPerRank}, nil
	case AllGatherKind:
		return &collective.AllGather{Group: group, BytesPerRank: bytesPerRank}, nil
	case AllToAllKind:
		return &collective.AllToAll{Group: group, BytesPerPair: bytesPerRank / int64(len(group)-1)}, nil
	}
	return nil, fmt.Errorf("core: unknown collective %q", kind)
}

// buildJobs materializes Scenario.Jobs: normalizes each spec against
// the scenario-level defaults, carves the host groups, and builds the
// collectives.
func (rt *Runtime) buildJobs() error {
	sc := rt.Scenario
	// Spans are over the fabric's leaves, which Scenario.Leaves counts
	// only per pod on a three-level fabric.
	leaves := len(rt.Topo.Leaves())
	if len(sc.Jobs) == 0 {
		rt.Jobs = []JobRuntime{{
			Spec: JobScenario{
				Job: sc.Job, Collective: sc.Collective, BytesPerRank: sc.BytesPerRank,
				Iterations: sc.Iterations, JitterMax: sc.JitterMax,
			},
			Group: rt.Group, Coll: rt.Coll,
		}}
		return nil
	}
	seen := map[uint16]bool{}
	for i, spec := range sc.Jobs {
		if spec.Job == 0 {
			if i == 0 {
				spec.Job = sc.Job
			} else {
				spec.Job = uint16(i)
			}
		}
		if seen[spec.Job] {
			return fmt.Errorf("core: duplicate job id %d in Scenario.Jobs", spec.Job)
		}
		seen[spec.Job] = true
		if spec.Collective == "" {
			spec.Collective = sc.Collective
		}
		if spec.BytesPerRank == 0 {
			spec.BytesPerRank = sc.BytesPerRank
		}
		if spec.Iterations == 0 {
			spec.Iterations = sc.Iterations
		}
		if spec.JitterMax == 0 {
			spec.JitterMax = sc.JitterMax
		}
		if spec.HostIx < 0 || spec.HostIx >= sc.HostsPerLeaf {
			return fmt.Errorf("core: job %d HostIx %d outside HostsPerLeaf %d", spec.Job, spec.HostIx, sc.HostsPerLeaf)
		}
		if spec.LeafCount == 0 {
			spec.LeafCount = leaves - spec.LeafFirst
		}
		if spec.LeafFirst < 0 || spec.LeafCount < 2 || spec.LeafFirst+spec.LeafCount > leaves {
			return fmt.Errorf("core: job %d leaf span [%d,%d) invalid for %d leaves",
				spec.Job, spec.LeafFirst, spec.LeafFirst+spec.LeafCount, leaves)
		}
		// Hosts are leaf-major: host = leaf*HostsPerLeaf + ix.
		group := make([]topology.HostID, spec.LeafCount)
		for j := range group {
			group[j] = topology.HostID((spec.LeafFirst+j)*sc.HostsPerLeaf + spec.HostIx)
		}
		coll, err := buildCollective(spec.Collective, group, spec.BytesPerRank)
		if err != nil {
			return err
		}
		rt.Jobs = append(rt.Jobs, JobRuntime{Spec: spec, Group: group, Coll: coll})
	}
	return nil
}

// resolveLink maps a leaf-spine reference to its link: the fabric-wide
// form of a FaultSpec's link, with the same checks.
func resolveLink(topo *topology.Topology, ref LeafSpineLink) (topology.LinkID, error) {
	s, err := FaultSpec{Leaf: ref.LeafOrd, Spine: ref.SpineOrd, Trunk: ref.Trunk}.site(topo)
	return s.link, err
}

// Link resolves a leaf-spine link reference against this runtime.
func (rt *Runtime) Link(ref LeafSpineLink) topology.LinkID {
	link, err := resolveLink(rt.Topo, ref)
	if err != nil {
		panic(err)
	}
	return link
}

// startJobs launches every job of the scenario, in Jobs order, plus the
// background and congestion generators it asks for (they stop with the
// last job). onIter fires per completed iteration of any job.
func (rt *Runtime) startJobs(onIter func(now sim.Time, job uint16, iter uint32)) []*workload.Job {
	rt.startBackground()
	rt.running = len(rt.Jobs)
	jobs := make([]*workload.Job, len(rt.Jobs))
	for i, jr := range rt.Jobs {
		spec := jr.Spec
		var goodput *metrics.GoodputTimeline
		if i == 0 {
			goodput = &rt.Goodput
		}
		jobs[i] = workload.StartJob(rt.Stack, workload.JobConfig{
			Job:              spec.Job,
			Collective:       jr.Coll,
			Iterations:       spec.Iterations,
			JitterMax:        spec.JitterMax,
			Priority:         fabric.High,
			Sentinel:         true,
			Seed:             rt.Scenario.Seed, // streams are per-job-id inside workload
			StragglerOffsets: rt.stragglerOffsets(jr.Group),
			Goodput:          goodput,
			OnIteration: func(now sim.Time, iter uint32, _ *collective.Result) {
				if onIter != nil {
					onIter(now, spec.Job, iter)
				}
			},
			OnDone: func(sim.Time) { rt.jobDone() },
		})
	}
	return jobs
}

func (rt *Runtime) startBackground() {
	if rt.Scenario.Background > 0 && rt.bg == nil {
		rt.bg = workload.StartBackground(rt.Stack, workload.BackgroundConfig{
			Hosts:        rt.Group,
			MessageBytes: rt.Scenario.BackgroundBytes,
			MeanGap:      rt.Scenario.Background,
			Seed:         rt.Scenario.Seed + 1,
		})
	}
	rt.startCongestion()
}

// startCongestion launches the scenario's adversarial traffic
// generators (idempotent, like startBackground; they stop with the
// last job). Seeds are offset from the scenario seed the same way the
// background generator's is, and each generator draws from its own
// named stream, so enabling one never perturbs another.
func (rt *Runtime) startCongestion() {
	cg := rt.Scenario.Congestion
	if cg.Incast > 0 && rt.incast == nil {
		victimLeaf := rt.Topo.Leaves()[cg.IncastLeaf]
		victims := rt.Topo.HostsOf(victimLeaf)
		var sources []topology.HostID
		for h := range rt.Topo.Hosts {
			if rt.Topo.LeafOf(topology.HostID(h)) != victimLeaf {
				sources = append(sources, topology.HostID(h))
			}
		}
		prio := fabric.Low
		if cg.IncastHigh {
			prio = fabric.High
		}
		rt.incast = workload.StartIncast(rt.Stack, workload.IncastConfig{
			Sources:      sources,
			Victims:      victims,
			MessageBytes: cg.IncastBytes,
			MeanGap:      cg.Incast,
			Fanout:       cg.IncastFanout,
			Priority:     prio,
			Seed:         rt.Scenario.Seed + 2,
		})
	}
	if cg.Storm > 0 && rt.storm == nil {
		rt.storm = workload.StartStorm(rt.Stack, workload.StormConfig{
			Hosts:        rt.Group,
			MessageBytes: cg.StormBytes,
			MeanGap:      cg.Storm,
			Seed:         rt.Scenario.Seed + 3,
		})
	}
}

// stragglerOffsets maps the scenario's straggler spec onto one job's
// rank order: every rank hosted under the straggler leaf starts late.
// Nil when the scenario has no straggler (the offsets-free fast path).
func (rt *Runtime) stragglerOffsets(group []topology.HostID) []sim.Duration {
	cg := rt.Scenario.Congestion
	if cg.Straggler <= 0 {
		return nil
	}
	leaf := rt.Topo.Leaves()[cg.StragglerLeaf]
	var offs []sim.Duration
	for i, h := range group {
		if rt.Topo.LeafOf(h) == leaf {
			if offs == nil {
				offs = make([]sim.Duration, len(group))
			}
			offs[i] = cg.Straggler
		}
	}
	return offs
}

// jobDone gates shared teardown on the last job's completion.
func (rt *Runtime) jobDone() {
	rt.running--
	if rt.running > 0 {
		return
	}
	if rt.bg != nil {
		rt.bg.Stop()
	}
	if rt.incast != nil {
		rt.incast.Stop()
	}
	if rt.storm != nil {
		rt.storm.Stop()
	}
}

// referenceRun produces the simulation-based predictor's input: it
// rebuilds the scenario from scratch — same topology, same known
// faults, same seed, NO silent faults — runs the given number of
// iterations, and returns every closed telemetry window. This is the
// paper's "simulation before every training job" (§5.2).
func referenceRun(sc Scenario, iterations int) ([]*telemetry.Window, error) {
	sc.Iterations = iterations
	// The reference predicts CLEAN conditions: congestion generators and
	// stragglers are environmental noise, excluded exactly as silent
	// faults are. ECN and DCQCN stay on — they are properties of the
	// fabric and transport that shape the healthy run's windows too.
	sc.Faults = nil
	sc.Congestion.Incast, sc.Congestion.Storm, sc.Congestion.Straggler = 0, 0, 0
	rt, err := sc.Build()
	if err != nil {
		return nil, err
	}
	var windows []*telemetry.Window
	coll := telemetry.AttachAll(rt.Net, int(rt.Jobs[0].Spec.Job), func(w *telemetry.Window) {
		windows = append(windows, w.Clone())
	})
	if err := rt.Train(nil); err != nil {
		return nil, err
	}
	coll.FlushAll(rt.Engine.Now()) // close the final iteration's windows
	return windows, nil
}
