package simtest

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"

	"flowpulse/internal/control"
	"flowpulse/internal/core"
	"flowpulse/internal/detect"
	"flowpulse/internal/fabric"
	"flowpulse/internal/metrics"
	"flowpulse/internal/remediate"
	"flowpulse/internal/sim"
	"flowpulse/internal/topology"
	"flowpulse/internal/trace"
)

// Options tunes a fuzz run.
type Options struct {
	// Deadline is the number of iterations after fault onset within
	// which a persistent fault must be detected. Defaults to 4.
	Deadline int
	// MutateDetect, when set, perturbs the detector configuration
	// before attach. This is the self-test hook: plant a detector bug
	// (e.g. a 10× threshold) and the oracles must catch it.
	MutateDetect func(*detect.Config)
	// Shards picks the partition every execution runs on (see
	// core.Scenario.Shards): 0 is the one-domain partition, a
	// single-threaded run; N >= 1 is one domain per switch on N workers.
	// Fingerprints depend on the partition (0 vs >= 1) but not on N, so a
	// failure found at one shard count reproduces at any other count >= 1.
	Shards int
}

func (o *Options) setDefaults() {
	if o.Deadline == 0 {
		o.Deadline = 4
	}
}

// Result is the outcome of fuzzing one spec.
type Result struct {
	Spec Spec
	// Violations lists every oracle failure; empty means the seed
	// passed.
	Violations []string
	// Fingerprint hashes the run's full metrics timeline (window
	// volumes, events, wire counters, remediation actions, final
	// simulation time). Equal specs must produce equal fingerprints.
	Fingerprint uint64
	// Windows, Alerts, Quarantines summarize activity for reporting.
	Windows, Alerts, Quarantines int
}

// OK reports whether every oracle held.
func (r *Result) OK() bool { return len(r.Violations) == 0 }

// runData is everything one execution exposes to the oracles.
type runData struct {
	fingerprint uint64
	audit       []string
	windows     int
	itersDone   int
	stats       fabric.Stats

	// Per-job leaf-tier pipeline events, in the plane's registration
	// order (one entry for a single-job run).
	jobs        []jobEvents
	timeline    []remediate.Action
	quarantined []topology.LinkID
	blamedGroup []topology.LinkID // trunk group of the faulted pair
	// Divergence runs: the control plane's end-of-run view.
	divergent  []topology.LinkID // links where belief or intent != truth
	adminDown  []topology.LinkID // links admin-down on the fabric (truth)
	planeStats control.Stats
	// The goodput report at the 90% recovery target (the resilience
	// oracle reads it).
	goodput metrics.GoodputReport

	// Three-level Clos: the (single) job's spine-tier events.
	spineEvents []core.Event

	// Trace-replay oracle findings (two-level runs record to an
	// in-memory .fpt trace and replay it offline; the offline
	// event/action stream must match the online one bit-identically).
	traceViolations []string
}

// jobEvents is one monitored job's detections.
type jobEvents struct {
	id     uint16
	events []core.Event
}

// Run executes a spec twice — the replay oracle — and checks every
// invariant on the first execution.
func Run(spec Spec, opts Options) *Result {
	opts.setDefaults()
	spec.normalize()
	res := &Result{Spec: spec}

	first, err := execute(spec, opts)
	if err != nil {
		res.Violations = append(res.Violations, fmt.Sprintf("execute: %v", err))
		return res
	}
	second, err := execute(spec, opts)
	if err != nil {
		res.Violations = append(res.Violations, fmt.Sprintf("replay execute: %v", err))
		return res
	}

	res.Fingerprint = first.fingerprint
	res.Windows = first.windows
	res.Alerts = len(first.spineEvents)
	for _, j := range first.jobs {
		res.Alerts += len(j.events)
	}
	res.Quarantines = len(first.quarantined)

	res.Violations = append(res.Violations, checkOracles(spec, opts, first)...)
	if first.fingerprint != second.fingerprint {
		res.Violations = append(res.Violations, fmt.Sprintf(
			"replay: fingerprint %016x != %016x — the same spec produced a different metrics timeline",
			first.fingerprint, second.fingerprint))
	}
	return res
}

// execute runs a normalized spec's scenario on the options' partition:
// one job over every host, or two full-span jobs, one per host column,
// whose fault (when present) is a downstream Bernoulli drop (normalize()
// pinned that envelope, with congestion, divergence, remediation and
// resilience all off). A Clos3 spec is the same run on a three-level
// fabric: learned model, spines monitored too, the fault on a pod-local
// spine→leaf or core→spine link, and no trace (the .fpt format records
// two-level fabrics).
func execute(spec Spec, opts Options) (*runData, error) {
	clos3 := spec.Scenario.Pods > 0
	sc := spec.Scenario
	sc.Shards = opts.Shards
	label := "simtest"
	if len(sc.Jobs) != 0 {
		label = "simtest-shared"
	}
	mon := spec.MonitorSpec
	mon.Threshold = spec.DetectThreshold()
	attach := mon.AttachOptions()
	if opts.MutateDetect != nil {
		opts.MutateDetect(&attach.Job.Detect)
	}
	var traceBuf bytes.Buffer
	// The reference run is as long as the run it predicts.
	attach.ReferenceIterations = sc.Iterations
	if !clos3 {
		attach.Trace, attach.TraceLabel = trace.NewWriter(&traceBuf), label
	}
	rt, sys, err := core.Run(sc, attach, nil)
	if err != nil {
		return nil, err
	}

	data := &runData{itersDone: len(rt.Goodput.Points())}
	if f := spec.fault(); f != nil && !clos3 {
		spine := rt.Topo.Spines()[f.Spine]
		data.blamedGroup = rt.Topo.TrunkLinks(rt.Topo.Leaves()[f.Leaf], spine)
		if f.Kind == core.FaultFlap {
			// The flap faults both directions. Its upstream half drops
			// traffic from the faulted leaf's hosts toward their ring
			// successor, whose port has a single sender — the victim leaf
			// cannot tell that remote uplink from its own local link
			// (localize's single-sender ambiguity), so blaming the
			// successor's link to the same spine is equally correct.
			succ := rt.Topo.Leaves()[(f.Leaf+1)%sc.Leaves]
			data.blamedGroup = append(data.blamedGroup, rt.Topo.TrunkLinks(succ, spine)...)
		}
	}

	for _, j := range sys.Jobs() {
		data.windows += j.Pipeline.Windows
		data.jobs = append(data.jobs, jobEvents{j.ID, j.Pipeline.Events})
	}
	data.stats = rt.Net.Stats()
	data.audit = rt.Net.AuditConservation()
	if clos3 {
		spine := sys.Jobs()[0].Spine.Pipeline
		data.windows += spine.Windows
		data.spineEvents = spine.Events
	}
	if rem := sys.Remediator(); rem != nil {
		data.timeline = rem.Timeline
		data.quarantined = rem.Quarantined()
	}
	data.goodput = rt.Goodput.Report(0.9)
	data.fingerprint = fingerprint(rt, sys)
	if sc.Divergence.Enabled() {
		data.divergent = rt.Plane.Divergent()
		data.planeStats = rt.Plane.Stats()
		for id := range rt.Topo.Links {
			if !rt.Net.LinkAdminUp(topology.LinkID(id)) {
				data.adminDown = append(data.adminDown, topology.LinkID(id))
			}
		}
		data.fingerprint = fingerprintDivergence(data.fingerprint, rt.Plane)
	} else if !clos3 {
		// Offline replay re-derives remediation from the recorded alert
		// stream; it cannot re-derive the control plane's reconcile
		// decisions (belief state is not in the trace — DESIGN.md
		// decision 15), so the replay oracle only runs without
		// divergence.
		data.traceViolations = checkTraceReplay(sys.TraceWriter(), &traceBuf)
	}
	return data, nil
}

// fingerprintDivergence folds the control plane's observable state into
// the replay fingerprint — divergence runs only, so classic seeds keep
// their historical fingerprints.
func fingerprintDivergence(base uint64, plane *control.Plane) uint64 {
	f := newFP()
	f.u64(base)
	st := plane.Stats()
	f.i64(int64(st.ChangeSets))
	f.i64(int64(st.Committed))
	f.i64(int64(st.RolledBack))
	f.i64(int64(st.Pushed))
	f.i64(int64(st.PushesDropped))
	f.i64(int64(st.VerifyMismatches))
	f.i64(int64(st.Retries))
	f.i64(int64(st.StaleInjected))
	f.i64(int64(st.StaleAdopted))
	f.i64(int64(st.Reconciles))
	f.i64(int64(st.Audits))
	f.i64(int64(st.AuditRepairs))
	f.i64(int64(st.Divergences))
	f.i64(int64(st.Reconciled))
	f.i64(int64(st.TotalDiverged))
	for _, ep := range plane.Episodes() {
		f.i64(int64(ep))
	}
	for _, l := range plane.Divergent() {
		f.i64(int64(l))
	}
	return f.sum()
}

// checkTraceReplay is the record/replay oracle: the execution recorded
// itself to an in-memory trace; replaying that trace offline must
// reproduce the online event/action stream bit for bit (equal
// FNV-64a fingerprints).
func checkTraceReplay(w *trace.Writer, buf *bytes.Buffer) []string {
	if err := w.Err(); err != nil {
		return []string{fmt.Sprintf("trace: recording failed: %v", err)}
	}
	rr, err := trace.Replay(bytes.NewReader(buf.Bytes()), trace.ReplayOptions{})
	if err != nil {
		return []string{fmt.Sprintf("trace: replay failed: %v", err)}
	}
	if rr.Trailer == nil {
		return []string{"trace: recording has no trailer"}
	}
	if !rr.Matches() {
		return []string{fmt.Sprintf(
			"trace: offline replay fingerprint %016x != online %016x — replay diverged from the recorded run",
			rr.Fingerprint, rr.Trailer.Fingerprint)}
	}
	return nil
}

// --- oracles ---

func checkOracles(spec Spec, opts Options, d *runData) []string {
	var bad []string
	add := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }

	// Oracle 1: byte conservation on every link, NIC, and switch port.
	for _, msg := range d.audit {
		add("conservation: %s", msg)
	}
	// Oracle 1b: offline replay of the run's own recording is
	// bit-identical (fat-tree runs; see checkTraceReplay).
	bad = append(bad, d.traceViolations...)
	if d.itersDone != spec.Scenario.Iterations {
		add("workload: completed %d of %d iterations", d.itersDone, spec.Scenario.Iterations)
	}

	if len(spec.Scenario.Jobs) != 0 {
		return append(bad, checkSharedOracles(spec, opts, d)...)
	}
	if spec.Scenario.Divergence.Enabled() {
		// Divergence runs swap the detection/localization/remediation
		// oracles (a stale belief legitimately alerts on healthy links
		// and withholds quarantines) for the convergence pair below.
		return append(bad, checkDivergenceOracles(spec, d)...)
	}

	// A three-level run has a second tier of events, and its fault is
	// seen by exactly one of the two: the spines for a core→spine link,
	// the leaves otherwise (always, on a two-level fabric).
	f := spec.fault()
	clos3 := spec.Scenario.Pods > 0
	leaf := d.jobs[0].events
	victim, victimTier := leaf, topology.Leaf
	if clos3 && f != nil && f.CoreSpine {
		victim, victimTier = d.spineEvents, topology.Spine
	}
	events := append(leaf[:len(leaf):len(leaf)], d.spineEvents...)
	congested := congested(&spec.Scenario.Congestion)
	if f == nil {
		if congested {
			// Oracle 2 (congestion form): adversarial traffic may trip
			// deviation alerts — incast queues and storms genuinely skew
			// windows — but it must never *confirm* into a quarantine.
			// Quarantining a healthy link because tenants sent traffic is
			// exactly the false positive the paper's design forbids.
			for _, a := range d.timeline {
				if a.Kind == remediate.ActionQuarantine {
					add("congestion: pure congestion (no fault) quarantined link %d: %s", a.Link, a)
					break
				}
			}
			return bad
		}
		// Oracle 2: a healthy fabric is silent.
		for _, e := range events {
			add("clean run: alert %s", e.Alert)
			break
		}
		if len(d.timeline) != 0 {
			add("clean run: remediation acted: %s", d.timeline[0])
		}
		return bad
	}

	// Oracle 2 (prefix form): iterations strictly before onset are
	// clean. The fault injects when iteration Onset completes, but that
	// iteration's window only closes when the next iteration's traffic
	// arrives — so window Onset straddles the injection and may
	// legitimately catch the first retransmission spillover (three-level
	// runs are held to a clean window Onset as well — the bound their
	// oracle has always enforced and every seed meets). Congested
	// runs waive this: the storm skews pre-onset windows by design, and
	// the quarantine/deadline oracles below carry the burden instead.
	if !congested {
		cleanBefore := f.Onset
		if clos3 {
			cleanBefore++
		}
		for _, e := range events {
			if int(e.Alert.Iter) < cleanBefore {
				add("clean prefix: alert before fault onset %d: %s", f.Onset, e.Alert)
				break
			}
		}
	}

	// Oracle 3: the fault is detected (deficit alert at the tier that
	// watches the faulted link) — persistent kinds within the deadline,
	// the flap by end of run — and some deficit alert's verdict blames
	// the true link's trunk group. Three-level pipelines carry no
	// localizer (monitor.Build), so their runs stop at detection.
	deadline := f.Onset + opts.Deadline
	if f.Kind == core.FaultGE {
		// Bursty loss only matches its steady-state rate on average;
		// give the burst process twice the windows to show itself.
		deadline = f.Onset + 2*opts.Deadline
	}
	detected, localized := false, clos3
	for _, e := range victim {
		a := e.Alert
		if int(a.Iter) <= f.Onset {
			continue
		}
		if a.Deviation < 0 {
			if int(a.Iter) <= deadline || f.Kind == core.FaultFlap {
				detected = true
			}
			for _, l := range e.Verdict.Links {
				if linkInGroup(l, d.blamedGroup) {
					localized = true
				}
			}
			continue
		}
		// An intermittent link under per-packet least-loaded spray can
		// hide its own deficit: dropped packets are retransmitted and
		// delivered before the window closes, while the rerouted retx
		// traffic lands as a *surplus* on the victim's sibling ports.
		// Depending on where the down window falls relative to window
		// closes, that surplus — on the faulted leaf or its ring
		// successor (the flap is bidirectional) — is the flap's only
		// signature, and it pins the loss to the same trunk group the
		// deficit would have.
		if f.Kind == core.FaultFlap && a.Deviation > 0 &&
			(a.LeafOrdinal == f.Leaf || a.LeafOrdinal == (f.Leaf+1)%spec.Scenario.Leaves) {
			detected = true
			localized = true
		}
	}
	if !detected {
		if f.Kind == core.FaultFlap {
			add("detection: flap on leaf %d / spine %d never produced a deficit or sibling-surplus alert", f.Leaf, f.Spine)
		} else {
			add("detection: %s fault (rate %.3f, onset %d) not detected by the %s tier by iteration %d",
				f.Kind, f.Rate, f.Onset, victimTier, deadline)
		}
	}
	if !localized {
		add("localization: no deficit alert blamed the faulted leaf %d / spine %d group", f.Leaf, f.Spine)
	}

	// Oracle 4: remediation quarantines converge on the faulted group
	// and flap damping bounds re-quarantine churn. Congested faulted
	// runs waive it: storm-shifted spray balance can implicate
	// bystanders the innocent-quarantine check would flag, and the
	// combined envelope's burden is the detection deadline above.
	if spec.Remediate && !congested {
		bad = append(bad, checkRemediation(spec, d)...)
	}
	// Oracle 5: a quarantine that halved the victim leaf must have
	// re-planned the ring, and the workload must have recovered.
	// (normalize disables Resilience whenever congestion is active.)
	if spec.Resilience {
		bad = append(bad, checkResilience(spec, d)...)
	}
	return bad
}

// checkResilience is the workload-repair oracle. It is conditional on
// the true link actually being quarantined (oracle 4 enforces that for
// persistent faults): once the control plane halves the victim leaf,
// the re-planner must fire, and the goodput timeline must show a
// sustained return to ≥90% of the pre-fault baseline — remediation
// that repairs the fabric but strands the workload is a failure. The
// clean-run side (no replan actions on a healthy fabric) is already
// covered by oracle 2's empty-timeline check.
func checkResilience(spec Spec, d *runData) []string {
	trueQuar := false
	for _, a := range d.timeline {
		if a.Kind == remediate.ActionQuarantine && linkInGroup(a.Link, d.blamedGroup) {
			trueQuar = true
			break
		}
	}
	if !trueQuar {
		return nil
	}
	var bad []string
	replans := 0
	for _, a := range d.timeline {
		if a.Kind == remediate.ActionReplan {
			replans++
		}
	}
	f := spec.fault()
	if replans == 0 {
		bad = append(bad, fmt.Sprintf(
			"resilience: quarantine halved leaf %d but the ring was never re-planned", f.Leaf))
	}
	if !d.goodput.Recovered {
		bad = append(bad, fmt.Sprintf(
			"resilience: goodput never recovered to 90%% of baseline after the leaf %d / spine %d quarantine (baseline %.4g it/ps, during %.4g)",
			f.Leaf, f.Spine, d.goodput.Baseline, d.goodput.During))
	}
	return bad
}

// checkDivergenceOracles asserts the control plane's convergence
// contract under injected belief/truth splits: by end of run the
// believed topology equals the live one (verify-own-writes repaired
// every dropped push; reconciliation or the audit adopted every stale
// advertisement), and no link is administratively down on the fabric
// without the remediator owning it — i.e. no healthy link was wrongly
// written down and left stranded.
func checkDivergenceOracles(spec Spec, d *runData) []string {
	var bad []string
	add := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }

	for _, l := range d.divergent {
		add("divergence: link %d belief/intent still split from truth at end of run (stats %+v)",
			l, d.planeStats)
	}
	quar := map[topology.LinkID]bool{}
	for _, l := range d.quarantined {
		quar[l] = true
	}
	for _, l := range d.adminDown {
		if !quar[l] {
			add("divergence: link %d is admin-down on the fabric but not quarantined — a wrong write was never rolled back", l)
		}
	}
	if st := d.planeStats; st.RolledBack > 0 {
		// The envelope pins FailPushes within the retry budget, so every
		// ChangeSet must commit; a rollback means verify gave up on a
		// push the injection schedule says should have landed.
		add("divergence: %d ChangeSets rolled back under an in-budget injection schedule (stats %+v)",
			st.RolledBack, st)
	}
	return bad
}

func checkRemediation(spec Spec, d *runData) []string {
	var bad []string
	add := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	f := spec.fault()

	// No innocent link is quarantined under a near-threshold steady
	// loss *before the true link is caught*. (A blackhole is exempt:
	// the retransmission storm it causes legitimately shifts spray
	// balance enough to implicate bystanders. After the true link is
	// admin-downed, the fleet-wide spray re-equilibration skews other
	// leaves' ingress splits by 1–2% — persistently, so the confirm
	// streak can trip on an innocent link. No static predictor can
	// model that shifted equilibrium, so post-remediation collateral
	// is accepted; damping still bounds the churn below.)
	trueQuarAt := sim.Time(0)
	for _, a := range d.timeline {
		if a.Kind == remediate.ActionQuarantine && linkInGroup(a.Link, d.blamedGroup) {
			trueQuarAt = a.At
			break
		}
	}
	quarCount := map[topology.LinkID]int{}
	for _, a := range d.timeline {
		if a.Kind != remediate.ActionQuarantine {
			continue
		}
		quarCount[a.Link]++
		if f.Kind == core.FaultBernoulli && !linkInGroup(a.Link, d.blamedGroup) &&
			(trueQuarAt == 0 || a.At < trueQuarAt) {
			add("remediation: quarantined innocent link %d (fault is on leaf %d / spine %d)",
				a.Link, f.Leaf, f.Spine)
		}
	}

	// Damping bound: with the default penalty 1000 / suppress 2200 and
	// a half-life far beyond these runs, a link can be quarantined at
	// most floor(suppress/penalty)+1 = 3 times before damping pins it.
	const dampBound = 3
	for link, n := range quarCount {
		if n > dampBound {
			add("remediation: link %d quarantined %d times — oscillating past the damping bound %d",
				link, n, dampBound)
		}
	}

	// A persistent fault must end quarantined: probes sample the same
	// loss process as data, so a Bernoulli or blackhole link cannot
	// earn M clean rounds. (Bursty and flapping links legitimately can,
	// while damping keeps the churn bounded above.)
	if f.Kind == core.FaultBernoulli || f.Kind == core.FaultBlackHole {
		if len(d.quarantined) == 0 {
			add("remediation: persistent %s fault never quarantined", f.Kind)
		}
		if f.Kind == core.FaultBernoulli {
			// Only innocents caught before the true link count — the
			// post-remediation equilibrium shift above can legitimately
			// hold a bystander down through the end of a short run.
			preTrue := map[topology.LinkID]bool{}
			for _, a := range d.timeline {
				if a.Kind == remediate.ActionQuarantine && !linkInGroup(a.Link, d.blamedGroup) &&
					(trueQuarAt == 0 || a.At < trueQuarAt) {
					preTrue[a.Link] = true
				}
			}
			for _, l := range d.quarantined {
				if preTrue[l] {
					add("remediation: innocent link %d still quarantined at end", l)
				}
			}
		}
	}
	return bad
}

// checkSharedOracles are the 2-job variants of oracles 2 and 3. Both
// jobs span every leaf, so a downstream Bernoulli drop is on both
// rings' paths: EACH job's pipeline must stay clean before onset and
// flag the faulted leaf within the deadline. Verdict links are not
// required — per-job sender signatures comb under shared spray, so the
// shared plane localizes at alert (leaf/uplink) granularity and leaves
// link blame to cross-job corroboration (not attached here).
func checkSharedOracles(spec Spec, opts Options, d *runData) []string {
	var bad []string
	add := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	f := spec.fault()

	if f == nil {
		for _, j := range d.jobs {
			if len(j.events) != 0 {
				add("clean shared run: job %d alert %s", j.id, j.events[0].Alert)
			}
		}
		return bad
	}

	deadline := f.Onset + opts.Deadline
	for _, j := range d.jobs {
		job, detected := j.id, false
		for _, e := range j.events {
			a := e.Alert
			if int(a.Iter) < f.Onset {
				add("clean prefix: job %d alert before fault onset %d: %s", job, f.Onset, a)
				break
			}
		}
		for _, e := range j.events {
			a := e.Alert
			if int(a.Iter) > f.Onset && int(a.Iter) <= deadline &&
				a.Deviation < 0 && a.LeafOrdinal == f.Leaf {
				detected = true
				break
			}
		}
		if !detected {
			add("detection: job %d did not flag the %s fault on leaf %d (rate %.3f, onset %d) by iteration %d",
				job, f.Kind, f.Leaf, f.Rate, f.Onset, deadline)
		}
	}
	return bad
}

func linkInGroup(l topology.LinkID, group []topology.LinkID) bool {
	for _, g := range group {
		if g == l {
			return true
		}
	}
	return false
}

// --- fingerprinting ---

// fp accumulates the replay fingerprint over the run's observable
// timeline.
type fp struct {
	h   hash.Hash64
	buf [8]byte
}

func newFP() *fp { return &fp{h: fnv.New64a()} }

func (f *fp) u64(v uint64) {
	binary.LittleEndian.PutUint64(f.buf[:], v)
	f.h.Write(f.buf[:])
}
func (f *fp) i64(v int64)   { f.u64(uint64(v)) }
func (f *fp) f64(v float64) { f.u64(math.Float64bits(v)) }
func (f *fp) str(s string)  { f.h.Write([]byte(s)); f.u64(uint64(len(s))) }
func (f *fp) sum() uint64   { return f.h.Sum64() }
func (f *fp) stats(s fabric.Stats) {
	f.u64(s.Sent)
	f.u64(s.SentBytes)
	f.u64(s.Delivered)
	f.u64(s.DeliveredBytes)
	f.u64(s.FaultDropped)
	f.u64(s.RouteDropped)
	f.u64(s.RouteDroppedBytes)
	f.u64(s.AdminDropped)
	f.u64(s.PFCPauses)
	f.u64(s.ProbesSent)
	f.u64(s.ProbesLost)
}

func (f *fp) links(net *fabric.Network) {
	topo := net.Topology()
	for id := range topo.Links {
		for _, dir := range []fabric.Direction{fabric.DirAtoB, fabric.DirBtoA} {
			ls := net.LinkStats(topology.LinkID(id), dir)
			f.u64(ls.Sent)
			f.u64(ls.SentBytes)
			f.u64(ls.Delivered)
			f.u64(ls.DeliveredBytes)
			f.u64(ls.FaultDropped)
			f.u64(ls.FaultDroppedBytes)
			f.u64(ls.AdminDropped)
			f.u64(ls.AdminDroppedBytes)
		}
	}
}

func (f *fp) alert(a detect.Alert) {
	f.i64(int64(a.Leaf))
	f.i64(int64(a.LeafOrdinal))
	f.i64(int64(a.Uplink))
	f.i64(int64(a.Iter))
	f.f64(a.Predicted)
	f.f64(a.Observed)
	f.f64(a.Deviation)
	f.i64(int64(a.At))
}

// fingerprint folds the run's observable timeline. A two-job run also
// folds what tells its jobs apart (the job ids, each window's job and
// its all-jobs aggregate); a one-job run does not, which keeps every
// single-job seed's historical fingerprint. So does the three-level
// arm: the window count, the leaf tier's alerts, then the spine tier's.
func fingerprint(rt *core.Runtime, sys *core.System) uint64 {
	f := newFP()
	f.i64(int64(rt.Engine.Now()))
	f.links(rt.Net)
	f.stats(rt.Net.Stats())
	if j := sys.Jobs()[0]; j.Spine != nil {
		f.i64(int64(j.Pipeline.Windows + j.Spine.Pipeline.Windows))
		for _, t := range []*core.Tier{&j.Tier, j.Spine} {
			for _, e := range t.Pipeline.Events {
				f.alert(e.Alert)
			}
		}
		return f.sum()
	}
	multi := len(sys.Jobs()) > 1
	for _, j := range sys.Jobs() {
		if multi {
			f.u64(uint64(j.ID))
		}
		for _, ws := range j.Pipeline.Scores {
			w := ws.Window
			f.i64(int64(w.Leaf))
			if multi {
				f.i64(int64(w.Job))
			}
			f.i64(int64(w.Iter))
			f.i64(int64(w.OpenedAt))
			f.i64(int64(w.ClosedAt))
			for _, b := range w.PortBytes {
				f.i64(b)
			}
			if multi {
				for _, b := range w.AggPortBytes {
					f.i64(b)
				}
			}
			f.f64(ws.Score)
		}
		for _, e := range j.Pipeline.Events {
			f.alert(e.Alert)
			f.i64(int64(e.Verdict.Kind))
			for _, l := range e.Verdict.Links {
				f.i64(int64(l))
			}
		}
	}
	if rem := sys.Remediator(); rem != nil {
		for _, a := range rem.Timeline {
			f.i64(int64(a.At))
			f.i64(int64(a.Kind))
			f.i64(int64(a.Link))
			f.str(a.Detail)
		}
	}
	return f.sum()
}
