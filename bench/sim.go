package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"time"

	"flowpulse"
	"flowpulse/internal/remediate"
	"flowpulse/internal/sim"
	"flowpulse/internal/trace"
)

// The simulate path: flowpulse.New → Monitor → TrainAll, as a library
// user drives it. sim-ring is the default cluster on the classic
// engine; sim-shared puts two jobs on the shared monitoring plane over
// the sharded engine.

// faultOnsetIter is the iteration after which the silent fault is
// injected; the two iterations before it also size the pools, so the
// measured section starts here.
const faultOnsetIter = 2

// simSpec is one simulate workload at one scale.
type simSpec struct {
	name           string
	shared         bool
	leaves, spines int
	bytesPerRank   int64
	// itersPerSec is the nominal host rate on the 2-core reference box.
	// Iteration counts are derived from it and --seconds — never from a
	// timing taken during the run — so that the simulated statistics of
	// two runs (and two commits) are comparable.
	itersPerSec float64
}

func (s simSpec) iterations(seconds float64) int {
	// Two builds share the run (see runSim), each getting half.
	n := int(math.Round(seconds / 2 * s.itersPerSec))
	if min := faultOnsetIter + 6; n < min {
		n = min // detection needs three deviating windows after onset
	}
	return n
}

func (s simSpec) scenario(seed uint64, iters int) flowpulse.Scenario {
	sc := flowpulse.Scenario{
		Leaves: s.leaves, Spines: s.spines, BytesPerRank: s.bytesPerRank,
		Iterations: iters, Seed: seed,
	}
	if s.shared {
		sc.HostsPerLeaf = 2
		sc.Shards = 2
		sc.Jobs = []flowpulse.JobSpec{{HostIx: 0}, {HostIx: 1}}
	}
	return sc
}

// faultLink draws the faulty leaf–spine link from the seed.
func (s simSpec) faultLink(seed uint64) flowpulse.Link {
	rng := rand.New(rand.NewSource(int64(seed) ^ 0x5eed))
	return flowpulse.Link{LeafOrd: rng.Intn(s.leaves), SpineOrd: rng.Intn(s.spines)}
}

// simBuild is one built, monitored, trained cluster and what the
// harness observed from outside while it ran.
type simBuild struct {
	cluster *flowpulse.Cluster
	mon     *flowpulse.Monitor
	rec     bytes.Buffer

	iterWall []time.Duration // host time of iterations after the onset
	wall     time.Duration   // host time of the measured section
	cpu      time.Duration   // process CPU time of it
	windows  int             // windows the monitor processed in it
	mallocs  uint64          // heap allocations in it
	iterEnd  []sim.Time      // simulated completion time of job 0's iterations
	events   int
}

// assemble is the set-up sequence: build the fabric, deploy the
// monitor. Its two halves are timed separately for core.build_ms and
// core.attach_ms.
func (s simSpec) assemble(seed uint64, iters int, b *simBuild, onEvent func(flowpulse.Event)) (build, attach time.Duration, err error) {
	t0 := time.Now()
	b.cluster, err = flowpulse.New(s.scenario(seed, iters))
	if err != nil {
		return 0, 0, err
	}
	t1 := time.Now()
	b.mon, err = b.cluster.Monitor(flowpulse.MonitorConfig{
		Remediate: &flowpulse.RemediateConfig{}, TraceSink: &b.rec, OnEvent: onEvent,
	})
	if err != nil {
		b.cluster.Close()
		return 0, 0, err
	}
	return t1.Sub(t0), time.Since(t1), nil
}

// train runs one build to completion, timing the iterations of the
// first job from outside.
func (s simSpec) train(seed uint64, iters int, tr *tracer) (*simBuild, error) {
	b := &simBuild{}
	_, endBuild := tr.begin("core.build+attach", -1, 0)
	_, _, err := s.assemble(seed, iters, b, func(flowpulse.Event) { b.events++ })
	endBuild()
	if err != nil {
		return nil, err
	}
	link := s.faultLink(seed)
	first := b.cluster.Scenario().Job
	trainSpan, endTrain := tr.begin("train", -1, 0)
	var last, sectionStart time.Time
	var windowsAt int
	var mallocsAt uint64
	var cpuAt time.Duration
	b.cluster.TrainAll(func(now flowpulse.Duration, job uint16, iter uint32) {
		if job != first {
			return
		}
		t := time.Now()
		b.iterEnd = append(b.iterEnd, sim.Time(now))
		switch {
		case iter == faultOnsetIter:
			b.cluster.BreakLink(link, 0.05)
			sectionStart, windowsAt, mallocsAt, cpuAt = t, b.mon.Windows(), markMallocs(), cpuTime()
		case iter > faultOnsetIter:
			b.iterWall = append(b.iterWall, t.Sub(last))
			tr.add("iteration", last, t, trainSpan, int(iter))
		}
		if int(iter) == iters {
			b.wall, b.cpu = t.Sub(sectionStart), cpuTime()-cpuAt
			b.windows = b.mon.Windows() - windowsAt
			b.mallocs = markMallocs() - mallocsAt
		}
		last = time.Now() // the bookkeeping above is the harness's, not the iteration's
	})
	endTrain()
	return b, nil
}

// executed is the exact number of engine events the build fired.
func (b *simBuild) executed() uint64 {
	rt := b.cluster.Runtime()
	if rt.EngineGroup == nil {
		return rt.Engine.Executed()
	}
	var n uint64
	for d := 0; d < rt.EngineGroup.Domains(); d++ {
		n += rt.EngineGroup.Engine(d).Executed()
	}
	return n
}

// fingerprint condenses the simulated outcome: the alert/remediation
// stream fingerprint, the fabric and transport counters, and the
// simulated end time. Two builds of one seed — and two commits that
// only differ in host speed — must agree on it.
func (b *simBuild) fingerprint() string {
	ns, ts := b.cluster.NetworkStats(), b.cluster.TransportStats()
	return fmt.Sprintf("%016x/ev%d/sent%d/dlv%d/drop%d/adm%d/pfc%d/retx%d/spur%d/end%d",
		b.mon.TraceWriter().Fingerprint(), b.executed(), ns.Sent, ns.Delivered, ns.FaultDropped, ns.AdminDropped,
		ns.PFCPauses, ts.Retransmits, ts.SpuriousRetransmits, int64(b.cluster.Now()))
}

func runSim(s simSpec, cfg runConfig, tr *tracer) (*result, error) {
	res := newResult()
	iters := s.iterations(cfg.seconds)

	// Set-up time: build + attach, repeated because one takes
	// milliseconds.
	var builds, attaches []float64
	setup, err := repeatSetup(cfg.setupReps, cfg.setupTime, func() error {
		var b simBuild
		bd, at, err := s.assemble(cfg.seed, iters, &b, nil)
		if err != nil {
			return err
		}
		b.cluster.Close()
		builds, attaches = append(builds, ms(bd)), append(attaches, ms(at))
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.e2e["setup_s"] = setup
	res.layer["core.build_ms"], res.layer["core.attach_ms"] = median(builds), median(attaches)

	// Two builds of the same seed share the measured time. Both are
	// timed; the second doubles as the determinism gate and, on a traced
	// run, as the traced pass against the untraced first.
	heapBase := liveHeap()
	a, err := s.train(cfg.seed, iters, nil)
	if err != nil {
		return nil, err
	}
	fpA, itersA := a.fingerprint(), durationsMs(a.iterWall)
	a.cluster.Close()
	a.cluster, a.mon = nil, nil // only its timings are needed from here on
	a.rec.Reset()
	b, err := s.train(cfg.seed, iters, tr)
	if err != nil {
		return nil, err
	}
	defer b.cluster.Close()
	res.e2e["live_heap_mb"] = mb(liveHeap(), heapBase)

	itersB := durationsMs(b.iterWall)
	res.e2e["op_p50_ms"] = median(append(append([]float64(nil), itersA...), itersB...))
	res.wall, res.windows = a.wall+b.wall, a.windows+b.windows
	res.e2e["windows_per_s"] = float64(res.windows) / res.wall.Seconds()
	res.e2e["allocs_per_kwindow"] = 1000 * float64(a.mallocs+b.mallocs) / float64(res.windows)
	if tr != nil {
		res.layer["bench.trace_overhead"] = median(itersB) / median(itersA)
	}

	// Gates. Every iteration is an attempted op; each gate is one more.
	res.attempted += 2 * iters
	fpB := b.fingerprint()
	res.info = append(res.info, fmt.Sprintf("iterations=%d per build, sim_fingerprint=%s", iters, fpB))
	res.check(fpA == fpB, "two builds of seed %d disagree: %s vs %s", cfg.seed, fpA, fpB)
	rt := b.cluster.Runtime()
	faulty := rt.Link(s.faultLink(cfg.seed))
	quarantined := b.mon.Quarantined()
	res.check(len(quarantined) == 1 && quarantined[0] == faulty, "quarantined %v, want exactly the faulty link [%d]", quarantined, faulty)
	if err := b.mon.TraceWriter().Err(); err != nil {
		res.op(fmt.Sprintf("recording failed: %v", err))
	} else if rr, err := trace.Replay(bytes.NewReader(b.rec.Bytes()), trace.ReplayOptions{}); err != nil {
		res.op(fmt.Sprintf("offline replay of the run's recording: %v", err))
	} else {
		res.check(rr.Matches(), "offline replay of the run's recording does not reproduce the online fingerprint")
	}

	// Exact counts from the second build (the first agreed, by the
	// fingerprint gate).
	n := float64(iters)
	ns, ts := b.cluster.NetworkStats(), b.cluster.TransportStats()
	res.layer["sim.events_per_iter"] = float64(b.executed()) / n
	res.layer["fabric.packets_per_iter"] = float64(ns.Sent) / n
	res.layer["fabric.fault_dropped"] = float64(ns.FaultDropped)
	res.layer["fabric.pfc_pauses"] = float64(ns.PFCPauses)
	res.layer["transport.retransmits_per_iter"] = float64(ts.Retransmits) / n
	res.layer["transport.spurious_per_iter"] = float64(ts.SpuriousRetransmits) / n
	res.layer["telemetry.windows_per_iter"] = float64(b.mon.Windows()) / n
	res.layer["detect.alerts_per_kwindow"] = 1000 * float64(b.events) / float64(b.mon.Windows())
	res.layer["detect.nonfinite_scores"] = float64(nonFiniteScores(b.mon))
	res.layer["trace.bytes_per_window"] = float64(b.rec.Len()) / float64(b.mon.Windows())
	res.layer["control.changesets"] = float64(rt.Plane.Stats().ChangeSets)
	quar, innocent, onsetToQuar := 0, 0, 0.0
	for _, act := range b.mon.RemediationTimeline() {
		if act.Kind != remediate.ActionQuarantine {
			continue
		}
		quar++
		if act.Link != faulty {
			innocent++
			continue
		}
		// The iteration during which the quarantine landed, counted
		// from the onset iteration.
		k := 0
		for k < len(b.iterEnd) && b.iterEnd[k] < act.At {
			k++
		}
		onsetToQuar = float64(k + 1 - faultOnsetIter)
	}
	res.layer["remediate.quarantines"] = float64(quar)
	res.layer["remediate.innocent_quarantines"] = float64(innocent)
	res.layer["remediate.onset_to_quarantine_iters"] = onsetToQuar

	if tr != nil {
		if err := s.account(res, b); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// nonFiniteScores counts NaN/±Inf iteration scores across the jobs.
func nonFiniteScores(m *flowpulse.Monitor) int {
	count := func(scores map[uint32]float64) (n int) {
		for _, v := range scores {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				n++
			}
		}
		return n
	}
	n := count(m.IterationScores())
	for _, j := range m.Jobs() {
		n += count(j.IterationScores())
	}
	return n
}

func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// account runs the unit probes of the layers the simulate path uses
// and multiplies them by the run's exact counts.
func (s simSpec) account(res *result, b *simBuild) error {
	probeRec, err := synthesize(recSpec{label: "probe", leaves: s.leaves, spines: s.spines, iters: 40, plantEvery: 10}, 1)
	if err != nil {
		return err
	}
	ws, err := loadWindows(probeRec.raw, 4096)
	if err != nil {
		return err
	}
	l := res.layer
	if s.shared {
		l["sim.group_ns_per_event"] = probeGroup()
		l["telemetry.shared_tap_ns_per_packet"] = probeTap(s.leaves, s.spines, 2)
	} else {
		l["sim.engine_ns_per_event"] = probeEngine()
		l["telemetry.tap_ns_per_packet"] = probeTap(s.leaves, s.spines, 1)
	}
	l["fabric.ns_per_packet"], l["fabric.allocs_per_packet"] = probeFabric(s.leaves, s.spines)
	l["transport.ns_per_message"] = probeTransport(s.leaves, s.spines)
	l["predict.analytical_build_us"], l["predict.rebaseline_us"] = probePredict(s.leaves, s.spines, s.bytesPerRank)
	l["detect.check_ns_per_window"] = ws.probeDetect()
	l["localize.ns_per_alert"] = ws.probeLocalize()
	l["monitor.onwindow_hist_ns"] = ws.probeOnWindow(true)
	l["remediate.observe_ns_per_alert"] = probeRemediate(s.leaves, s.spines)
	l["control.changeset_apply_us"] = probeChangeSet(s.leaves, s.spines)
	l["trace.encode_ns_per_window"] = ws.probeEncode()

	// Counts over the measured section of the traced build: totals
	// scaled by the share of iterations that section covers.
	iters := float64(len(b.iterEnd))
	share := float64(len(b.iterWall)) / iters
	ts := b.cluster.TransportStats()
	dataPkts := float64(ts.DataPacketsSent+ts.Retransmits) * share
	engineNs := l["sim.engine_ns_per_event"] + l["sim.group_ns_per_event"]
	tapNs := l["telemetry.tap_ns_per_packet"] + l["telemetry.shared_tap_ns_per_packet"]
	windows := float64(b.windows)
	alerts := float64(b.events)
	rows := []acctRow{
		{"transport (64 KiB-message equivalents)", dataPkts / 16, l["transport.ns_per_message"], 0},
		{"fabric (packets, data + ACK)", l["fabric.packets_per_iter"] * iters * share, l["fabric.ns_per_packet"], 1},
		{"sim (engine events)", l["sim.events_per_iter"] * iters * share, engineNs, 1},
		{"telemetry (tapped data packets)", dataPkts, tapNs, 0},
		{"monitor (window closes, with history)", windows, l["monitor.onwindow_hist_ns"], 0},
		{"detect (score + check)", windows, l["detect.check_ns_per_window"], 1},
		{"localize (alerts)", alerts, l["localize.ns_per_alert"], 1},
		{"trace (windows encoded)", windows, l["trace.encode_ns_per_window"], 0},
		{"remediate (alerts observed)", alerts, l["remediate.observe_ns_per_alert"], 0},
		{"control (ChangeSets)", l["control.changesets"], l["control.changeset_apply_us"] * 1e3, 0},
		{"predict (re-baselines)", l["remediate.quarantines"], l["predict.rebaseline_us"] * 1e3, 0},
	}
	l["bench.unattributed_share"] = printAccounting(s.name, b.wall, b.cpu, rows)
	fmt.Println("  (sim is priced with ≈4k timers pending, fabric and transport with one flow on the classic engine: the rows are estimates under those conditions)")
	return nil
}
