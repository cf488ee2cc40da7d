// Command flowpulse-sim runs one simulated training job with FlowPulse
// monitoring and prints a human-readable incident report: the
// scenario, the injected fault, every alert with its localization
// verdict, and traffic/transport statistics.
//
// Usage:
//
//	flowpulse-sim                                  # paper defaults, 1.5% fault
//	flowpulse-sim -leaves 16 -spines 8 -size 32
//	flowpulse-sim -drop 0.008 -fault-leaf 7 -fault-spine 2
//	flowpulse-sim -predictor learned -iters 12 -heal-after 6
//	flowpulse-sim -drop 0                          # clean run
//	flowpulse-sim -remediate                       # closed-loop quarantine
//	flowpulse-sim -remediate -leaves 8 -spines 4 -size 8 -iters 48 \
//	    -fault-leaf 4 -drop 0.3 -flap-period 2040 -flap-down 1020
//	flowpulse-sim -jobs 2 -leaves 8 -spines 4 -size 4 -remediate
//	                                               # two jobs, one shared plane
//	flowpulse-sim -resilience -interleave -leaves 8 -spines 2 -hosts 4 \
//	    -size 2 -iters 20 -fault-leaf 4 -fault-spine 0 -drop 0.05
//	                                               # quarantine + ring re-plan
//	flowpulse-sim -remediate -fail-pushes 1        # drop the quarantine push;
//	                                               # verify-own-writes re-pushes it
//	flowpulse-sim -remediate -drop 0 -stale-at 900 # corrupt the LSDB mid-run;
//	                                               # the audit reconciles it
//	flowpulse-sim -stats -shards 0                 # engine counters on stderr
//	flowpulse-sim -stream localhost:9465           # live producer: stream the
//	                                               # trace to flowpulse-serve,
//	                                               # detection runs server-side
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"flowpulse"
	"flowpulse/internal/serve"
	"flowpulse/internal/sim"
)

func main() {
	var (
		leaves     = flag.Int("leaves", 32, "leaf switches")
		spines     = flag.Int("spines", 16, "spine switches")
		hosts      = flag.Int("hosts", 1, "hosts per leaf")
		sizeMB     = flag.Int64("size", 16, "collective size per rank (MiB)")
		iters      = flag.Int("iters", 6, "training iterations")
		coll       = flag.String("collective", "ring-allreduce", "collective (ring-allreduce|reduce-scatter|all-gather|all-to-all)")
		predictor  = flag.String("predictor", "analytical", "load model (analytical|simulation|learned)")
		threshold  = flag.Float64("threshold", 0.01, "detection threshold")
		drop       = flag.Float64("drop", 0.015, "silent fault drop rate (0 = clean run)")
		faultLeaf  = flag.Int("fault-leaf", 3, "faulty link: leaf ordinal")
		faultSpine = flag.Int("fault-spine", 1, "faulty link: spine ordinal")
		faultIter  = flag.Int("fault-at", 2, "inject after this iteration (0 = from start)")
		healAfter  = flag.Int("heal-after", 0, "heal the fault after this iteration (0 = never)")
		upstream   = flag.Bool("upstream", false, "fault the leaf-to-spine direction instead")
		preDown    = flag.Int("preexisting", 0, "number of pre-existing disconnected links")
		jitterUS   = flag.Int64("jitter", 0, "per-rank start jitter (µs)")
		remediated = flag.Bool("remediate", false, "close the loop: confirm, quarantine, probe, re-admit")
		resilient  = flag.Bool("resilience", false, "extend the loop into the workload: re-plan the ring when a quarantine degrades a leaf below 90% capacity (implies -remediate)")
		interleave = flag.Bool("interleave", false, "interleave the ring across leaves (placement-oblivious rank order) so every ring edge crosses the fabric")
		flapPeriod = flag.Int64("flap-period", 0, "make the fault a lossy flap with this period (µs, 0 = persistent)")
		flapDown   = flag.Int64("flap-down", 0, "flap down-phase length (µs, default period/2)")
		jobs       = flag.Int("jobs", 1, "concurrent training jobs on one shared monitoring plane")
		failSkip   = flag.Int("fail-skip", 0, "divergence: let this many control-plane pushes through before dropping starts")
		failPushes = flag.Int("fail-pushes", 0, "divergence: silently drop this many control-plane pushes after -fail-skip (verify-own-writes re-pushes; -unverified commits the lie)")
		partialOps = flag.Int("partial-ops", 0, "divergence: land only the first N operations of the next multi-op ChangeSet")
		staleAtUS  = flag.Int64("stale-at", 0, "divergence: corrupt the LSDB advertisement for the fault link at this time (µs); lands on the next remediation tick, so needs -remediate")
		staleUp    = flag.Bool("stale-up", false, "advertise the stale link as up instead of down")
		unverified = flag.Bool("unverified", false, "divergence baseline: the plane trusts every push — no verify-own-writes, no reconciliation, no audit")
		auditUS    = flag.Int64("audit-every", 0, "divergence: audit belief against truth at this cadence (µs; verified planes only)")
		tracePath  = flag.String("trace", "", "record the run to this .fpt trace file for offline replay (see flowpulse-trace)")
		stream     = flag.String("stream", "", "stream the live trace to a flowpulse-serve instance at this host:port (combine with -trace for a local copy)")
		streamTok  = flag.String("stream-token", "", "producer token for -stream")
		streamMode = flag.String("stream-mode", "", "serve ingestion mode for -stream (seq|fanout; default seq)")
		seed       = flag.Uint64("seed", 1, "random seed")
		shards     = flag.Int("shards", runtime.GOMAXPROCS(0), "engine worker shards; results are identical for every value >= 1 (0 = classic single-threaded engine, byte-compatible with older releases)")
		stats      = flag.Bool("stats", false, "print the engine's event counters on stderr: events executed, events per packet, and how many schedulings went to a FIFO lane vs the heap")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file (shard workers carry pprof shard=N labels)")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	if *resilient {
		*remediated = true
	}
	if *jobs > 1 && *hosts < *jobs {
		*hosts = *jobs // one host column per job
	}
	sc := flowpulse.Scenario{
		Leaves: *leaves, Spines: *spines, HostsPerLeaf: *hosts,
		Collective:     flowpulse.CollectiveKind(*coll),
		InterleaveRing: *interleave,
		BytesPerRank:   *sizeMB << 20,
		Iterations:     *iters,
		JitterMax:      flowpulse.Duration(*jitterUS) * flowpulse.Microsecond,
		Seed:           *seed,
		Shards:         *shards,
	}
	for j := 1; j <= *jobs && *jobs > 1; j++ {
		sc.Jobs = append(sc.Jobs, flowpulse.JobSpec{Job: uint16(j), HostIx: j - 1})
	}
	for i := 0; i < *preDown; i++ {
		sc.PreExisting = append(sc.PreExisting, flowpulse.Link{
			LeafOrd:  (i*7 + 1) % *leaves,
			SpineOrd: (i*3 + 2) % *spines,
		})
	}
	sc.Divergence = flowpulse.DivergenceSpec{
		FailSkip:   *failSkip,
		FailPushes: *failPushes,
		PartialOps: *partialOps,
		Unverified: *unverified,
		AuditEvery: flowpulse.Duration(*auditUS) * flowpulse.Microsecond,
	}
	// The fault flags are one schedule entry; a clean run (-drop 0) lists
	// none.
	fault := flowpulse.FaultSpec{
		Kind: flowpulse.FaultBernoulli, Rate: *drop,
		Leaf: *faultLeaf, Spine: *faultSpine, Upstream: *upstream,
		Onset: max(*faultIter, 0), Heal: max(*healAfter, 0),
	}
	if *flapPeriod > 0 {
		fault.Kind = flowpulse.FaultFlap
		fault.FlapPeriod = flowpulse.Duration(*flapPeriod) * flowpulse.Microsecond
		fault.FlapDown = fault.FlapPeriod / 2
		if *flapDown > 0 {
			fault.FlapDown = flowpulse.Duration(*flapDown) * flowpulse.Microsecond
		}
	}
	if *drop > 0 {
		sc.Faults = []flowpulse.FaultSpec{fault}
	}
	if *staleAtUS > 0 {
		sc.Divergence.Stale = append(sc.Divergence.Stale, flowpulse.StaleSpec{
			At:   sim.Time(sim.Duration(*staleAtUS) * sim.Microsecond),
			Link: flowpulse.Link{LeafOrd: *faultLeaf, SpineOrd: *faultSpine},
			Up:   *staleUp,
		})
	}

	cluster, err := flowpulse.New(sc)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer cluster.Close()
	monCfg := flowpulse.MonitorConfig{
		Predictor:  flowpulse.PredictorKind(*predictor),
		Threshold:  *threshold,
		TracePath:  *tracePath,
		TraceLabel: "flowpulse-sim",
	}
	// -stream turns this run into a live producer: the same .fpt frames
	// that would land in -trace go down a TCP connection to a
	// flowpulse-serve instance, which detects server-side and reports
	// parity back when the stream closes.
	var producer *serve.Producer
	if *stream != "" {
		p, err := serve.DialProducer(*stream, *streamTok, *streamMode, "flowpulse-sim", 5*time.Second)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		producer = p
		monCfg.TracePath = ""
		monCfg.TraceSink = io.Writer(p)
		if *tracePath != "" {
			f, err := os.Create(*tracePath)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			defer f.Close()
			monCfg.TraceSink = io.MultiWriter(f, p)
		}
	}
	if *remediated {
		monCfg.Remediate = &flowpulse.RemediateConfig{}
	}
	if *resilient {
		monCfg.Resilience = &flowpulse.ResilienceConfig{}
	}
	mon, err := cluster.Monitor(monCfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var goodput *flowpulse.GoodputTimeline
	if *resilient && *jobs <= 1 {
		goodput = cluster.TrackGoodput()
	}

	fmt.Printf("FlowPulse simulation: %dx%d fat tree, %d host(s)/leaf, %s, %d MiB/rank, %d iterations\n",
		*leaves, *spines, *hosts, *coll, *sizeMB, *iters)
	if *jobs > 1 {
		fmt.Printf("jobs: %d concurrent (one shared tap per switch, per-job pipelines)\n", *jobs)
	}
	fmt.Printf("predictor=%s threshold=%.2f%% pre-existing=%d\n", *predictor, *threshold*100, *preDown)
	if *shards >= 1 {
		fmt.Printf("engine: sharded (%d workers, one domain per switch)\n", *shards)
	} else {
		fmt.Println("engine: single-threaded")
	}
	if len(sc.Faults) > 0 {
		fmt.Printf("fault: %v\n", fault)
	} else {
		fmt.Println("fault: none (clean run)")
	}
	if *remediated {
		fmt.Println("remediation: enabled (confirm K=3, probe M=3, flap damping)")
	}
	if *resilient {
		fmt.Println("resilience: enabled (ring re-plan when a quarantine degrades a leaf)")
	}
	if sc.Divergence.Enabled() {
		posture := "verified (verify-own-writes + reconciliation)"
		if *unverified {
			posture = "UNVERIFIED (pushes trusted blindly)"
		}
		fmt.Printf("control plane: %s; injecting fail-pushes=%d (skip %d) partial-ops=%d stale-flips=%d audit-every=%dµs\n",
			posture, *failPushes, *failSkip, *partialOps, len(sc.Divergence.Stale), *auditUS)
	}
	fmt.Println()

	err = cluster.TrainAll(func(now flowpulse.Duration, job uint16, iter uint32) {
		if *jobs > 1 {
			fmt.Printf("job %d iteration %2d complete at %v\n", job, iter, now)
		} else {
			fmt.Printf("iteration %2d complete at %v\n", iter, now)
		}
		// Train applied the schedule on the first job's clock, just before
		// this hook.
		if len(sc.Faults) > 0 && (*jobs <= 1 || job == 1) {
			if int(iter) == fault.Onset {
				fmt.Printf("  >> fault injected\n")
			}
			if int(iter) == fault.Heal {
				fmt.Printf("  >> fault healed\n")
			}
		}
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *tracePath != "" {
		fmt.Printf("trace recorded to %s\n", *tracePath)
	}
	if producer != nil {
		st, err := producer.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("streamed to %s: session=%s mode=%s windows=%d events=%d actions=%d fingerprint=%016x parity=%s\n",
			*stream, st.Session, st.Mode, st.Windows, st.Events, st.Actions, st.Fingerprint, st.Parity)
	}

	printEvents := func(prefix string, events []flowpulse.Event) {
		if len(events) == 0 {
			fmt.Printf("%sno faults detected\n", prefix)
			return
		}
		fmt.Printf("%s%d alert(s):\n", prefix, len(events))
		for _, e := range events {
			fmt.Printf("%s  %v\n", prefix, e.Alert)
			if e.Alert.Deviation < 0 {
				fmt.Printf("%s    localization: %v\n", prefix, e.Verdict)
			}
		}
	}
	printScores := func(prefix string, scores map[uint32]float64) {
		iterKeys := make([]int, 0, len(scores))
		for it := range scores {
			iterKeys = append(iterKeys, int(it))
		}
		sort.Ints(iterKeys)
		for _, it := range iterKeys {
			fmt.Printf("%s  iter %2d: %6.3f%%\n", prefix, it, 100*scores[uint32(it)])
		}
	}

	fmt.Println()
	if jms := mon.Jobs(); len(jms) > 0 {
		for _, jm := range jms {
			fmt.Printf("job %d:\n", jm.ID())
			printEvents("  ", jm.Events())
			fmt.Println("  per-iteration max |deviation| across all leaf ports:")
			printScores("  ", jm.IterationScores())
		}
	} else {
		printEvents("", mon.Events())
		fmt.Println()
		fmt.Println("per-iteration max |deviation| across all leaf ports:")
		printScores("", mon.IterationScores())
	}

	if *remediated {
		fmt.Println()
		timeline := mon.RemediationTimeline()
		if len(timeline) == 0 {
			fmt.Println("remediation timeline: (no actions)")
		} else {
			fmt.Println("remediation timeline:")
			for _, a := range timeline {
				fmt.Printf("  %v\n", a)
			}
		}
		rs := mon.RemediationStats()
		fmt.Printf("remediation: confirmations=%d quarantines=%d probe-rounds=%d readmissions=%d suppressed=%d\n",
			rs.Confirmations, rs.Quarantines, rs.ProbeRounds, rs.Readmissions, rs.SuppressedReadmits)
		if q := mon.Quarantined(); len(q) > 0 {
			fmt.Printf("still quarantined: links %v\n", q)
		}
	}

	if goodput != nil {
		rep := goodput.Report(0.9)
		fmt.Println()
		fmt.Printf("goodput: baseline=%.3f it/ms during=%.3f it/ms stall=%v\n",
			rep.Baseline*float64(flowpulse.Millisecond),
			rep.During*float64(flowpulse.Millisecond),
			flowpulse.Duration(rep.Stall))
		switch {
		case !rep.Faulted:
			fmt.Println("recovery: n/a (no fault marked)")
		case rep.Recovered:
			fmt.Printf("recovery: %v after the fault (iteration %d, post rate %.3f it/ms)\n",
				flowpulse.Duration(rep.RecoveryTime), rep.RecoveryIter,
				rep.Post*float64(flowpulse.Millisecond))
		default:
			fmt.Println("recovery: NOT RECOVERED (run ended below 90% of baseline)")
		}
	}

	if sc.Divergence.Enabled() {
		plane := cluster.ControlPlane()
		ps := plane.Stats()
		fmt.Println()
		fmt.Printf("control plane: changesets=%d committed=%d rolled-back=%d retries=%d verify-mismatches=%d pushes-dropped=%d\n",
			ps.ChangeSets, ps.Committed, ps.RolledBack, ps.Retries, ps.VerifyMismatches, ps.PushesDropped)
		fmt.Printf("divergence: episodes=%d reconciles=%d audits=%d audit-repairs=%d stale-adopted=%d total-diverged=%v\n",
			ps.Divergences, ps.Reconciles, ps.Audits, ps.AuditRepairs, ps.StaleAdopted, ps.TotalDiverged)
		if d := plane.Divergent(); len(d) > 0 {
			fmt.Printf("STILL DIVERGENT at end of run: links %v\n", d)
		} else {
			fmt.Println("belief == truth at end of run")
		}
	}

	fmt.Println()
	ns := cluster.NetworkStats()
	ts := cluster.TransportStats()
	fmt.Printf("network: sent=%d delivered=%d silently-dropped=%d pfc-pauses=%d\n",
		ns.Sent, ns.Delivered, ns.FaultDropped, ns.PFCPauses)
	fmt.Printf("transport: messages=%d retransmits=%d spurious=%d duplicates=%d\n",
		ts.MessagesSent, ts.Retransmits, ts.SpuriousRetransmits, ts.DuplicatesReceived)
	fmt.Printf("simulated time: %v\n", cluster.Now())
	if *stats {
		ev, q := cluster.Runtime().EngineStats()
		pushes := q.LanePushes + q.HeapPushes
		fmt.Fprintf(os.Stderr, "engine: executed=%d events (%.2f per packet) scheduled=%d lane=%d (%.1f%%) heap=%d peak-pending=%d\n",
			ev, float64(ev)/float64(ns.Sent), pushes, q.LanePushes, 100*float64(q.LanePushes)/float64(pushes), q.HeapPushes, q.PeakPending)
	}
}
