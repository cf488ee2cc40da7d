// Command flowpulse-sim runs one simulated training job with FlowPulse
// monitoring and prints a human-readable incident report: the
// scenario, the injected fault, every alert with its localization
// verdict, and traffic/transport statistics.
//
// The run is a scenario file (core.ReadRun, which flowpulse-trace record
// reads too): a flowpulse.Scenario in its JSON form (lowerCamel field
// names, durations in picoseconds under keys ending in PS, an absent
// field is the default) plus the monitor to deploy, a core.MonitorSpec:
//
//	{"scenario": {"leaves": 8, "spines": 4, "bytesPerRank": 4194304, "iterations": 6,
//	              "faults": [{"kind": "bernoulli", "rate": 0.015, "leaf": 3, "spine": 1, "onset": 2}]},
//	 "monitor": {"predictor": "learned", "threshold": 0.01, "remediate": true}}
//
// A key the format does not have is an error, and so is a negative or
// non-finite threshold. Without -scenario the run
// is the built-in one, cmd/flowpulse-sim/testdata/default.json: the
// paper's 32×16 fat tree, 16 MiB per rank, 6 iterations, a 1.5% silent
// drop on leaf 3 / spine 1 after iteration 2, seed 1.
//
// Usage (from the repository root; testdata is cmd/flowpulse-sim/testdata):
//
//	flowpulse-sim                                    # the built-in run
//	flowpulse-sim -scenario testdata/clean.json      # no fault
//	flowpulse-sim -scenario testdata/remediate.json  # closed-loop quarantine
//	flowpulse-sim -scenario testdata/remediate-flap.json
//	                                                 # a flapping link, damped
//	flowpulse-sim -scenario testdata/two-jobs.json   # two jobs, one shared plane
//	flowpulse-sim -scenario testdata/resilience.json # quarantine + ring re-plan
//	flowpulse-sim -scenario testdata/failed-push.json
//	                                                 # drop the quarantine push;
//	                                                 # verify-own-writes re-pushes it
//	flowpulse-sim -scenario testdata/stale-lsdb.json # corrupt the LSDB mid-run;
//	                                                 # the audit reconciles it
//	flowpulse-sim -seed 7 -shards 0 -stats           # engine counters on stderr
//	flowpulse-sim -stream localhost:9465             # live producer: stream the
//	                                                 # trace to flowpulse-serve,
//	                                                 # detection runs server-side
package main

import (
	_ "embed"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"flowpulse"
	"flowpulse/internal/core"
	"flowpulse/internal/serve"
)

// builtin is the run without -scenario.
//
//go:embed testdata/default.json
var builtin []byte

// load reads a -scenario file (the built-in run for ""). The monitor is
// deployed through the facade, whose MonitorConfig has no CE discount.
func load(path string) (core.RunDoc, error) {
	doc, err := core.ReadRun(path, builtin)
	if err == nil && doc.Monitor.CEDiscount != 0 {
		err = fmt.Errorf("%s: monitor.ceDiscount is not supported here (flowpulse-trace record runs it)", path)
	}
	return doc, err
}

// exitOn reports a fatal error and exits 1 (deferred calls do not run).
func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func main() {
	var (
		scenario   = flag.String("scenario", "", "run this scenario file (see the package documentation; default: the built-in run)")
		seed       = flag.Uint64("seed", 0, "random seed, replacing the scenario's (the built-in run's is 1)")
		shards     = flag.Int("shards", runtime.GOMAXPROCS(0), "engine worker shards: 0 = the one-domain partition, a single-threaded run; N >= 1 = one domain per switch on N workers, with identical results for every N >= 1")
		tracePath  = flag.String("trace", "", "record the run to this .fpt trace file for offline replay (see flowpulse-trace)")
		stream     = flag.String("stream", "", "stream the live trace to a flowpulse-serve instance at this host:port (combine with -trace for a local copy)")
		streamTok  = flag.String("stream-token", "", "producer token for -stream")
		streamMode = flag.String("stream-mode", "", "fingerprint the serve session reports for -stream: seq (global, checked against the trailer) or fanout (per-(job, leaf) sum); default seq")
		stats      = flag.Bool("stats", false, "print the engine's event counters on stderr: events executed, events per packet, and how many schedulings went to a FIFO lane vs the heap")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file (shard workers carry pprof shard=N labels)")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		exitOn(err)
		defer f.Close()
		exitOn(pprof.StartCPUProfile(f))
		defer pprof.StopCPUProfile()
	}

	doc, err := load(*scenario)
	exitOn(err)
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			doc.Scenario.Seed = *seed
		}
	})
	doc.Scenario.Shards = *shards
	opts := doc.Monitor.AttachOptions()

	cluster, err := flowpulse.New(doc.Scenario)
	exitOn(err)
	defer cluster.Close()
	sc := cluster.Scenario()
	multi := len(sc.Jobs) > 1
	monCfg := flowpulse.MonitorConfig{
		Predictor: opts.Job.Kind, Threshold: opts.Job.Detect.Threshold,
		Remediate: opts.Remediate, Resilience: opts.Resilience,
		TracePath: *tracePath, TraceLabel: "flowpulse-sim",
	}
	// -stream turns this run into a live producer: the same .fpt frames
	// that would land in -trace go down a TCP connection to a
	// flowpulse-serve instance, which detects server-side and reports
	// parity back when the stream closes.
	var producer *serve.Producer
	if *stream != "" {
		p, err := serve.DialProducer(*stream, *streamTok, *streamMode, "flowpulse-sim", 5*time.Second)
		exitOn(err)
		producer = p
		monCfg.TracePath = ""
		monCfg.TraceSink = io.Writer(p)
		if *tracePath != "" {
			f, err := os.Create(*tracePath)
			exitOn(err)
			defer f.Close()
			monCfg.TraceSink = io.MultiWriter(f, p)
		}
	}
	mon, err := cluster.Monitor(monCfg)
	exitOn(err)
	var goodput *flowpulse.GoodputTimeline
	if opts.Resilience != nil && !multi {
		goodput = cluster.TrackGoodput()
	}

	fabric := fmt.Sprintf("%dx%d fat tree", sc.Leaves, sc.Spines)
	if sc.Pods > 0 {
		fabric = fmt.Sprintf("%d-pod Clos of %dx%d pods (%d cores per spine group)", sc.Pods, sc.Leaves, sc.Spines, sc.CoresPerGroup)
	}
	fmt.Printf("FlowPulse simulation: %s, %d host(s)/leaf, %s, %g MiB/rank, %d iterations\n",
		fabric, sc.HostsPerLeaf, sc.Collective, float64(sc.BytesPerRank)/(1<<20), sc.Iterations)
	if multi {
		fmt.Printf("jobs: %d concurrent (one shared tap per switch, per-job pipelines)\n", len(sc.Jobs))
	}
	det := mon.System().Jobs()[0].Detector
	fmt.Printf("predictor=%s threshold=%.2f%% pre-existing=%d\n", mon.PredictorName(), det.Threshold()*100, len(sc.PreExisting))
	if *shards >= 1 {
		fmt.Printf("engine: sharded (%d workers, one domain per switch)\n", *shards)
	} else {
		fmt.Println("engine: single-threaded")
	}
	for _, f := range sc.Faults {
		fmt.Printf("fault: %v\n", f)
	}
	if len(sc.Faults) == 0 {
		fmt.Println("fault: none (clean run)")
	}
	if opts.Remediate != nil {
		fmt.Println("remediation: enabled (confirm K=3, probe M=3, flap damping)")
	}
	if opts.Resilience != nil {
		fmt.Println("resilience: enabled (ring re-plan when a quarantine degrades a leaf)")
	}
	if d := sc.Divergence; d.Enabled() {
		posture := "verified (verify-own-writes + reconciliation)"
		if d.Unverified {
			posture = "UNVERIFIED (pushes trusted blindly)"
		}
		fmt.Printf("control plane: %s; injecting fail-pushes=%d (skip %d) partial-ops=%d stale-flips=%d audit-every=%dµs\n",
			posture, d.FailPushes, d.FailSkip, d.PartialOps, len(d.Stale), d.AuditEvery/flowpulse.Microsecond)
	}
	fmt.Println()

	first := cluster.Runtime().Jobs[0].Spec.Job
	err = cluster.TrainAll(func(now flowpulse.Duration, job uint16, iter uint32) {
		if multi {
			fmt.Printf("job %d iteration %2d complete at %v\n", job, iter, now)
		} else {
			fmt.Printf("iteration %2d complete at %v\n", iter, now)
		}
		// Train applied the schedule on the first job's clock, just before
		// this hook.
		if job != first {
			return
		}
		for _, f := range sc.Faults {
			if int(iter) == f.Onset {
				fmt.Printf("  >> fault injected\n")
			}
			if int(iter) == f.Heal {
				fmt.Printf("  >> fault healed\n")
			}
		}
	})
	exitOn(err)
	if *tracePath != "" {
		fmt.Printf("trace recorded to %s\n", *tracePath)
	}
	if producer != nil {
		st, err := producer.Close()
		exitOn(err)
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

	if opts.Remediate != nil {
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
