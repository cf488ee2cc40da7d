// Command flowpulse-sim runs one simulated training job with FlowPulse
// monitoring and prints a human-readable incident report: the
// scenario, the injected fault, every alert with its localization
// verdict, and traffic/transport statistics.
//
// The run is a scenario file (core.ReadRun): a core.Scenario in its
// JSON form (lowerCamel field names, durations in picoseconds under keys
// ending in PS, an absent field is the default) plus the monitor to
// deploy, a core.MonitorSpec:
//
//	{"scenario": {"leaves": 8, "spines": 4, "bytesPerRank": 4194304, "iterations": 6,
//	              "faults": [{"kind": "bernoulli", "rate": 0.015, "leaf": 3, "spine": 1, "onset": 2}]},
//	 "monitor": {"predictor": "learned", "threshold": 0.01, "remediate": true}}
//
// A key the format does not have is an error, and so is a negative or
// non-finite threshold. Without -scenario the run
// is the built-in one, cmd/flowpulse-sim/testdata/default.json: the
// paper's 32×16 fat tree, 16 MiB per rank, 6 iterations, a 1.5% silent
// drop on leaf 3 / spine 1 after iteration 2, seed 1. -trace records
// the run to a .fpt file for flowpulse-trace; it is the one way to
// record a run file.
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
//	flowpulse-sim -shards 0 -scenario testdata/bg-remediate.json -trace run.fpt
//	                                                 # record the run for offline
//	                                                 # replay (flowpulse-trace)
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

	"flowpulse/internal/core"
	"flowpulse/internal/serve"
	"flowpulse/internal/sim"
	"flowpulse/internal/trace"
)

// builtin is the run without -scenario.
//
//go:embed testdata/default.json
var builtin []byte

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run is the command: the report goes to stdout, -stats to stderr. A bad
// flag exits 2 from the flag parser.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("flowpulse-sim", flag.ExitOnError)
	fs.SetOutput(stderr)
	var (
		scenario   = fs.String("scenario", "", "run this scenario file (see the package documentation; default: the built-in run)")
		seed       = fs.Uint64("seed", 0, "random seed, replacing the scenario's (the built-in run's is 1)")
		shards     = fs.Int("shards", runtime.GOMAXPROCS(0), "engine worker shards: 0 = the one-domain partition, a single-threaded run; N >= 1 = one domain per switch on N workers, with identical results for every N >= 1")
		tracePath  = fs.String("trace", "", "record the run to this .fpt trace file for offline replay (see flowpulse-trace)")
		stream     = fs.String("stream", "", "stream the live trace to a flowpulse-serve instance at this host:port (combine with -trace for a local copy)")
		streamTok  = fs.String("stream-token", "", "producer token for -stream")
		streamMode = fs.String("stream-mode", "", "fingerprint the serve session reports for -stream: seq (global, checked against the trailer) or fanout (per-(job, leaf) sum); default seq")
		stats      = fs.Bool("stats", false, "print the engine's event counters on stderr: events executed, events per packet, and how many schedulings went to a FIFO lane vs the heap")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file (shard workers carry pprof shard=N labels)")
	)
	fs.Parse(args)
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	doc, err := core.ReadRun(*scenario, builtin)
	if err != nil {
		return err
	}
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			doc.Scenario.Seed = *seed
		}
	})
	doc.Scenario.Shards = *shards
	opts := doc.Monitor.AttachOptions()
	opts.TracePath, opts.TraceLabel = *tracePath, "flowpulse-sim"
	// -stream turns this run into a live producer: the same .fpt frames
	// that would land in -trace go down a TCP connection to a
	// flowpulse-serve instance, which detects server-side and reports
	// parity back when the stream closes.
	var producer *serve.Producer
	if *stream != "" {
		if producer, err = serve.DialProducer(*stream, *streamTok, *streamMode, "flowpulse-sim", 5*time.Second); err != nil {
			return err
		}
		sink := io.Writer(producer)
		if *tracePath != "" {
			f, err := os.Create(*tracePath)
			if err != nil {
				return err
			}
			defer f.Close()
			sink = io.MultiWriter(f, producer)
		}
		opts.TracePath, opts.Trace = "", trace.NewWriter(sink)
	}

	rt, sys, err := core.Run(doc.Scenario, opts, func(rt *core.Runtime, sys *core.System, now sim.Time, job uint16, iter uint32) {
		sc := &rt.Scenario
		switch {
		case iter == 0:
			header(stdout, sc, sys, opts, *shards)
			return
		case len(sc.Jobs) > 1:
			fmt.Fprintf(stdout, "job %d iteration %2d complete at %v\n", job, iter, sim.Duration(now))
		default:
			fmt.Fprintf(stdout, "iteration %2d complete at %v\n", iter, sim.Duration(now))
		}
		// Run applied the schedule on the first job's clock, just
		// before this hook.
		if job != rt.Jobs[0].Spec.Job {
			return
		}
		for _, f := range sc.Faults {
			if int(iter) == f.Onset {
				fmt.Fprintf(stdout, "  >> fault injected\n")
			}
			if int(iter) == f.Heal {
				fmt.Fprintf(stdout, "  >> fault healed\n")
			}
		}
	})
	if err != nil {
		return err
	}
	if *tracePath != "" {
		fmt.Fprintf(stdout, "trace recorded to %s\n", *tracePath)
	}
	if producer != nil {
		st, err := producer.Close()
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "streamed to %s: session=%s mode=%s windows=%d events=%d actions=%d fingerprint=%016x parity=%s\n",
			*stream, st.Session, st.Mode, st.Windows, st.Events, st.Actions, st.Fingerprint, st.Parity)
	}
	report(stdout, rt, sys, opts)
	if *stats {
		ev, q := rt.EngineStats()
		pushes := q.LanePushes + q.HeapPushes
		fmt.Fprintf(stderr, "engine: executed=%d events (%.2f per packet) scheduled=%d lane=%d (%.1f%%) heap=%d peak-pending=%d\n",
			ev, float64(ev)/float64(rt.Net.Stats().Sent), pushes, q.LanePushes, 100*float64(q.LanePushes)/float64(pushes), q.HeapPushes, q.PeakPending)
	}
	return nil
}

// header describes the run before it trains: the defaulted scenario and
// the deployed monitor.
func header(w io.Writer, sc *core.Scenario, sys *core.System, opts core.AttachOptions, shards int) {
	fabric := fmt.Sprintf("%dx%d fat tree", sc.Leaves, sc.Spines)
	if sc.Pods > 0 {
		fabric = fmt.Sprintf("%d-pod Clos of %dx%d pods (%d cores per spine group)", sc.Pods, sc.Leaves, sc.Spines, sc.CoresPerGroup)
	}
	fmt.Fprintf(w, "FlowPulse simulation: %s, %d host(s)/leaf, %s, %g MiB/rank, %d iterations\n",
		fabric, sc.HostsPerLeaf, sc.Collective, float64(sc.BytesPerRank)/(1<<20), sc.Iterations)
	if len(sc.Jobs) > 1 {
		fmt.Fprintf(w, "jobs: %d concurrent (one shared tap per switch, per-job pipelines)\n", len(sc.Jobs))
	}
	job := sys.Jobs()[0]
	fmt.Fprintf(w, "predictor=%s threshold=%.2f%% pre-existing=%d\n", job.Predictor.Name(), job.Detector.Threshold()*100, len(sc.PreExisting))
	if shards >= 1 {
		fmt.Fprintf(w, "engine: sharded (%d workers, one domain per switch)\n", shards)
	} else {
		fmt.Fprintln(w, "engine: single-threaded")
	}
	for _, f := range sc.Faults {
		fmt.Fprintf(w, "fault: %v\n", f)
	}
	if len(sc.Faults) == 0 {
		fmt.Fprintln(w, "fault: none (clean run)")
	}
	if opts.Remediate != nil {
		fmt.Fprintln(w, "remediation: enabled (confirm K=3, probe M=3, flap damping)")
	}
	if opts.Resilience != nil {
		fmt.Fprintln(w, "resilience: enabled (ring re-plan when a quarantine degrades a leaf)")
	}
	if d := sc.Divergence; d.Enabled() {
		posture := "verified (verify-own-writes + reconciliation)"
		if d.Unverified {
			posture = "UNVERIFIED (pushes trusted blindly)"
		}
		fmt.Fprintf(w, "control plane: %s; injecting fail-pushes=%d (skip %d) partial-ops=%d stale-flips=%d audit-every=%dµs\n",
			posture, d.FailPushes, d.FailSkip, d.PartialOps, len(d.Stale), d.AuditEvery/sim.Microsecond)
	}
	fmt.Fprintln(w)
}

// report prints what the finished run found: alerts and per-iteration
// scores, the remediation timeline, goodput recovery, the control
// plane's divergence, and the fabric and transport counters.
func report(w io.Writer, rt *core.Runtime, sys *core.System, opts core.AttachOptions) {
	sc := &rt.Scenario
	printEvents := func(prefix string, events []core.Event) {
		if len(events) == 0 {
			fmt.Fprintf(w, "%sno faults detected\n", prefix)
			return
		}
		fmt.Fprintf(w, "%s%d alert(s):\n", prefix, len(events))
		for _, e := range events {
			fmt.Fprintf(w, "%s  %v\n", prefix, e.Alert)
			if e.Alert.Deviation < 0 {
				fmt.Fprintf(w, "%s    localization: %v\n", prefix, e.Verdict)
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
			fmt.Fprintf(w, "%s  iter %2d: %6.3f%%\n", prefix, it, 100*scores[uint32(it)])
		}
	}

	fmt.Fprintln(w)
	if len(sc.Jobs) > 0 {
		for _, j := range sys.Jobs() {
			fmt.Fprintf(w, "job %d:\n", j.ID)
			printEvents("  ", j.Pipeline.Events)
			fmt.Fprintln(w, "  per-iteration max |deviation| across all leaf ports:")
			printScores("  ", j.Pipeline.IterationScores())
		}
	} else {
		job := sys.Jobs()[0]
		printEvents("", job.Pipeline.Events)
		fmt.Fprintln(w)
		fmt.Fprintln(w, "per-iteration max |deviation| across all leaf ports:")
		printScores("", job.Pipeline.IterationScores())
	}

	if r := sys.Remediator(); r != nil {
		fmt.Fprintln(w)
		if len(r.Timeline) == 0 {
			fmt.Fprintln(w, "remediation timeline: (no actions)")
		} else {
			fmt.Fprintln(w, "remediation timeline:")
			for _, a := range r.Timeline {
				fmt.Fprintf(w, "  %v\n", a)
			}
		}
		rs := r.Stats()
		fmt.Fprintf(w, "remediation: confirmations=%d quarantines=%d probe-rounds=%d readmissions=%d suppressed=%d\n",
			rs.Confirmations, rs.Quarantines, rs.ProbeRounds, rs.Readmissions, rs.SuppressedReadmits)
		if q := r.Quarantined(); len(q) > 0 {
			fmt.Fprintf(w, "still quarantined: links %v\n", q)
		}
	}

	if opts.Resilience != nil && len(sc.Jobs) <= 1 {
		rep := rt.Goodput.Report(0.9)
		fmt.Fprintln(w)
		fmt.Fprintf(w, "goodput: baseline=%.3f it/ms during=%.3f it/ms stall=%v\n",
			rep.Baseline*float64(sim.Millisecond), rep.During*float64(sim.Millisecond), sim.Duration(rep.Stall))
		switch {
		case !rep.Faulted:
			fmt.Fprintln(w, "recovery: n/a (no fault marked)")
		case rep.Recovered:
			fmt.Fprintf(w, "recovery: %v after the fault (iteration %d, post rate %.3f it/ms)\n",
				sim.Duration(rep.RecoveryTime), rep.RecoveryIter, rep.Post*float64(sim.Millisecond))
		default:
			fmt.Fprintln(w, "recovery: NOT RECOVERED (run ended below 90% of baseline)")
		}
	}

	if sc.Divergence.Enabled() {
		ps := rt.Plane.Stats()
		fmt.Fprintln(w)
		fmt.Fprintf(w, "control plane: changesets=%d committed=%d rolled-back=%d retries=%d verify-mismatches=%d pushes-dropped=%d\n",
			ps.ChangeSets, ps.Committed, ps.RolledBack, ps.Retries, ps.VerifyMismatches, ps.PushesDropped)
		fmt.Fprintf(w, "divergence: episodes=%d reconciles=%d audits=%d audit-repairs=%d stale-adopted=%d total-diverged=%v\n",
			ps.Divergences, ps.Reconciles, ps.Audits, ps.AuditRepairs, ps.StaleAdopted, ps.TotalDiverged)
		if d := rt.Plane.Divergent(); len(d) > 0 {
			fmt.Fprintf(w, "STILL DIVERGENT at end of run: links %v\n", d)
		} else {
			fmt.Fprintln(w, "belief == truth at end of run")
		}
	}

	fmt.Fprintln(w)
	ns, ts := rt.Net.Stats(), rt.Stack.Stats()
	fmt.Fprintf(w, "network: sent=%d delivered=%d silently-dropped=%d pfc-pauses=%d\n",
		ns.Sent, ns.Delivered, ns.FaultDropped, ns.PFCPauses)
	fmt.Fprintf(w, "transport: messages=%d retransmits=%d spurious=%d duplicates=%d\n",
		ts.MessagesSent, ts.Retransmits, ts.SpuriousRetransmits, ts.DuplicatesReceived)
	fmt.Fprintf(w, "simulated time: %v\n", sim.Duration(rt.Engine.Now()))
}
