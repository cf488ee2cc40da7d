// Command flowpulse-check is the deterministic simulation fuzzer: it
// derives whole scenarios (topology, workload, fault schedule) from
// 64-bit seeds, runs the full detect → localize → remediate pipeline
// over each, and checks the simtest invariant oracles — byte
// conservation, clean-run silence, detection/localization deadlines,
// damped remediation, and bit-identical replay. Failing seeds are
// shrunk to a minimal spec and reported as a one-line repro command.
//
// Scan a seed range:
//
//	flowpulse-check -seeds 200
//	flowpulse-check -seeds 200 -resilience   # every control-loop seed also re-plans
//	flowpulse-check -seeds 200 -congestion   # adversarial traffic storms under ECN/DCQCN
//	flowpulse-check -seeds 200 -divergence   # control-plane belief/truth faults on remediated seeds
//
// Reproduce a failure:
//
//	flowpulse-check -seed 17
//	flowpulse-check -spec '{"scenario":{...,"seed":17},...}'
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"flowpulse/internal/core"
	"flowpulse/internal/simtest"
)

func main() {
	var (
		seeds    = flag.Int("seeds", 0, "scan this many seeds starting at -start")
		start    = flag.Uint64("start", 0, "first seed of the scan")
		seed     = flag.Uint64("seed", 0, "run a single seed (ignored when -seeds or -spec is set)")
		specJSON = flag.String("spec", "", "run one explicit spec (compact JSON, as printed by a shrunk repro)")
		deadline = flag.Int("deadline", 0, "detection deadline in iterations after fault onset (default 4)")
		noShrink = flag.Bool("no-shrink", false, "report failures unshrunk")
		workers  = flag.Int("workers", runtime.GOMAXPROCS(0), "parallel seed workers (clamped to the seed count)")
		shards   = flag.Int("shards", 0, "engine worker shards per simulation (0 = the one-domain partition, a single-threaded run; N >= 1 = one domain per switch on N workers); fingerprints depend on the partition (0 vs >= 1) but not on the count, so reproduce failures with the same -shards partition")
		resil    = flag.Bool("resilience", false, "force the workload re-planner on for every remediated seed, so each control-loop scenario exercises the full quarantine -> re-plan -> recover path (forced specs repro via -spec, not -seed)")
		congest  = flag.Bool("congestion", false, "run every fat-tree seed under ECN/DCQCN with seed-drawn incast bursts, traffic storms, and stragglers, checking that pure congestion never quarantines and faults still meet their deadlines (forced specs repro via -spec, not -seed)")
		diverge  = flag.Bool("divergence", false, "inject seed-drawn control-plane belief/truth faults (failed pushes, stale LSDB advertisements) into every remediated seed, checking that belief reconverges to truth and no healthy link is left wrongly down (forced specs repro via -spec, not -seed)")
		verbose  = flag.Bool("v", false, "print a line per seed")
	)
	flag.Parse()

	opts := simtest.Options{Deadline: *deadline, Shards: *shards}
	gen := simtest.Generate
	if *resil {
		gen = func(s uint64) simtest.Spec { return simtest.WithResilience(simtest.Generate(s)) }
	}
	if *congest {
		base := gen
		gen = func(s uint64) simtest.Spec { return simtest.WithCongestion(base(s)) }
	}
	if *diverge {
		base := gen
		gen = func(s uint64) simtest.Spec { return simtest.WithDivergence(base(s)) }
	}
	switch {
	case *specJSON != "":
		spec, err := simtest.ParseSpec(*specJSON)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		os.Exit(runOne(spec, opts, *noShrink))
	case *seeds > 0:
		os.Exit(scan(gen, *start, *seeds, *workers, opts, *noShrink, *verbose))
	default:
		os.Exit(runOne(gen(*seed), opts, *noShrink))
	}
}

// runOne fuzzes a single spec, shrinking on failure.
func runOne(spec simtest.Spec, opts simtest.Options, noShrink bool) int {
	res := simtest.Run(spec, opts)
	if res.OK() {
		fmt.Printf("seed %d ok: %s topology, %s/%s, fault %s — %d windows, %d alerts, fingerprint %016x\n",
			spec.Scenario.Seed, topology(spec), spec.Scenario.Collective, spec.Predictor,
			fault(spec).Kind, res.Windows, res.Alerts, res.Fingerprint)
		return 0
	}
	report(res, opts, noShrink)
	return 1
}

// scan fuzzes seeds [start, start+n) on a worker pool. Workers are
// clamped to the seed count so small scans don't spawn idle
// goroutines, and each seed's wall time is measured so slow or
// degenerate scenarios stand out.
func scan(gen func(uint64) simtest.Spec, start uint64, n, workers int, opts simtest.Options, noShrink, verbose bool) int {
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	type timedResult struct {
		res     *simtest.Result
		elapsed time.Duration
	}
	t0 := time.Now()
	seedCh := make(chan uint64)
	results := make(chan timedResult)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range seedCh {
				s0 := time.Now()
				res := simtest.Run(gen(s), opts)
				results <- timedResult{res, time.Since(s0)}
			}
		}()
	}
	go func() {
		for i := 0; i < n; i++ {
			seedCh <- start + uint64(i)
		}
		close(seedCh)
		wg.Wait()
		close(results)
	}()

	failed := 0
	var failures []*simtest.Result
	var busy, slowest time.Duration
	var slowestSeed uint64
	for tr := range results {
		res := tr.res
		busy += tr.elapsed
		if tr.elapsed > slowest {
			slowest, slowestSeed = tr.elapsed, res.Spec.Scenario.Seed
		}
		if verbose {
			status := "ok"
			if !res.OK() {
				status = "FAIL"
			}
			fmt.Printf("seed %-6d %-4s %-9s %-14s %-8s fault=%-15s windows=%-4d alerts=%-3d fp=%016x %8v\n",
				res.Spec.Scenario.Seed, status, topology(res.Spec), res.Spec.Scenario.Collective,
				res.Spec.Predictor, fault(res.Spec).Kind, res.Windows, res.Alerts, res.Fingerprint,
				tr.elapsed.Round(time.Millisecond))
		}
		if !res.OK() {
			failed++
			failures = append(failures, res)
		}
	}
	mean := time.Duration(0)
	if n > 0 {
		mean = busy / time.Duration(n)
	}
	fmt.Printf("%d seeds, %d failed (%v wall, %d workers; per seed mean %v, max %v on seed %d)\n",
		n, failed, time.Since(t0).Round(time.Millisecond), workers,
		mean.Round(time.Millisecond), slowest.Round(time.Millisecond), slowestSeed)
	for _, res := range failures {
		report(res, opts, noShrink)
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// report prints a failure, shrinking it first unless disabled.
func report(res *simtest.Result, opts simtest.Options, noShrink bool) {
	f := fault(res.Spec)
	fmt.Printf("\nFAIL seed %d (%s topology, %s/%s, fault %s at onset %d):\n",
		res.Spec.Scenario.Seed, topology(res.Spec), res.Spec.Scenario.Collective,
		res.Spec.Predictor, f.Kind, f.Onset)
	for _, v := range res.Violations {
		fmt.Printf("  %s\n", v)
	}
	spec := res.Spec
	if !noShrink {
		shrunk, runs := simtest.Shrink(spec, opts, 0)
		if shrunk.MarshalCompact() != spec.MarshalCompact() {
			fmt.Printf("  shrunk after %d runs:\n", runs)
			final := simtest.Run(shrunk, opts)
			for _, v := range final.Violations {
				fmt.Printf("    %s\n", v)
			}
			spec = shrunk
		}
	}
	fmt.Printf("  repro: %s\n", spec.ReproCommand())
}

// topology names a spec's fabric family for the report lines.
func topology(s simtest.Spec) string {
	if s.Scenario.Pods > 0 {
		return "clos3"
	}
	return "fat-tree"
}

// fault is a spec's one scheduled fault; a clean run reports kind none.
func fault(s simtest.Spec) core.FaultSpec {
	if len(s.Scenario.Faults) == 0 {
		return core.FaultSpec{Kind: "none"}
	}
	return s.Scenario.Faults[0]
}
