// Command flowpulse-eval regenerates the paper's evaluation (§6, §7):
// every figure and table, printed as the rows/series the paper
// reports.
//
// Usage:
//
//	flowpulse-eval                  # run everything at default scale
//	flowpulse-eval -exp fig5a       # one experiment
//	flowpulse-eval -exp headline -size 64 -drop 0.015
//	flowpulse-eval -quick           # scaled-down smoke run
//	flowpulse-eval -h               # the experiments, and which overrides each reads
//
// The experiment list is internal/experiments' table; -h prints it.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"flowpulse/internal/experiments"
)

func main() {
	var (
		exp    = flag.String("exp", "all", "experiment to run ("+strings.Join(experiments.EvalOrder, "|")+"|all)")
		quick  = flag.Bool("quick", false, "scaled-down configuration (smaller fabric and collectives)")
		sizeMB = flag.Int64("size", 0, "override collective size per rank in MiB, in every experiment that runs one size")
		drop   = flag.Float64("drop", 0, "override the injected drop rate, in every experiment that injects one rate")
		trials = flag.Int("trials", 0, "override trials per configuration, in every experiment that repeats trials")
		seed   = flag.Uint64("seed", 1, "root random seed")
		csvDir = flag.String("csv", "", "also write plottable results as CSV files into this directory")
		trcDir = flag.String("trace-dir", "", "record trace-capable experiments as .fpt traces into this directory")
		shards = flag.Int("shards", runtime.GOMAXPROCS(0), "engine worker shards for the sharded experiments: 0 = the one-domain partition, a single-threaded run; N >= 1 = one domain per switch on N workers, with identical results for every N >= 1")
		cpu    = flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
		mem    = flag.String("memprofile", "", "write a heap profile (after the run) to this file")
	)
	flag.Usage = func() {
		w := flag.CommandLine.Output()
		fmt.Fprintf(w, "Usage: flowpulse-eval [flags]\n\nExperiments (-exp), in the paper's order, and in brackets the overrides each\nreads — an axis it sweeps itself, or does not have, it ignores:\n%s\nFlags:\n", experiments.EvalHelp())
		flag.PrintDefaults()
	}
	flag.Parse()

	if *cpu != "" {
		f, err := os.Create(*cpu)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *mem != "" {
		defer func() {
			f, err := os.Create(*mem)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				os.Exit(1)
			}
		}()
	}

	// Output directories are created before the first (possibly
	// minutes-long) experiment, not discovered missing after it.
	for flagName, dir := range map[string]string{"trace-dir": *trcDir, "csv": *csvDir} {
		if dir == "" {
			continue
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", flagName, err)
			os.Exit(1)
		}
	}
	// The experiment table lives in internal/experiments so the
	// golden-file regression tests drive the exact same configurations.
	runs := experiments.EvalExperiments(experiments.EvalOverrides{
		Quick: *quick, SizeMB: *sizeMB, Drop: *drop, Trials: *trials, Seed: *seed,
		TraceDir: *trcDir, Shards: *shards,
	})

	var selected []string
	if *exp == "all" {
		selected = experiments.EvalOrder
	} else {
		if _, ok := runs[*exp]; !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; available: %s, all\n", *exp, strings.Join(experiments.EvalOrder, ", "))
			os.Exit(2)
		}
		selected = []string{*exp}
	}

	for _, name := range selected {
		start := time.Now()
		res, err := runs[name]()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println(strings.Repeat("=", 72))
		fmt.Print(res.String())
		fmt.Printf("[%s completed in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
		if *csvDir != "" {
			if c, ok := res.(interface{ CSV() string }); ok {
				path := filepath.Join(*csvDir, name+".csv")
				if err := os.WriteFile(path, []byte(c.CSV()), 0o644); err != nil {
					fmt.Fprintf(os.Stderr, "writing %s: %v\n", path, err)
					os.Exit(1)
				}
				fmt.Printf("wrote %s\n", path)
			}
		}
	}
}
