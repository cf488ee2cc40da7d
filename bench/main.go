// Command bench is FlowPulse's end-to-end benchmark: five workloads
// over the simulate, replay and serve paths, each checked for
// correctness, with a per-layer accounting on traced runs. See
// README.md in this directory and BENCHMARK.json at the repo root.
//
// The driver's contract:
//
//	bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// prints, as the last line of standard output, one JSON object with
// the keys correct, attempted, failed and metrics — the end-to-end
// metrics on --trace 0, the per-layer metrics on --trace 1 — and exits
// non-zero if any correctness gate failed. Without --workload it runs
// all five and prints one such line per workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"flowpulse/internal/serve"
)

// runConfig is what one workload run is asked to do.
type runConfig struct {
	seed    uint64
	seconds float64
	// setupReps/setupTime size the set-up repetition (see repeatSetup).
	setupReps int
	setupTime time.Duration
	// maxOps, when positive, caps closed-loop sessions per producer and
	// replay passes — the smoke scale's way of finishing in moments.
	maxOps int
}

// scale sizes the inputs. The full scale is the benchmark; the smoke
// scale runs every workload and every gate at toy size for the tests.
type scale struct {
	leaves, spines int // the paper's fat tree: recording A and both sim workloads
	simBytes       int64
	simRingRate    float64 // nominal iterations per host second, see simSpec
	simSharedRate  float64
	recAIters      int // recording A: leaves windows per iteration
	recBIters      int // recording B: 4×2, so 4 windows per iteration
	recBEvery      int
	probeBIters    int // the shorter B-shaped recording the probes replay
	burstInterval  time.Duration
	cfg            runConfig
}

var fullScale = scale{
	leaves: 32, spines: 16, simBytes: 4 << 20,
	simRingRate: 3.4, simSharedRate: 1.9,
	recAIters: 625, recBIters: 62_500, recBEvery: 2500, probeBIters: 25_000,
	burstInterval: 500 * time.Microsecond,
	cfg:           runConfig{setupReps: 20, setupTime: 400 * time.Millisecond},
}

var smokeScale = scale{
	leaves: 8, spines: 4, simBytes: 1 << 20,
	simRingRate: 1, simSharedRate: 1,
	recAIters: 40, recBIters: 5000, recBEvery: 500, probeBIters: 1000,
	burstInterval: time.Millisecond,
	cfg:           runConfig{setupReps: 3, maxOps: 1},
}

func (sc scale) recA(seed uint64) (*recording, error) {
	return synthesize(recSpec{label: "A", leaves: sc.leaves, spines: sc.spines, iters: sc.recAIters, plantEvery: 10}, seed)
}

func (sc scale) recB(seed uint64, iters int) (*recording, error) {
	return synthesize(recSpec{label: "B", leaves: 4, spines: 2, iters: iters, plantEvery: sc.recBEvery}, seed)
}

// workload is one named set of inputs. input synthesizes the
// recording it streams (nil for the sim workloads, which build
// clusters, not recordings); run executes it once, traced or not, and
// on a traced run also runs the unit probes and prints the accounting.
type workload struct {
	name, why string
	input     func(sc scale, seed uint64) (*recording, error)
	run       func(sc scale, rec *recording, cfg runConfig, tr *tracer) (*result, error)
	// pairs is false for the sim workloads, whose two same-seed builds
	// already are the untraced/traced pair; the others are run twice on
	// a traced invocation, each for half the time.
	pairs bool
}

var workloads = []workload{
	{name: "sim-ring", why: "default cluster, classic engine: sim, fabric and transport do nearly all the work, the monitoring stack almost none",
		run: func(sc scale, _ *recording, cfg runConfig, tr *tracer) (*result, error) {
			return runSim(simSpec{"sim-ring", false, sc.leaves, sc.spines, sc.simBytes, sc.simRingRate}, cfg, tr)
		}},
	{name: "sim-shared", why: "same layers used differently: 2 jobs on the shared plane over the sharded engine (sim.Group, JobAny tap, aggregate symmetry)",
		run: func(sc scale, _ *recording, cfg runConfig, tr *tracer) (*result, error) {
			return runSim(simSpec{"sim-shared", true, sc.leaves, sc.spines, sc.simBytes, sc.simSharedRate}, cfg, tr)
		}},
	{name: "replay", pairs: true, why: "offline trace.Replay + Sweep of a 32x16 recording: decode, history, detect, localize; no fabric, no sockets - bypasses every simulator change",
		input: scale.recA,
		run: func(_ scale, rec *recording, cfg runConfig, tr *tracer) (*result, error) {
			res, err := runReplay(rec, cfg, tr)
			if err == nil && tr != nil {
				printSpanShares(tr, res.windows, res.wall, "trace.decode", "monitor.onwindow")
				err = accountReplay(res, rec)
			}
			return res, err
		}},
	{name: "serve-tcp", pairs: true, why: "serve path at 32x16 over loopback TCP: closed-loop capacity (2 producers) then open-loop paced bursts with an /alerts subscriber; frame decode dominates",
		input: scale.recA,
		run: func(sc scale, rec *recording, cfg runConfig, tr *tracer) (*result, error) {
			res, err := runServeTCP(serveTCPSpec{burstInterval: sc.burstInterval}, rec, cfg, tr)
			if err == nil && tr != nil {
				err = accountServe(res, "serve-tcp", rec, serve.ModeSeq, false)
			}
			return res, err
		}},
	{name: "serve-http-small", pairs: true, why: "serve path used differently: chunked HTTP fanout ingest of tiny 4x2 windows; per-frame costs (parse, CRC, ring hop, wake-up) dominate, per-byte work is small",
		input: func(sc scale, seed uint64) (*recording, error) { return sc.recB(seed, sc.recBIters) },
		run: func(sc scale, rec *recording, cfg runConfig, tr *tracer) (*result, error) {
			res, err := runServeHTTP(rec, cfg, tr)
			if err == nil && tr != nil {
				// The probes replay a shorter recording of the same shape.
				var probeRec *recording
				if probeRec, err = sc.recB(cfg.seed, sc.probeBIters); err == nil {
					err = accountServe(res, "serve-http-small", probeRec, serve.ModeFanout, true)
				}
			}
			return res, err
		}},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// execute runs one workload as the driver asks for it and returns the
// result to report. On a traced invocation the end-to-end numbers come
// from the untraced pass and the tracing overhead is the traced pass's
// op time over the untraced one's.
func execute(w *workload, sc scale, cfg runConfig, traced bool) (*result, error) {
	var rec *recording
	if w.input != nil {
		var err error
		if rec, err = w.input(sc, cfg.seed); err != nil {
			return nil, err
		}
	}
	if !traced {
		return w.run(sc, rec, cfg, nil)
	}
	tr := newTracer()
	var res *result
	var err error
	if !w.pairs {
		res, err = w.run(sc, rec, cfg, tr)
	} else {
		cfg.seconds /= 2
		var plain *result
		if plain, err = w.run(sc, rec, cfg, nil); err != nil {
			return nil, err
		}
		runtime.GC()
		if res, err = w.run(sc, rec, cfg, tr); err == nil {
			res.layer["bench.trace_overhead"] = plain.e2e["windows_per_s"] / res.e2e["windows_per_s"]
			res.attempted += plain.attempted
			res.failed += plain.failed
			res.failures = append(res.failures, plain.failures...)
			res.e2e = plain.e2e
		}
	}
	if err != nil {
		return nil, err
	}
	path, err := tr.write(outDir(), w.name)
	if err != nil {
		return nil, err
	}
	fmt.Printf("  tracing overhead (traced ÷ untraced): %.3f; %d spans written to %s\n", res.layer["bench.trace_overhead"], len(tr.spans), path)
	return res, nil
}

// outDir is where span files go: bench/out, whether the harness was
// started from the repo root (the driver) or from its own directory.
func outDir() string {
	if _, err := os.Stat("bench/go.mod"); err == nil {
		return "bench/out"
	}
	return "out"
}

// report is the driver-facing JSON line.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) report(traced bool) report {
	defs, vals := endToEnd, r.e2e
	if traced {
		defs, vals = perLayer, r.layer
	}
	rep := report{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		rep.Metrics[d.name] = metricValue{vals[d.name], d.unit}
	}
	return rep
}

// printHuman prints every metric the run produced by name and unit.
func (r *result) printHuman(w *workload, traced bool) {
	fmt.Printf("\n%s: ops attempted %d, failed %d\n", w.name, r.attempted, r.failed)
	for _, why := range r.failures {
		fmt.Printf("  FAILED: %s\n", why)
	}
	for _, line := range r.info {
		fmt.Printf("  %s\n", line)
	}
	for _, d := range endToEnd {
		fmt.Printf("  %-36s %16.6g %s\n", d.name, r.e2e[d.name], d.unit)
	}
	if !traced {
		return
	}
	for _, d := range perLayer {
		if v, ok := r.layer[d.name]; ok {
			fmt.Printf("  %-36s %16.6g %s\n", d.name, v, d.unit)
		}
	}
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: all five, one after the other)")
		seed    = flag.Uint64("seed", 1, "drives the scenario seed, the fault link and the planted deviation sites")
		seconds = flag.Float64("seconds", 12, "how long each workload measures")
		traced  = flag.Int("trace", 0, "1: traced run, print per-layer metrics and the accounting; 0: end-to-end metrics")
		smoke   = flag.Bool("smoke", false, "toy scale: every workload and gate in a few seconds")
		sets    = flag.Int("sets", 0, "repeat the whole suite N times (seed, seed+1, ...) and print each metric's spread against its bound")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	sc := fullScale
	if *smoke {
		sc = smokeScale
		probeTime = 2 * time.Millisecond
	}
	cfg := sc.cfg
	cfg.seconds = *seconds

	selected := workloads
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			var names []string
			for _, w := range workloads {
				names = append(names, w.name)
			}
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", *name, strings.Join(names, ", "))
			os.Exit(2)
		}
		selected = []workload{*w}
	}

	if *sets > 0 {
		os.Exit(runSets(selected, sc, cfg, *seed, *sets))
	}
	failed := false
	for i := range selected {
		w := &selected[i]
		cfg.seed = *seed
		res, err := execute(w, sc, cfg, *traced == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		res.printHuman(w, *traced == 1)
		line, err := json.Marshal(res.report(*traced == 1))
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("%s\n", line)
		failed = failed || res.failed > 0
	}
	if failed {
		os.Exit(1)
	}
}

// runSets repeats the suite and prints, per end-to-end metric and
// workload, every set's value, the spread (the driver's statistic) and
// the bound BENCHMARK.json allows. It returns the exit status: 1 if a
// gate failed or a spread exceeded its bound.
func runSets(selected []workload, sc scale, cfg runConfig, seed uint64, sets int) int {
	bounds, err := loadBounds()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	values := map[string][]float64{} // "workload/metric" → one value per set
	status := 0
	for s := 0; s < sets; s++ {
		for i := range selected {
			w := &selected[i]
			cfg.seed = seed + uint64(s)
			res, err := execute(w, sc, cfg, false)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			res.printHuman(w, false)
			if res.failed > 0 {
				status = 1
			}
			for _, d := range endToEnd {
				k := w.name + "/" + d.name
				values[k] = append(values[k], res.e2e[d.name])
			}
		}
	}
	keys := make([]string, 0, len(values))
	for k := range values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf("\n%-36s %9s %8s  %s\n", "workload/metric", "spread", "bound", "values per set")
	for _, k := range keys {
		metric := k[strings.Index(k, "/")+1:]
		sp, bound := spread(values[k]), bounds[metric]
		mark := ""
		if sp > bound && metric != "setup_s" { // the driver exempts set-up time's spread
			mark, status = "  OVER BOUND", 1
		}
		var vs []string
		for _, v := range values[k] {
			vs = append(vs, fmt.Sprintf("%.4g", v))
		}
		fmt.Printf("%-36s %8.2f%% %7.0f%%  %s%s\n", k, 100*sp, 100*bound, strings.Join(vs, " "), mark)
	}
	return status
}

// benchmarkJSON mirrors the parts of BENCHMARK.json the harness reads.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadBenchmarkJSON() (*benchmarkJSON, error) {
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		data, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		var b benchmarkJSON
		if err := json.Unmarshal(data, &b); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &b, nil
	}
	return nil, fmt.Errorf("BENCHMARK.json not found in . or ..")
}

func loadBounds() (map[string]float64, error) {
	b, err := loadBenchmarkJSON()
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, m := range b.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}
