package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metricDef names one metric of the benchmark. The two tables below
// are the harness's half of BENCHMARK.json; TestCatalogueMatchesJSON
// keeps the two in step.
type metricDef struct {
	name, unit, better string
}

// endToEnd is reported by every workload on an untraced run. What one
// "op" is depends on the workload; see README.md.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"op_p50_ms", "ms", "lower"},
	{"windows_per_s", "1/s", "higher"},
	{"allocs_per_kwindow", "count", "lower"},
	{"live_heap_mb", "MB", "lower"},
}

// perLayer is reported on a traced run. A metric reads 0 on a workload
// that does not exercise its layer.
var perLayer = []metricDef{
	{"sim.engine_ns_per_event", "ns", "lower"},
	{"sim.group_ns_per_event", "ns", "lower"},
	{"sim.events_per_iter", "count", "lower"},
	{"fabric.ns_per_packet", "ns", "lower"},
	{"fabric.allocs_per_packet", "count", "lower"},
	{"fabric.packets_per_iter", "count", "lower"},
	{"fabric.fault_dropped", "count", "lower"},
	{"fabric.pfc_pauses", "count", "lower"},
	{"transport.ns_per_message", "ns", "lower"},
	{"transport.retransmits_per_iter", "count", "lower"},
	{"transport.spurious_per_iter", "count", "lower"},
	{"telemetry.tap_ns_per_packet", "ns", "lower"},
	{"telemetry.shared_tap_ns_per_packet", "ns", "lower"},
	{"telemetry.windows_per_iter", "count", "higher"},
	{"predict.analytical_build_us", "us", "lower"},
	{"predict.rebaseline_us", "us", "lower"},
	{"detect.check_ns_per_window", "ns", "lower"},
	{"detect.check_small_ns_per_window", "ns", "lower"},
	{"detect.alerts_per_kwindow", "count", "lower"},
	{"detect.nonfinite_scores", "count", "lower"},
	{"localize.ns_per_alert", "ns", "lower"},
	{"monitor.onwindow_ns", "ns", "lower"},
	{"monitor.onwindow_hist_ns", "ns", "lower"},
	{"remediate.observe_ns_per_alert", "ns", "lower"},
	{"remediate.quarantines", "count", "lower"},
	{"remediate.innocent_quarantines", "count", "lower"},
	{"remediate.onset_to_quarantine_iters", "count", "lower"},
	{"control.changeset_apply_us", "us", "lower"},
	{"control.changesets", "count", "lower"},
	{"trace.encode_ns_per_window", "ns", "lower"},
	{"trace.decode_ns_per_window", "ns", "lower"},
	{"trace.decode_alloc_ns_per_window", "ns", "lower"},
	{"trace.bytes_per_window", "B", "lower"},
	{"serve.ingest_mem_ns_per_window", "ns", "lower"},
	{"serve.socket_ns_per_window", "ns", "lower"},
	{"serve.self_ns_per_window", "ns", "lower"},
	{"serve.session_setup_us", "us", "lower"},
	{"serve.alert_p90_ms", "ms", "lower"},
	{"serve.alert_p99_ms", "ms", "lower"},
	{"serve.gen_late_p99_ms", "ms", "lower"},
	{"serve.alerts_dropped", "count", "lower"},
	{"serve.shard_depth_max", "count", "lower"},
	{"serve.allocs_per_window", "count", "lower"},
	{"serve.bytes_per_s", "B/s", "higher"},
	{"core.build_ms", "ms", "lower"},
	{"core.attach_ms", "ms", "lower"},
	{"bench.gen_s", "s", "lower"},
	{"bench.trace_overhead", "ratio", "lower"},
	{"bench.unattributed_share", "%", "lower"},
}

// result is what one workload run reports.
type result struct {
	attempted, failed int
	failures          []string
	e2e               map[string]float64
	layer             map[string]float64
	// info carries what is printed but is not a metric: the simulated
	// fingerprint, iteration counts, phase notes.
	info []string
	// wall and cpu are the measured section's elapsed and process CPU
	// time, windows the windows processed in it: the accounting table's
	// denominators.
	wall, cpu time.Duration
	windows   int
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// op counts one attempted operation; a non-empty why fails it.
func (r *result) op(why string) {
	r.attempted++
	if why != "" {
		r.failed++
		r.failures = append(r.failures, why)
	}
}

// check is op for a gate: it passes when ok holds.
func (r *result) check(ok bool, format string, args ...any) {
	if ok {
		r.op("")
	} else {
		r.op(fmt.Sprintf(format, args...))
	}
}

// quantile returns the q-quantile (0..1) of vs by linear interpolation
// between order statistics; vs need not be sorted.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

// spread is the driver's steadiness statistic: the distance between
// the first and third quartile as a share of the median, with the
// quartiles Python's statistics.quantiles(values, n=4) gives (the
// exclusive method). With fewer than four values it falls back to the
// full range.
func spread(vs []float64) float64 {
	n := len(vs)
	med := median(vs)
	if n < 2 || med == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n < 4 {
		return (s[n-1] - s[0]) / math.Abs(med)
	}
	q := func(i int) float64 { // i-th quartile, exclusive method
		pos := float64(i*(n+1))/4 - 1
		lo := int(math.Floor(pos))
		if lo < 0 {
			lo = 0
		}
		if lo > n-2 {
			lo = n - 2
		}
		return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
	}
	return (q(3) - q(1)) / math.Abs(med)
}

// cpuTime is the process's user + system CPU time so far. Sections
// that keep both cores busy are accounted against it, not the wall.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func markMallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// liveHeap forces a collection and returns the bytes still reachable.
// Two cycles, because finalizers and the sweep of the first can leave
// freed spans counted.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

func mb(b uint64, base uint64) float64 {
	return (float64(b) - float64(base)) / (1 << 20)
}

// repeatSetup times fn over at least minReps repetitions and at least
// minTime of total work, and returns the median in seconds: one
// set-up is too short to time once.
func repeatSetup(minReps int, minTime time.Duration, fn func() error) (float64, error) {
	var samples []float64
	start := time.Now()
	for len(samples) < minReps || time.Since(start) < minTime {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		samples = append(samples, time.Since(t0).Seconds())
	}
	return median(samples), nil
}
