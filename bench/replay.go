package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"time"

	"flowpulse/internal/trace"
)

// The offline path: trace.Replay of a recording plus a threshold sweep
// — no fabric, no sockets. It is the bypass workload for every
// simulator optimisation and the target for decoder/detector ones.

var sweepThresholds = []float64{0.005, 0.01, 0.02, 0.05, 0.1}

// replayPass is one fresh replay + sweep. Traced, it drives the same
// Reader and Replayer itself so that it can put spans around the two
// calls (one window in sampleEvery).
func replayPass(rec *recording, tr *tracer, parent, id int) (*trace.ReplayResult, error) {
	if tr == nil {
		rr, err := trace.Replay(bytes.NewReader(rec.raw), trace.ReplayOptions{})
		if err != nil {
			return nil, err
		}
		rr.Sweep(sweepThresholds)
		return rr, nil
	}
	rd, err := trace.NewReader(bytes.NewReader(rec.raw))
	if err != nil {
		return nil, err
	}
	rp, err := trace.NewReplayer(rd.Header(), rd.Topo(), trace.ReplayOptions{})
	if err != nil {
		return nil, err
	}
	for n := 0; ; n++ {
		sampled := n%sampleEvery == 0
		var t0, t1 time.Time
		if sampled {
			t0 = time.Now()
		}
		r, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if sampled {
			t1 = time.Now()
		}
		if err := rp.Feed(r); err != nil {
			return nil, err
		}
		if sampled && r.Kind == trace.KindWindow {
			tr.add("trace.decode", t0, t1, parent, id)
			tr.add("monitor.onwindow", t1, time.Now(), parent, id)
		}
	}
	rr := rp.Result()
	_, end := tr.begin("replay.sweep", parent, id)
	rr.Sweep(sweepThresholds)
	end()
	return rr, nil
}

func runReplay(rec *recording, cfg runConfig, tr *tracer) (*result, error) {
	res := newResult()
	setup, err := repeatSetup(cfg.setupReps, cfg.setupTime, func() error {
		rd, err := trace.NewReader(bytes.NewReader(rec.raw))
		if err != nil {
			return err
		}
		_, err = trace.NewReplayer(rd.Header(), rd.Topo(), trace.ReplayOptions{})
		return err
	})
	if err != nil {
		return nil, err
	}
	res.e2e["setup_s"] = setup

	heapBase := liveHeap()
	mallocsAt, cpuAt := markMallocs(), cpuTime()
	var passes []float64
	var last *trace.ReplayResult
	start := time.Now()
	for id := 1; id <= 3 || time.Since(start).Seconds() < cfg.seconds; id++ {
		t0 := time.Now()
		span, end := tr.begin("replay.pass", -1, id)
		rr, err := replayPass(rec, tr, span, id)
		end()
		if err != nil {
			return nil, err
		}
		passes = append(passes, ms(time.Since(t0)))
		res.windows += rr.Windows
		why := ""
		switch {
		case !rr.Matches():
			why = "replay does not reproduce the trailer fingerprint"
		case rr.EventCount != len(rec.planted):
			why = fmt.Sprintf("replay raised %d events for %d planted deviations", rr.EventCount, len(rec.planted))
		case rr.Windows != rec.windows:
			why = fmt.Sprintf("replay saw %d of %d windows", rr.Windows, rec.windows)
		}
		res.op(why)
		last = rr
		if cfg.maxOps > 0 && id >= cfg.maxOps {
			break
		}
	}
	res.wall, res.cpu = time.Since(start), cpuTime()-cpuAt
	mallocs := markMallocs() - mallocsAt
	res.e2e["live_heap_mb"] = mb(liveHeap(), heapBase) // last keeps one pass's history reachable
	res.e2e["op_p50_ms"] = median(passes)
	res.e2e["windows_per_s"] = float64(res.windows) / res.wall.Seconds()
	res.e2e["allocs_per_kwindow"] = 1000 * float64(mallocs) / float64(res.windows)
	res.info = append(res.info, fmt.Sprintf("passes=%d fingerprint=%016x", len(passes), last.Fingerprint))

	nonFinite := 0
	for _, jr := range last.Jobs {
		for _, v := range jr.Pipeline.IterationScores() {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				nonFinite++
			}
		}
	}
	res.layer["detect.nonfinite_scores"] = float64(nonFinite)
	rec.describe(res)
	return res, nil
}

// accountReplay runs the unit probes of the layers the offline path
// uses and prints the accounting against the traced passes.
func accountReplay(res *result, rec *recording) error {
	ws, err := loadWindows(rec.raw, 4096)
	if err != nil {
		return err
	}
	l := res.layer
	if l["trace.decode_alloc_ns_per_window"], err = probeDecode(rec, false); err != nil {
		return err
	}
	if l["trace.decode_ns_per_window"], err = probeDecode(rec, true); err != nil {
		return err
	}
	l["monitor.onwindow_hist_ns"] = ws.probeOnWindow(true)
	l["detect.check_ns_per_window"] = ws.probeDetect()
	l["localize.ns_per_alert"] = ws.probeLocalize()
	windows := float64(res.windows)
	alerts := windows * l["detect.alerts_per_kwindow"] / 1000
	l["bench.unattributed_share"] = printAccounting("replay", res.wall, res.cpu, []acctRow{
		{"trace (Reader.Next, allocating)", windows, l["trace.decode_alloc_ns_per_window"], 0},
		{"monitor (window closes, with history)", windows, l["monitor.onwindow_hist_ns"], 0},
		{"detect (score + check)", windows, l["detect.check_ns_per_window"], 1},
		{"localize (alerts)", alerts, l["localize.ns_per_alert"], 1},
	})
	return nil
}

// printSpanShares prints, for sampled per-window spans, the mean span
// and what it extrapolates to over all windows — the traced pass's own
// view, beside the probe-based accounting.
func printSpanShares(tr *tracer, windows int, wall time.Duration, names ...string) {
	for _, name := range names {
		n, d := tr.total(name)
		if n == 0 {
			continue
		}
		mean := float64(d) / float64(n)
		fmt.Printf("  spans %-22s n=%-6d mean %8.0f ns  × %d windows = %5.1f%% of wall\n",
			name, n, mean, windows, 100*mean*float64(windows)/float64(wall))
	}
}
