package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"flowpulse/internal/serve"
	"flowpulse/internal/sim"
	"flowpulse/internal/trace"
)

// The serve path: an in-process serve.Server behind real loopback
// listeners (TCP for producers, HTTP for /ingest, /alerts, /metrics).
// Traffic crosses the host's loopback interface, never a link. The box
// has 2 cores, so at most 2 producers load it at a time and the server
// runs 2 shards.

// rig is one running server with its listeners.
type rig struct {
	srv     *serve.Server
	tcpAddr string
	httpURL string
	hs      *http.Server
}

func startRig() (*rig, error) {
	srv, err := serve.New(serve.Config{Shards: 2})
	if err != nil {
		return nil, err
	}
	tl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tl.Close()
		return nil, err
	}
	r := &rig{srv: srv, tcpAddr: tl.Addr().String(), httpURL: "http://" + hl.Addr().String(), hs: &http.Server{Handler: srv.HTTPHandler()}}
	go srv.ServeTCP(tl) // returns when Drain closes the listener
	go r.hs.Serve(hl)   // returns when stop closes the server
	return r, nil
}

// stop drains the server (which ends every /alerts stream) and closes
// the HTTP side.
func (r *rig) stop() {
	r.srv.Drain(2 * time.Second)
	r.hs.Close()
}

// serveSetup times the serve path's set-up: one session that carries
// only a header and a trailer, so its cost is what every session pays
// before its first window (dial or request, preamble, header decode,
// topology rebuild, bucket and replayer construction, status line).
// Server start is left out: timed per repetition it tripled the
// run-to-run scatter of this already tiny number.
func serveSetup(res *result, rec *recording, cfg runConfig, session func(empty *recording) string) error {
	rd, err := trace.NewReader(bytes.NewReader(rec.raw))
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	if err := w.Begin(*rd.Header()); err != nil {
		return err
	}
	if err := w.Finish(sim.Time(0)); err != nil {
		return err
	}
	empty := &recording{raw: buf.Bytes()}
	setup, err := repeatSetup(cfg.setupReps, cfg.setupTime, func() error {
		if why := session(empty); why != "" {
			return fmt.Errorf("set-up session: %s", why)
		}
		return nil
	})
	res.e2e["setup_s"], res.layer["serve.session_setup_us"] = setup, setup*1e6
	return err
}

// tcpSession streams raw as one sequential session and checks the
// status line against what the recording must produce. The returned
// string is empty on success, else why the session failed.
func tcpSession(addr, label string, raw []byte, wantWindows, wantEvents int) (time.Duration, string) {
	t0 := time.Now()
	p, err := serve.DialProducer(addr, "", serve.ModeSeq, label, 5*time.Second)
	if err != nil {
		return 0, err.Error()
	}
	if _, err := p.Write(raw); err != nil {
		p.Close()
		return 0, "write: " + err.Error()
	}
	st, err := p.Close()
	return time.Since(t0), checkStatus(st, err, "exact", wantWindows, wantEvents, 0)
}

// checkStatus is the per-session gate. wantFP is checked when
// non-zero (fanout sessions against the offline bucket fingerprint;
// sequential sessions are checked server-side against the trailer and
// report parity=exact).
func checkStatus(st *serve.SessionStatus, err error, parity string, wantWindows, wantEvents int, wantFP uint64) string {
	switch {
	case err != nil:
		return err.Error()
	case st.Parity != parity:
		return fmt.Sprintf("session %s: parity=%s, want %s", st.Session, st.Parity, parity)
	case st.Windows != int64(wantWindows):
		return fmt.Sprintf("session %s: %d windows acknowledged, %d sent", st.Session, st.Windows, wantWindows)
	case st.Events != int64(wantEvents):
		return fmt.Sprintf("session %s: %d events, want %d", st.Session, st.Events, wantEvents)
	case wantFP != 0 && st.Fingerprint != wantFP:
		return fmt.Sprintf("session %s: fingerprint %016x, offline replay gives %016x", st.Session, st.Fingerprint, wantFP)
	}
	return ""
}

// closedLoop runs `producers` goroutines, each calling session
// back-to-back until the deadline (a full ring stalls the producer, so
// the rate measured is the rate delivered). It returns every session's
// duration and failure reason.
func closedLoop(producers int, d time.Duration, maxOps int, session func(producer, n int) (time.Duration, string)) (durs []time.Duration, fails []string, wall time.Duration) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for n := 0; n == 0 || time.Since(start) < d; n++ {
				dur, why := session(p, n)
				mu.Lock()
				durs, fails = append(durs, dur), append(fails, why)
				mu.Unlock()
				if maxOps > 0 && n+1 >= maxOps {
					return
				}
			}
		}(p)
	}
	wg.Wait()
	return durs, fails, time.Since(start)
}

// sampleLiveHeap reads the live heap n times, evenly spaced inside the
// next d, and delivers the median: what the server holds with sessions
// in flight. One reading can land between two sessions; the median of
// several does not.
func sampleLiveHeap(d time.Duration, n int) <-chan uint64 {
	out := make(chan uint64, 1)
	go func() {
		samples := make([]float64, n)
		for i := range samples {
			time.Sleep(d / time.Duration(n+1))
			samples[i] = float64(liveHeap())
		}
		out <- uint64(median(samples))
	}()
	return out
}

// depthSampler scrapes /metrics at 10 Hz for the deepest shard queue
// seen (traced runs only: it is one more client).
func depthSampler(ctx context.Context, url string, max *int, done *sync.WaitGroup) {
	defer done.Done()
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		resp, err := http.Get(url + "/metrics")
		if err != nil {
			continue
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "flowpulse_shard_depth{"); ok {
				if _, v, ok := strings.Cut(rest, "} "); ok {
					if d, err := strconv.Atoi(v); err == nil && d > *max {
						*max = d
					}
				}
			}
		}
		resp.Body.Close()
	}
}

// --- serve-tcp ---

// alertKey matches a planted deviation to its alert line.
type alertKey struct {
	session      string
	leaf, uplink int
	iter         uint32
}

// subscriber reads the /alerts NDJSON stream and stamps each alert
// line with its arrival time.
type subscriber struct {
	cancel context.CancelFunc
	done   chan struct{}
	mu     sync.Mutex
	got    map[alertKey]time.Time
	// dropLine, when set, discards matching lines before they are
	// recorded — the planted-bug hook for the missing-alert gate.
	dropLine func(alertKey) bool
}

func subscribe(url string) (*subscriber, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/alerts", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	s := &subscriber{cancel: cancel, done: make(chan struct{}), got: map[alertKey]time.Time{}}
	go func() {
		defer close(s.done)
		defer resp.Body.Close()
		br := bufio.NewReader(resp.Body)
		for {
			line, err := br.ReadBytes('\n')
			now := time.Now()
			if err != nil {
				return // cancelled, or the server drained
			}
			var al struct {
				Type    string `json:"type"`
				Session string `json:"session"`
				Leaf    int    `json:"leaf"`
				Uplink  int    `json:"uplink"`
				Iter    uint32 `json:"iter"`
			}
			if json.Unmarshal(line, &al) != nil || al.Type != "alert" {
				continue
			}
			k := alertKey{al.Session, al.Leaf, al.Uplink, al.Iter}
			s.mu.Lock()
			if s.dropLine == nil || !s.dropLine(k) {
				s.got[k] = now
			}
			s.mu.Unlock()
		}
	}()
	return s, nil
}

func (s *subscriber) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.got)
}

func (s *subscriber) close() {
	s.cancel()
	<-s.done
}

// pacedPhase is the open loop: one producer sends one iteration's
// burst every interval, on a fixed schedule that does not slow when
// the server does, as back-to-back sequential sessions. Each planted
// deviation is stamped with the time its burst was DUE, so a stall
// charges its delay to every burst it holds up.
type pacedResult struct {
	latencies []float64 // ms, due → alert line received
	late      []float64 // ms, how late each burst was written
	expected  int
	sessions  []string // failure reason per session ("" = ok)
}

func pacedPhase(r *rig, rec *recording, sub *subscriber, interval, d time.Duration, maxOps int, tr *tracer) (*pacedResult, error) {
	frames, err := splitFrames(rec.raw)
	if err != nil {
		return nil, err
	}
	preamble, iters := bursts(rec.raw, frames)
	plantAt := map[uint32]plant{}
	for _, p := range rec.planted {
		plantAt[p.iter] = p
	}
	out := &pacedResult{}
	due := map[alertKey]time.Time{}
	start := time.Now().Add(5 * time.Millisecond)
	burst := 0
	for n := 0; n == 0 || time.Since(start) < d; n++ {
		label := fmt.Sprintf("paced-%d", n)
		span, endSession := tr.begin("serve.session", -1, n)
		p, err := serve.DialProducer(r.tcpAddr, "", serve.ModeSeq, label, 5*time.Second)
		if err != nil {
			return nil, err
		}
		if _, err := p.Write(preamble); err != nil {
			return nil, err
		}
		for i, b := range iters {
			at := start.Add(time.Duration(burst) * interval)
			burst++
			// Sleep most of the way, spin the rest: the sleep's wake-up
			// jitter would otherwise be the generator's lateness.
			if wait := time.Until(at); wait > 200*time.Microsecond {
				time.Sleep(wait - 150*time.Microsecond)
			}
			for time.Now().Before(at) {
			}
			t0 := time.Now()
			if _, err := p.Write(b); err != nil {
				return nil, err
			}
			out.late = append(out.late, ms(t0.Sub(at)))
			if burst%sampleEvery == 0 {
				tr.add("serve.burst_write", t0, time.Now(), span, n)
			}
			if pl, ok := plantAt[uint32(i+1)]; ok {
				due[alertKey{label, pl.leaf, pl.uplink, pl.iter}] = at
			}
		}
		st, err := p.Close()
		endSession()
		out.sessions = append(out.sessions, checkStatus(st, err, "exact", rec.windows, len(rec.planted), 0))
		if maxOps > 0 && n+1 >= maxOps {
			break
		}
	}
	// The last alerts are in flight: wait for them, briefly.
	out.expected = len(due)
	for deadline := time.Now().Add(time.Second); sub.count() < out.expected && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	sub.mu.Lock()
	for k, at := range due {
		if got, ok := sub.got[k]; ok {
			out.latencies = append(out.latencies, ms(got.Sub(at)))
		}
	}
	sub.mu.Unlock()
	return out, nil
}

// capacityPhase is the closed loop both serve workloads share: 2
// producers stream rec back-to-back through session for d, and the
// phase's end-to-end and serve-layer numbers go into res. It returns
// the durations of the sessions that passed their gate.
func capacityPhase(res *result, rec *recording, d time.Duration, cfg runConfig, tr *tracer, session func(label string) (time.Duration, string)) ([]float64, error) {
	heapBase := liveHeap()
	mallocsAt, cpuAt := markMallocs(), cpuTime()
	heapMid := sampleLiveHeap(d, 5)
	durs, fails, wall := closedLoop(2, d, cfg.maxOps, func(p, n int) (time.Duration, string) {
		_, end := tr.begin("serve.session", -1, p*1_000_000+n)
		defer end()
		return session(fmt.Sprintf("cap-%d-%d", p, n))
	})
	mallocs := markMallocs() - mallocsAt
	res.wall, res.cpu = wall, cpuTime()-cpuAt
	var ok []float64
	for i, why := range fails {
		res.op(why)
		if why == "" {
			ok = append(ok, ms(durs[i]))
		}
	}
	if len(ok) == 0 {
		return nil, fmt.Errorf("closed loop: no session succeeded: %v", res.failures)
	}
	rec.describe(res)
	res.windows = len(ok) * rec.windows
	res.e2e["windows_per_s"] = float64(res.windows) / wall.Seconds()
	res.e2e["allocs_per_kwindow"] = 1000 * float64(mallocs) / float64(res.windows)
	res.e2e["live_heap_mb"] = mb(<-heapMid, heapBase)
	res.layer["serve.allocs_per_window"] = float64(mallocs) / float64(res.windows)
	res.layer["serve.bytes_per_s"] = float64(len(ok)*len(rec.raw)) / wall.Seconds()
	res.info = append(res.info, fmt.Sprintf("closed loop: %d sessions of %d windows in %.2fs", len(ok), rec.windows, wall.Seconds()))
	return ok, nil
}

// watchDepth starts the /metrics scraper on a traced run; the returned
// func stops it and records the deepest shard queue it saw.
func watchDepth(res *result, r *rig, tr *tracer) (stop func()) {
	if tr == nil {
		return func() {}
	}
	depthMax := 0
	var done sync.WaitGroup
	ctx, cancel := context.WithCancel(context.Background())
	done.Add(1)
	go depthSampler(ctx, r.httpURL, &depthMax, &done)
	return func() {
		cancel()
		done.Wait()
		res.layer["serve.shard_depth_max"] = float64(depthMax)
	}
}

// serveTCPSpec sizes serve-tcp.
type serveTCPSpec struct {
	burstInterval time.Duration
	// dropLine is the planted-bug hook (tests only).
	dropLine func(alertKey) bool
}

func runServeTCP(spec serveTCPSpec, rec *recording, cfg runConfig, tr *tracer) (*result, error) {
	res := newResult()
	r, err := startRig()
	if err != nil {
		return nil, err
	}
	defer r.stop()

	err = serveSetup(res, rec, cfg, func(empty *recording) string {
		_, why := tcpSession(r.tcpAddr, "setup", empty.raw, 0, 0)
		return why
	})
	if err != nil {
		return nil, err
	}
	defer watchDepth(res, r, tr)()

	// Phase 1, closed loop: 2 producers, back-to-back sessions.
	phase := time.Duration(cfg.seconds / 2 * float64(time.Second))
	if _, err := capacityPhase(res, rec, phase, cfg, tr, func(label string) (time.Duration, string) {
		return tcpSession(r.tcpAddr, label, rec.raw, rec.windows, len(rec.planted))
	}); err != nil {
		return nil, err
	}

	// Phase 2, open loop: 1 paced producer, 1 alert subscriber.
	sub, err := subscribe(r.httpURL)
	if err != nil {
		return nil, err
	}
	defer sub.close()
	sub.dropLine = spec.dropLine
	time.Sleep(20 * time.Millisecond) // the handler subscribes to the hub just after it flushes its headers
	pr, err := pacedPhase(r, rec, sub, spec.burstInterval, phase, cfg.maxOps, tr)
	if err != nil {
		return nil, err
	}
	for _, why := range pr.sessions {
		res.op(why)
	}
	for i := 0; i < pr.expected; i++ {
		res.check(i < len(pr.latencies), "alert %d of %d never arrived on /alerts", i+1, pr.expected)
	}
	if len(pr.latencies) == 0 {
		return nil, fmt.Errorf("serve-tcp: no alert arrived in the paced phase")
	}
	res.e2e["op_p50_ms"] = median(pr.latencies)
	res.layer["serve.alert_p90_ms"] = quantile(pr.latencies, 0.9)
	res.layer["serve.alert_p99_ms"] = quantile(pr.latencies, 0.99)
	res.layer["serve.gen_late_p99_ms"] = quantile(pr.late, 0.99)
	res.layer["serve.alerts_dropped"] = float64(pr.expected - len(pr.latencies))
	res.info = append(res.info, fmt.Sprintf("paced: %d sessions, %d alerts, burst every %v, generator late p99 %.3f ms",
		len(pr.sessions), len(pr.latencies), spec.burstInterval, res.layer["serve.gen_late_p99_ms"]))
	return res, nil
}

// --- serve-http-small ---

// chunked hides a reader's length from net/http, so the request body
// goes out with chunked transfer encoding, as a live producer's would.
type chunked struct{ io.Reader }

func httpSession(url, label string, rec *recording) (time.Duration, string) {
	t0 := time.Now()
	resp, err := http.Post(url+"/ingest?mode=fanout&label="+label, "application/octet-stream", chunked{bytes.NewReader(rec.raw)})
	if err != nil {
		return 0, err.Error()
	}
	defer resp.Body.Close()
	var st serve.SessionStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return 0, "status: " + err.Error()
	}
	if st.Error != "" {
		err = fmt.Errorf("server reported: %s", st.Error)
	}
	return time.Since(t0), checkStatus(&st, err, "bucket", rec.windows, len(rec.planted), rec.bucketFP)
}

func runServeHTTP(rec *recording, cfg runConfig, tr *tracer) (*result, error) {
	res := newResult()
	r, err := startRig()
	if err != nil {
		return nil, err
	}
	defer r.stop()

	err = serveSetup(res, rec, cfg, func(empty *recording) string {
		_, why := httpSession(r.httpURL, "setup", empty)
		return why
	})
	if err != nil {
		return nil, err
	}
	defer watchDepth(res, r, tr)()

	phase := time.Duration(cfg.seconds * float64(time.Second))
	ok, err := capacityPhase(res, rec, phase, cfg, tr, func(label string) (time.Duration, string) {
		return httpSession(r.httpURL, label, rec)
	})
	if err != nil {
		return nil, err
	}
	res.e2e["op_p50_ms"] = median(ok)
	return res, nil
}

// accountServe runs the probes and the loopback ladder for a serve
// workload and prints both. mode is the session mode the workload
// uses; probeRec the recording the probes replay (the workload's own,
// or a shorter one of the same shape); small selects which detect
// metric the shape reports under.
func accountServe(res *result, name string, probeRec *recording, mode string, small bool) error {
	load := 4096
	if small {
		load = 1 << 15 // tiny windows; far enough in to meet a planted deviation
	}
	ws, err := loadWindows(probeRec.raw, load)
	if err != nil {
		return err
	}
	l := res.layer
	if l["trace.decode_ns_per_window"], err = probeDecode(probeRec, true); err != nil {
		return err
	}
	l["monitor.onwindow_ns"] = ws.probeOnWindow(false)
	detectKey := "detect.check_ns_per_window"
	if small {
		detectKey = "detect.check_small_ns_per_window"
	}
	l[detectKey] = ws.probeDetect()
	l["localize.ns_per_alert"] = ws.probeLocalize()
	if l["serve.ingest_mem_ns_per_window"], err = probeIngestMem(probeRec, mode); err != nil {
		return err
	}
	lad, err := runLadder(probeRec)
	if err != nil {
		return err
	}
	l["serve.socket_ns_per_window"] = lad.socketNs
	l["serve.self_ns_per_window"] = l["serve.ingest_mem_ns_per_window"] - l["trace.decode_ns_per_window"] - l["monitor.onwindow_ns"]

	// One stream through the real server, for the ladder's top rung.
	r, err := startRig()
	if err != nil {
		return err
	}
	defer r.stop()
	top, err := bestOf(func() error {
		var why string
		if mode == serve.ModeSeq {
			_, why = tcpSession(r.tcpAddr, "ladder", probeRec.raw, probeRec.windows, len(probeRec.planted))
		} else {
			_, why = httpSession(r.httpURL, "ladder", probeRec)
		}
		if why != "" {
			return fmt.Errorf("ladder: %s", why)
		}
		return nil
	})
	if err != nil {
		return err
	}
	topNs := float64(top) / float64(probeRec.windows)
	fmt.Printf("\nladder for %s: one stream of %d windows over loopback TCP, ns per window (self = rung − rung below)\n", name, probeRec.windows)
	fmt.Printf("  %-34s %10.0f  self %8.0f\n", "socket only (bytes → io.Discard)", lad.socketNs, lad.socketNs)
	fmt.Printf("  %-34s %10.0f  self %8.0f\n", "+ trace.decode (NextInto)", lad.decodeNs, lad.decodeNs-lad.socketNs)
	fmt.Printf("  %-34s %10.0f  self %8.0f\n", "+ monitor.onwindow (serial)", lad.onWindowNs, lad.onWindowNs-lad.decodeNs)
	fmt.Printf("  %-34s %10.0f  self %8.0f  (negative: the server overlaps decode and detect on two goroutines)\n",
		"full serve (1 stream)", topNs, topNs-lad.onWindowNs)

	windows := float64(res.windows)
	alerts := windows * l["detect.alerts_per_kwindow"] / 1000
	l["bench.unattributed_share"] = printAccounting(name, res.wall, res.cpu, []acctRow{
		{"socket (loopback read, per window's bytes)", windows, lad.socketNs, 0},
		{"trace (NextInto, reused slot)", windows, l["trace.decode_ns_per_window"], 0},
		{"monitor (window closes, no history)", windows, l["monitor.onwindow_ns"], 0},
		{"detect (score + check)", windows, l[detectKey], 1},
		{"localize (alerts)", alerts, l["localize.ns_per_alert"], 1},
		{"serve self (ring hop, dispatch; may be < 0)", windows, l["serve.self_ns_per_window"], 0},
	})
	fmt.Println("  (unattributed here is mostly the 2 producers' own socket writes and the kernel's loopback work)")
	return nil
}
