package serve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"flowpulse/internal/core"
	"flowpulse/internal/detect"
	"flowpulse/internal/monitor"
	"flowpulse/internal/sim"
	"flowpulse/internal/telemetry"
	"flowpulse/internal/trace"
)

// recordRun simulates one faulted training run and returns the .fpt
// recording bytes (the serve e2e input).
func recordRun(t *testing.T, remediated bool, seed uint64) []byte {
	t.Helper()
	sc := core.Scenario{
		Leaves: 4, Spines: 2,
		BytesPerRank: 1 << 20,
		Iterations:   6,
		Faults:       []core.FaultSpec{{Kind: core.FaultBernoulli, Leaf: 2, Spine: 1, Rate: 0.05, Onset: 2}},
		Background:   4 * sim.Microsecond,
		Seed:         seed,
	}
	return record(t, sc, core.MonitorSpec{Remediate: remediated}, fmt.Sprintf("serve-test-%d", seed))
}

// record runs sc under the monitor and returns the run's .fpt bytes.
func record(t *testing.T, sc core.Scenario, mon core.MonitorSpec, label string) []byte {
	t.Helper()
	opts := mon.AttachOptions()
	opts.TracePath, opts.TraceLabel = filepath.Join(t.TempDir(), "run.fpt"), label
	if _, _, err := core.Run(sc, opts, nil); err != nil {
		t.Fatalf("recording %s: %v", label, err)
	}
	raw, err := os.ReadFile(opts.TracePath)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSequentialParity is the tentpole acceptance criterion: alerts
// (and remediation actions) raised by the service on a streamed
// recording are fingerprint-identical to offline replay of the same
// file — and to the trailer the recorder sealed online.
func TestSequentialParity(t *testing.T) {
	raw := recordRun(t, true, 7)
	rr, err := trace.Replay(bytes.NewReader(raw), trace.ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rr.Events) == 0 {
		t.Fatal("recording produced no events; fixture too tame for a parity test")
	}

	srv := newTestServer(t, Config{})
	defer srv.Drain(5 * time.Second)
	st, err := srv.IngestStream(bytes.NewReader(raw), ModeSeq, "parity")
	if err != nil {
		t.Fatalf("IngestStream: %v", err)
	}
	if st.Parity != "exact" {
		t.Fatalf("parity = %q (fp %016x, trailer %016x)", st.Parity, st.Fingerprint, st.TrailerFingerprint)
	}
	if st.Fingerprint != rr.Fingerprint {
		t.Fatalf("service fp %016x != offline replay fp %016x", st.Fingerprint, rr.Fingerprint)
	}
	if st.Events != int64(len(rr.Events)) || st.Actions != int64(len(rr.Actions)) {
		t.Fatalf("service %d events / %d actions, offline %d / %d",
			st.Events, st.Actions, len(rr.Events), len(rr.Actions))
	}
	if st.Windows != int64(rr.Windows) {
		t.Fatalf("service %d windows, offline %d", st.Windows, rr.Windows)
	}
}

// recordFile records one of flowpulse-sim's bg-* run files and returns
// the .fpt bytes.
func recordFile(t *testing.T, name string) []byte {
	t.Helper()
	doc, err := core.ReadRun(filepath.Join("..", "..", "cmd", "flowpulse-sim", "testdata", "bg-"+name+".json"), nil)
	if err != nil {
		t.Fatal(err)
	}
	return record(t, doc.Scenario, doc.Monitor, name)
}

// TestFanoutBucketParity: over every run file, in both modes, the
// service sees the windows and raises the events offline replay does.
// The sequential path reproduces the global fingerprint (parity=exact);
// the fan-out fingerprint keeps only per-(job, leaf) order, so its
// combined fingerprint must equal offline replay's order-insensitive
// BucketFingerprint (parity=bucket).
func TestFanoutBucketParity(t *testing.T) {
	for _, name := range []string{"default", "fault-at-0", "heal", "two-jobs"} {
		raw := recordFile(t, name)
		rr, err := trace.Replay(bytes.NewReader(raw), trace.ReplayOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if rr.EventCount == 0 {
			t.Fatalf("%s: recording produced no events", name)
		}
		for _, tc := range []struct {
			mode, parity string
			fp           uint64
		}{{ModeSeq, "exact", rr.Fingerprint}, {ModeFanout, "bucket", rr.BucketFingerprint}} {
			t.Run(name+"/"+tc.mode, func(t *testing.T) {
				srv := newTestServer(t, Config{})
				defer srv.Drain(5 * time.Second)
				st, err := srv.IngestStream(bytes.NewReader(raw), tc.mode, name)
				if err != nil {
					t.Fatalf("IngestStream: %v", err)
				}
				if st.Mode != tc.mode || st.Parity != tc.parity {
					t.Fatalf("mode=%q parity=%q, want %q %q", st.Mode, st.Parity, tc.mode, tc.parity)
				}
				if st.Fingerprint != tc.fp {
					t.Errorf("service fp %016x != offline %016x", st.Fingerprint, tc.fp)
				}
				if st.Windows != int64(rr.Windows) || st.Events != int64(rr.EventCount) {
					t.Errorf("service %d windows / %d events, offline %d / %d", st.Windows, st.Events, rr.Windows, rr.EventCount)
				}
			})
		}
	}
}

// scrapeLive streams raw into a new session of srv through a pipe it
// holds open, waits until the session has fed every one of the
// recording's windows, and returns /metrics as it reads then, while the
// session is still live; then it ends the stream.
func scrapeLive(t *testing.T, srv *Server, raw []byte, windows int, mode, label string) string {
	t.Helper()
	pr, pw := io.Pipe()
	done := make(chan error, 1)
	go func() {
		_, err := srv.IngestStream(pr, mode, label)
		pr.Close() // a session that ends early fails the Write below
		done <- err
	}()
	if _, err := pw.Write(raw); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); srv.met.windowsTotal.Load() < int64(windows); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d windows fed", srv.met.windowsTotal.Load(), windows)
		}
	}
	var buf bytes.Buffer
	srv.writeMetrics(&buf)
	pw.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestDeviationGauge pins the flowpulse_deviation series set: per
// (session, job), the largest of the job's leaves' latest scores. One
// replayer scores every window in either mode, so both modes export
// the same finite, positive gauge per job.
func TestDeviationGauge(t *testing.T) {
	raw := recordFile(t, "two-jobs")
	rr, err := trace.Replay(bytes.NewReader(raw), trace.ReplayOptions{NoHistory: true})
	if err != nil {
		t.Fatal(err)
	}
	series := map[string][]string{}
	for _, mode := range []string{ModeFanout, ModeSeq} {
		srv := newTestServer(t, Config{})
		text := scrapeLive(t, srv, raw, rr.Windows, mode, "gauge")
		srv.Drain(5 * time.Second)
		for _, line := range strings.Split(text, "\n") {
			if !strings.HasPrefix(line, "flowpulse_deviation{") {
				continue
			}
			_, val, _ := strings.Cut(line, " ")
			d, err := strconv.ParseFloat(val, 64)
			if err != nil || math.IsInf(d, 0) || math.IsNaN(d) || d <= 0 {
				t.Errorf("%s: %s: want a finite, positive deviation", mode, line)
			}
			series[mode] = append(series[mode], line)
		}
	}
	if n := len(series[ModeSeq]); n != 2 || !strings.Contains(series[ModeSeq][0], `{session="gauge",job="1"}`) ||
		!strings.Contains(series[ModeSeq][1], `{session="gauge",job="2"}`) {
		t.Errorf("seq: deviation series %q, want one for each of jobs 1 and 2", series[ModeSeq])
	}
	if !slices.Equal(series[ModeFanout], series[ModeSeq]) {
		t.Errorf("fanout series %q differ from seq %q", series[ModeFanout], series[ModeSeq])
	}
}

// TestMetricsScrapeDuringIngest: a /metrics scrape walks the live
// sessions while they feed their replayers. Run under -race.
func TestMetricsScrapeDuringIngest(t *testing.T) {
	raw := buildCleanStream(t, 64)
	srv := newTestServer(t, Config{Logf: func(string, ...any) {}})
	defer srv.Drain(5 * time.Second)
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			select {
			case <-stop:
				return
			default:
				srv.writeMetrics(io.Discard)
			}
		}
	}()
	for i := 0; i < 50; i++ {
		st, err := srv.IngestStream(bytes.NewReader(raw), ModeFanout, fmt.Sprintf("scraped-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if st.Windows != 64 {
			t.Fatalf("session %d: %d windows, want 64", i, st.Windows)
		}
	}
	close(stop)
	<-stopped
}

// TestRemediatedStreamForcesSequential: a fan-out request for a
// remediated recording is demoted to sequential (fan-out cannot replay
// the probe loop's global order) and still reaches exact parity.
func TestRemediatedStreamForcesSequential(t *testing.T) {
	raw := recordRun(t, true, 13)
	srv := newTestServer(t, Config{})
	defer srv.Drain(5 * time.Second)
	st, err := srv.IngestStream(bytes.NewReader(raw), ModeFanout, "forced")
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode != ModeSeq || st.Parity != "exact" {
		t.Fatalf("mode=%q parity=%q, want forced sequential exact", st.Mode, st.Parity)
	}
}

// TestTCPMultiProducer streams ≥8 recordings concurrently over real
// TCP connections and asserts per-producer isolation: every session's
// fingerprint equals its own file's offline replay — windows from one
// producer never bleed into another's detection state.
func TestTCPMultiProducer(t *testing.T) {
	const producers = 8
	raws := make([][]byte, producers)
	wants := make([]uint64, producers)
	var prep sync.WaitGroup
	errs := make([]error, producers)
	for i := 0; i < producers; i++ {
		prep.Add(1)
		go func(i int) {
			defer prep.Done()
			raws[i] = recordRun(t, i%2 == 0, uint64(20+i))
			rr, err := trace.Replay(bytes.NewReader(raws[i]), trace.ReplayOptions{})
			if err != nil {
				errs[i] = err
				return
			}
			wants[i] = rr.Fingerprint
		}(i)
	}
	prep.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("producer %d prep: %v", i, err)
		}
	}

	srv := newTestServer(t, Config{Token: "hunter2"})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeTCP(l)
	defer srv.Drain(10 * time.Second)

	var wg sync.WaitGroup
	windows := make([]int64, producers)
	for i := 0; i < producers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := DialProducer(l.Addr().String(), "hunter2", ModeSeq, fmt.Sprintf("prod-%d", i), 5*time.Second)
			if err != nil {
				errs[i] = err
				return
			}
			// Dribble the stream in small writes to interleave producers.
			raw := raws[i]
			for len(raw) > 0 {
				n := 4096
				if n > len(raw) {
					n = len(raw)
				}
				if _, err := p.Write(raw[:n]); err != nil {
					errs[i] = err
					return
				}
				raw = raw[n:]
			}
			st, err := p.Close()
			if err != nil {
				errs[i] = err
				return
			}
			windows[i] = st.Windows
			if st.Fingerprint != wants[i] {
				errs[i] = fmt.Errorf("producer %d: fp %016x, want %016x (parity %s)", i, st.Fingerprint, wants[i], st.Parity)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("producer %d: %v", i, err)
		}
	}
	// The service counters are added once per source read: every
	// session's adds must still sum to what the sessions acknowledged.
	var sum int64
	for _, w := range windows {
		sum += w
	}
	if got := srv.met.windowsTotal.Load(); got != sum {
		t.Errorf("flowpulse_windows_total %d, sessions acknowledged %d windows", got, sum)
	}
}

// TestNothingWaitsBehindARead: a producer that has sent k whole frames
// and then goes quiet — connection open, no trailer — must already
// have all k windows counted and its alert on the /alerts hub. A
// session that counted only at the end of the stream would hold them
// while it blocks in the next read.
func TestNothingWaitsBehindARead(t *testing.T) {
	const k, deviant = 24, 17
	raw := buildStream(t, k, deviant)
	// Cut the trailer off: header + k window frames.
	off := len(trace.Magic)
	for off < len(raw) {
		n, w := binary.Uvarint(raw[off:])
		if raw[off+w] == trace.KindTrailer {
			break
		}
		off += w + int(n) + 4
	}
	raw = raw[:off]
	for _, mode := range []string{ModeSeq, ModeFanout} {
		t.Run(mode, func(t *testing.T) {
			srv := newTestServer(t, Config{})
			defer srv.Drain(5 * time.Second)
			alerts, cancel := srv.hub.subscribe(16)
			defer cancel()
			pr, pw := io.Pipe()
			done := make(chan error, 1)
			go func() {
				_, err := srv.IngestStream(pr, mode, "held-open")
				done <- err
			}()
			go pw.Write(raw)
			deadline := time.Now().Add(2 * time.Second)
			for srv.met.windowsTotal.Load() < k {
				if time.Now().After(deadline) {
					pw.Close()
					t.Fatalf("flowpulse_windows_total %d of %d sent while the source stays open", srv.met.windowsTotal.Load(), k)
				}
				time.Sleep(time.Millisecond)
			}
			select {
			case line := <-alerts:
				if !strings.Contains(string(line), `"type":"alert"`) {
					t.Errorf("first /alerts line is not an alert: %s", line)
				}
			case <-time.After(time.Until(deadline)):
				pw.Close()
				t.Fatal("no alert on the hub while the source stays open")
			}
			pw.Close()
			if err := <-done; err != nil {
				t.Fatalf("IngestStream: %v", err)
			}
		})
	}
}

// TestSlowSinkStallsOnlyItsSession: a sink that blocks on one
// session's alert holds that session, and only that one. A second
// session streaming a clean recording, which raises no alert and so
// never reaches the sink, must still finish.
func TestSlowSinkStallsOnlyItsSession(t *testing.T) {
	slow, fast := buildStream(t, 24, 17), buildCleanStream(t, 64)
	held, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	srv := newTestServer(t, Config{
		Rules: []Rule{{Name: "slow-sink", Sink: "log"}},
		Logf: func(format string, args ...any) {
			if strings.Contains(fmt.Sprintf(format, args...), `"session":"slow"`) {
				once.Do(func() { close(held) })
				<-release
			}
		},
	})
	defer srv.Drain(5 * time.Second)
	slowDone := make(chan error, 1)
	go func() {
		_, err := srv.IngestStream(bytes.NewReader(slow), ModeSeq, "slow")
		slowDone <- err
	}()
	select {
	case <-held:
	case <-time.After(5 * time.Second):
		close(release)
		t.Fatal("the slow session's alert never reached its sink")
	}
	fastDone := make(chan *SessionStatus, 1)
	go func() {
		st, _ := srv.IngestStream(bytes.NewReader(fast), ModeSeq, "fast")
		fastDone <- st
	}()
	var st *SessionStatus
	select {
	case st = <-fastDone:
	case <-time.After(2 * time.Second):
		t.Error("a clean session stalled behind another session's sink")
	}
	close(release)
	if st == nil {
		st = <-fastDone
	}
	if st == nil || st.Windows != 64 || st.Parity != "exact" || st.Error != "" {
		t.Errorf("fast session status %+v, want 64 windows at parity=exact", st)
	}
	if err := <-slowDone; err != nil {
		t.Fatalf("slow session: %v", err)
	}
}

// TestTCPBadToken: a wrong token is refused before any frame decodes.
func TestTCPBadToken(t *testing.T) {
	srv := newTestServer(t, Config{Token: "secret"})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeTCP(l)
	defer srv.Drain(time.Second)

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "FPS1 token=wrong\n")
	line, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil || !strings.Contains(line, "bad token") {
		t.Fatalf("line=%q err=%v", line, err)
	}
	if srv.met.authFailures.Load() != 1 {
		t.Fatalf("auth failures = %d", srv.met.authFailures.Load())
	}
}

// TestHTTPSurface drives the whole operational surface over HTTP:
// subscribe to /alerts, POST a recording to /ingest, and check
// /metrics and /healthz.
func TestHTTPSurface(t *testing.T) {
	raw := recordRun(t, true, 31)
	srv := newTestServer(t, Config{Token: "tok"})
	ts := httptest.NewServer(srv.HTTPHandler())
	defer ts.Close()
	defer srv.Drain(5 * time.Second)

	// Subscribe to the alert stream before ingesting.
	alertReq, _ := http.NewRequest("GET", ts.URL+"/alerts", nil)
	alertResp, err := http.DefaultClient.Do(alertReq)
	if err != nil {
		t.Fatal(err)
	}
	defer alertResp.Body.Close()
	alertLines := make(chan string, 64)
	go func() {
		sc := bufio.NewScanner(alertResp.Body)
		for sc.Scan() {
			alertLines <- sc.Text()
		}
		close(alertLines)
	}()

	if resp, err := http.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != 200 {
		t.Fatalf("healthz: %v %v", resp.Status, err)
	}

	// Unauthenticated ingest is refused.
	resp, err := http.Post(ts.URL+"/ingest", "application/octet-stream", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated ingest: %s", resp.Status)
	}

	req, _ := http.NewRequest("POST", ts.URL+"/ingest?label=http-prod", bytes.NewReader(raw))
	req.Header.Set("Authorization", "Bearer tok")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st SessionStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || st.Parity != "exact" || st.Events == 0 {
		t.Fatalf("ingest: %s %+v", resp.Status, st)
	}

	// The alert stream saw at least one NDJSON alert for this session.
	deadline := time.After(5 * time.Second)
	sawAlert := false
	for !sawAlert {
		select {
		case line := <-alertLines:
			if strings.Contains(line, `"type":"alert"`) && strings.Contains(line, `"session":"http-prod"`) {
				sawAlert = true
			}
		case <-deadline:
			t.Fatal("no alert on /alerts stream")
		}
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var mbuf bytes.Buffer
	mbuf.ReadFrom(mresp.Body)
	mresp.Body.Close()
	metricsText := mbuf.String()
	for _, want := range []string{
		"flowpulse_windows_total", "flowpulse_alerts_total",
		"flowpulse_sessions_total 1", "flowpulse_windows_per_second",
	} {
		if !strings.Contains(metricsText, want) {
			t.Errorf("metrics missing %q:\n%s", want, metricsText)
		}
	}
	if strings.Contains(metricsText, "flowpulse_windows_total 0\n") {
		t.Error("windows_total still zero after ingest")
	}
}

// TestRulesRouting: a file-sink rule receives exactly the alerts that
// match its deviation floor, and ParseRule round-trips the CLI form.
func TestRulesRouting(t *testing.T) {
	r, err := ParseRule("name=ops,min_dev=0.1,sink=file,path=" + filepath.Join(t.TempDir(), "x.ndjson"))
	if err != nil || r.Name != "ops" || r.MinDeviation != 0.1 || r.Sink != "file" {
		t.Fatalf("ParseRule: %+v %v", r, err)
	}
	if _, err := ParseRule("min_dev=abc"); err == nil {
		t.Fatal("bad min_dev accepted")
	}
	if _, err := ParseRule("sink"); err == nil {
		t.Fatal("non-k=v accepted")
	}

	raw := recordRun(t, false, 41)
	sinkPath := filepath.Join(t.TempDir(), "alerts.ndjson")
	nonePath := filepath.Join(t.TempDir(), "none.ndjson")
	srv := newTestServer(t, Config{Rules: []Rule{
		{Name: "everything", Sink: "file", Path: sinkPath},
		{Name: "impossible", MinDeviation: 99, Sink: "file", Path: nonePath},
	}})
	st, err := srv.IngestStream(bytes.NewReader(raw), ModeFanout, "ruled")
	if err != nil {
		t.Fatal(err)
	}
	srv.Drain(5 * time.Second)
	if st.Events == 0 {
		t.Fatal("no events")
	}
	sunk, err := os.ReadFile(sinkPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Count(sunk, []byte("\n"))
	if int64(lines) != st.Events {
		t.Fatalf("file sink got %d lines, want %d", lines, st.Events)
	}
	var first alertLine
	if err := json.Unmarshal(sunk[:bytes.IndexByte(sunk, '\n')], &first); err != nil {
		t.Fatalf("sink line not JSON: %v", err)
	}
	if first.Session != "ruled" || first.Type != "alert" {
		t.Fatalf("sink line: %+v", first)
	}
	if none, err := os.ReadFile(nonePath); err != nil || len(none) != 0 {
		t.Fatalf("min_dev=99 rule's file holds %d bytes (%v), want none", len(none), err)
	}
}

// TestDrainRefusesNewStreams: after Drain begins, new sessions are
// refused and the drain reports clean.
func TestDrainRefusesNewStreams(t *testing.T) {
	srv := newTestServer(t, Config{})
	if !srv.Drain(time.Second) {
		t.Fatal("idle drain not clean")
	}
	if _, err := srv.IngestStream(bytes.NewReader(nil), ModeSeq, "late"); err == nil {
		t.Fatal("ingest accepted after drain")
	}
}

// TestTornStreamReported: a producer dying mid-frame yields a status
// with the torn-stream error, and everything decoded before the tear
// still processed.
// TestBadHeaderRefused: a stream whose header carries a detector setting
// no detector can run with is refused at the header, by name.
func TestBadHeaderRefused(t *testing.T) {
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	if err := w.Begin(trace.Header{
		Leaves: 4, Spines: 2, HostsPerLeaf: 1, Trunk: 1,
		Jobs: []trace.JobHeader{{Predictor: "analytical", Threshold: -0.5}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.Finish(0); err != nil {
		t.Fatal(err)
	}
	srv := newTestServer(t, Config{})
	defer srv.Drain(5 * time.Second)
	if _, err := srv.IngestStream(&buf, ModeSeq, "bad-header"); err == nil || !strings.Contains(err.Error(), "threshold -0.5") {
		t.Fatalf("err = %v, want the header refused naming the threshold", err)
	}
}

func TestTornStreamReported(t *testing.T) {
	raw := recordRun(t, false, 51)
	srv := newTestServer(t, Config{})
	defer srv.Drain(5 * time.Second)
	st, err := srv.IngestStream(bytes.NewReader(raw[:len(raw)-7]), ModeSeq, "torn")
	if err == nil || !strings.Contains(err.Error(), "mid-frame") {
		t.Fatalf("err = %v", err)
	}
	if st == nil || st.Windows == 0 {
		t.Fatalf("pre-tear windows lost: %+v", st)
	}
}

// TestEmptySessionAllocatesNoRing: a session that carries only a header
// and a trailer, as a set-up probe does, reports what an empty replay
// gives and never grows its window storage.
func TestEmptySessionAllocatesNoRing(t *testing.T) {
	raw := buildCleanStream(t, 0)
	for _, tc := range []struct{ mode, parity string }{{ModeSeq, "exact"}, {ModeFanout, "bucket"}} {
		t.Run(tc.mode, func(t *testing.T) {
			srv := newTestServer(t, Config{})
			defer srv.Drain(5 * time.Second)
			pr, pw := io.Pipe()
			done := make(chan *SessionStatus, 1)
			go func() {
				st, err := srv.IngestStream(pr, tc.mode, "empty")
				if err != nil {
					t.Error(err)
				}
				done <- st
			}()
			go pw.Write(raw)
			// The trailer reaches the record counter only once the
			// session waits in its next read, with the stream still open.
			for deadline := time.Now().Add(5 * time.Second); srv.met.recordsTotal.Load() < 1; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("trailer never counted")
				}
			}
			srv.mu.Lock()
			for _, sess := range srv.sessions {
				if sess.rp == nil {
					t.Error("no replayer after the header")
				} else if !reflect.ValueOf(sess.win).IsZero() {
					t.Errorf("window storage grown with no window through it: %+v", sess.win)
				}
			}
			srv.mu.Unlock()
			pw.Close()
			st := <-done
			if st == nil || st.Parity != tc.parity || st.Windows != 0 || st.TrailerFingerprint == 0 || st.Error != "" {
				t.Fatalf("status %+v, want parity=%s over 0 windows against the trailer", st, tc.parity)
			}
		})
	}
}

// TestBadWindowPoisonsSession: a window whose job tag is not in its
// multi-job header, or whose leaf ordinal lies past the topology, is
// refused by the session's replayer. In either mode the session ends
// with that error and counts only the windows before it.
func TestBadWindowPoisonsSession(t *testing.T) {
	const good, total = 10, 64
	for _, tc := range []struct {
		name, want string
		edit       func(*telemetry.Window)
	}{
		{"job", "window for job 7 not in header", func(w *telemetry.Window) { w.Job = 7 }},
		{"leaf", "window leaf ordinal 9 out of range", func(w *telemetry.Window) { w.LeafOrdinal = 9 }},
	} {
		raw := encodeStream(t, true, total, func(i int, w *telemetry.Window) {
			if i == good {
				tc.edit(w)
			}
		})
		for _, mode := range []string{ModeSeq, ModeFanout} {
			t.Run(tc.name+"/"+mode, func(t *testing.T) {
				srv := newTestServer(t, Config{})
				defer srv.Drain(5 * time.Second)
				st, err := srv.IngestStream(bytes.NewReader(raw), mode, "bad-"+tc.name)
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("err = %v, want %q", err, tc.want)
				}
				if st == nil || !strings.Contains(st.Error, tc.want) || st.Windows != good {
					t.Fatalf("status %+v, want error %q after %d windows", st, tc.want, good)
				}
			})
		}
	}
}

// TestNonFiniteAlertReachesSink: a ghost-traffic alert — traffic on a
// port predicted idle, deviation +Inf by design — reaches a file sink
// like any other, with its non-finite field written as null, and every
// sunk line parses.
func TestNonFiniteAlertReachesSink(t *testing.T) {
	path := filepath.Join(t.TempDir(), "alerts.ndjson")
	var logged []string
	rs, err := compileRules([]Rule{{Name: "all", Sink: "file", Path: path}}, func(f string, a ...any) {
		logged = append(logged, fmt.Sprintf(f, a...))
	})
	if err != nil {
		t.Fatal(err)
	}
	h := newHub()
	for _, dev := range []float64{0.5, math.Inf(1), -0.25} {
		rs.dispatch(h, "ghost", &monitor.Event{Alert: detect.Alert{Job: 1, Observed: 4096, Predicted: 1, Deviation: dev}})
	}
	rs.close()
	h.close()
	if len(logged) != 0 {
		t.Errorf("route logged %q", logged)
	}
	sunk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(sunk), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("file sink got %d lines, want 3:\n%s", len(lines), sunk)
	}
	for i, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("line %d does not parse: %v: %s", i, err, line)
		}
		if dev, ok := m["deviation"]; !ok || (i == 1) != (dev == nil) {
			t.Errorf("line %d: deviation %v, want null only for the +Inf alert", i, dev)
		}
		if m["session"] != "ghost" || m["job"] != 1.0 || m["observed"] != 4096.0 || m["predicted"] != 1.0 {
			t.Errorf("line %d lost a field: %s", i, line)
		}
	}
}

// TestAlertsDroppedCounted: an /alerts subscriber that never reads
// keeps its buffer's worth of lines and misses the rest, and
// flowpulse_alerts_dropped_total counts every line it missed.
func TestAlertsDroppedCounted(t *testing.T) {
	raw := encodeStream(t, false, 64, func(i int, w *telemetry.Window) {
		if i%4 == 1 {
			w.PortBytes[1] = 100
		}
	})
	srv := newTestServer(t, Config{})
	defer srv.Drain(5 * time.Second)
	const buffer = 2
	ch, cancel := srv.hub.subscribe(buffer)
	defer cancel()
	st, err := srv.IngestStream(bytes.NewReader(raw), ModeSeq, "unread")
	if err != nil {
		t.Fatal(err)
	}
	if st.Events <= buffer {
		t.Fatalf("%d alerts, want more than the subscriber's buffer of %d", st.Events, buffer)
	}
	var m strings.Builder
	srv.writeMetrics(&m)
	want := fmt.Sprintf("flowpulse_alerts_dropped_total %d\n", st.Events-buffer)
	if len(ch) != buffer || !strings.Contains(m.String(), want) {
		t.Errorf("subscriber kept %d lines; want %d kept and %q:\n%s", len(ch), buffer, want, m.String())
	}
}

// TestPreambleBounded: a producer whose preamble never ends is refused
// once the connection's read buffer is full, not read into memory.
func TestPreambleBounded(t *testing.T) {
	srv := newTestServer(t, Config{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeTCP(l)
	defer srv.Drain(time.Second)

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	chunk := bytes.Repeat([]byte{'x'}, 64<<10)
	resp := bufio.NewReader(conn)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sent := make(chan struct{})
	go func() { // 1 MiB without a newline, then the end of the stream
		defer close(sent)
		for i := 0; i < 16; i++ {
			if _, err := conn.Write(chunk); err != nil {
				return // refused and closed: the rest is not wanted
			}
		}
		conn.(*net.TCPConn).CloseWrite()
	}()
	line, err := resp.ReadString('\n')
	runtime.ReadMemStats(&after)
	<-sent
	if !strings.Contains(line, "preamble too long") {
		t.Fatalf("reply %q (err %v), want the preamble refused", line, err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 64<<10 {
		t.Fatalf("refusing a 1 MiB preamble allocated %d bytes", alloc)
	}
}

// TestDrainAbortsStalledProducer: a TCP producer that sends its
// preamble, the header, some windows and half a frame, then stalls,
// holds Drain to its deadline. Drain reports it (false) and cuts the
// connection; every goroutine ends, and the windows counted service-wide
// are the ones the sessions report.
func TestDrainAbortsStalledProducer(t *testing.T) {
	const whole = 12
	raw := buildStream(t, whole+4, -1)
	// Header plus whole windows, then half of the next frame.
	off, frames := len(trace.Magic), -1 // the header frame counts as -1
	for frames < whole {
		n, w := binary.Uvarint(raw[off:])
		off += w + int(n) + 4
		frames++
	}
	n, w := binary.Uvarint(raw[off:])
	stalled := raw[:off+(w+int(n)+4)/2]

	base := runtime.NumGoroutine()
	var mu sync.Mutex
	var logged []string
	srv := newTestServer(t, Config{Logf: func(format string, args ...any) {
		mu.Lock()
		logged = append(logged, fmt.Sprintf(format, args...))
		mu.Unlock()
	}})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeTCP(l)

	// One producer finishes normally.
	p, err := DialProducer(l.Addr().String(), "", ModeSeq, "whole", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Write(raw); err != nil {
		t.Fatal(err)
	}
	st, err := p.Close()
	if err != nil {
		t.Fatal(err)
	}

	// The other stalls mid-frame.
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(append([]byte("FPS1 label=stalled\n"), stalled...)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.met.windowsTotal.Load() < st.Windows+whole {
		if time.Now().After(deadline) {
			t.Fatalf("flowpulse_windows_total %d, want %d before draining", srv.met.windowsTotal.Load(), st.Windows+whole)
		}
		time.Sleep(time.Millisecond)
	}

	if srv.Drain(50 * time.Millisecond) {
		t.Fatal("Drain reported clean with a producer stalled mid-frame")
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("stalled producer's connection still open after Drain: %v", err)
	}
	conn.Close()

	var sum int64
	sessions := 0
	mu.Lock()
	for _, line := range logged {
		if !strings.Contains(line, " done: ") {
			continue
		}
		_, after, _ := strings.Cut(line, " windows=")
		n, err := strconv.ParseInt(strings.Fields(after)[0], 10, 64)
		if err != nil {
			t.Fatalf("log line %q: %v", line, err)
		}
		sum += n
		sessions++
	}
	mu.Unlock()
	if got := srv.met.windowsTotal.Load(); sessions != 2 || got != sum {
		t.Errorf("flowpulse_windows_total %d, the %d sessions report %d windows", got, sessions, sum)
	}
	if sum != st.Windows+whole {
		t.Errorf("sessions report %d windows, want %d", sum, st.Windows+whole)
	}

	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Drain, %d before the server", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}
