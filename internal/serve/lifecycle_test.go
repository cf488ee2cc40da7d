package serve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flowpulse/internal/telemetry"
	"flowpulse/internal/trace"
)

// frameEnd returns the offset in raw just past its header frame and the
// n frames after it.
func frameEnd(raw []byte, n int) int {
	off := len(trace.Magic)
	for i := 0; i <= n; i++ {
		k, w := binary.Uvarint(raw[off:])
		off += w + int(k) + 4
	}
	return off
}

// TestDrainWaitsForEverySession: a live HTTP /ingest session and a live
// in-process IngestStream session, their sources held open, hold Drain
// to its deadline as a TCP session does. Drain reports them (false) and
// closes both sources; the rule sinks close only once both sessions
// have ended, so nothing is written to a closed file, and every
// goroutine ends.
func TestDrainWaitsForEverySession(t *testing.T) {
	const held, total = 16, 32
	raw := encodeStream(t, false, total, func(_ int, w *telemetry.Window) { w.PortBytes[1] = 100 }) // every window alerts
	cut := frameEnd(raw, held)

	base := runtime.NumGoroutine()
	var mu sync.Mutex
	var logged []string
	srv := newTestServer(t, Config{
		Rules: []Rule{{Name: "f", Sink: "file", Path: filepath.Join(t.TempDir(), "alerts.ndjson")}},
		Logf: func(format string, args ...any) {
			mu.Lock()
			logged = append(logged, fmt.Sprintf(format, args...))
			mu.Unlock()
		},
	})
	ts := httptest.NewServer(srv.HTTPHandler())
	tr := &http.Transport{}

	inR, inW := io.Pipe()
	inDone := make(chan error, 1)
	go func() {
		_, err := srv.IngestStream(inR, ModeSeq, "in-process")
		inDone <- err
	}()
	httpR, httpW := io.Pipe()
	httpDone := make(chan struct{})
	go func() {
		defer close(httpDone)
		req, _ := http.NewRequest("POST", ts.URL+"/ingest?label=http", httpR)
		if resp, err := tr.RoundTrip(req); err == nil {
			resp.Body.Close()
		}
	}()
	for _, w := range []*io.PipeWriter{inW, httpW} {
		if _, err := w.Write(raw[:cut]); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.met.windowsTotal.Load() < 2*held {
		if time.Now().After(deadline) {
			t.Fatalf("flowpulse_windows_total %d, want %d before draining", srv.met.windowsTotal.Load(), 2*held)
		}
		time.Sleep(time.Millisecond)
	}
	var m strings.Builder
	srv.writeMetrics(&m)
	if !strings.Contains(m.String(), "flowpulse_sessions_active 2\n") {
		t.Errorf("want 2 active sessions on /metrics:\n%s", m.String())
	}

	start := time.Now()
	if srv.Drain(time.Second) {
		t.Error("Drain reported clean over two live sessions")
	}
	if took := time.Since(start); took < time.Second {
		t.Errorf("Drain returned after %v, before its 1s deadline", took)
	}
	// The rest of each stream, alerts included, comes after the drain:
	// a session still running would route it to a closed sink.
	for _, w := range []*io.PipeWriter{inW, httpW} {
		go func() {
			w.Write(raw[cut:])
			w.Close()
		}()
	}
	select {
	case err := <-inDone:
		if err == nil {
			t.Error("in-process session ended without error after its source was closed")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-process session still running after Drain")
	}
	select {
	case <-httpDone:
	case <-time.After(5 * time.Second):
		t.Fatal("HTTP session still running after Drain")
	}
	mu.Lock()
	for _, line := range logged {
		if strings.Contains(line, "file already closed") {
			t.Errorf("a session wrote to a sink Drain had closed: %s", line)
			break
		}
	}
	mu.Unlock()

	ts.Close()
	tr.CloseIdleConnections()
	deadline = time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Drain, %d before the server", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDrainIgnoresHalfPreamble: a TCP peer that sends part of its
// preamble and then nothing is not a session yet. Drain neither waits
// for it nor counts it as cut off.
func TestDrainIgnoresHalfPreamble(t *testing.T) {
	srv := newTestServer(t, Config{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeTCP(l)

	half, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer half.Close()
	if _, err := half.Write([]byte("FPS1 label=x")); err != nil {
		t.Fatal(err)
	}
	// Connections are accepted in order: once a later one is answered,
	// the half-sent one has its goroutine.
	later, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer later.Close()
	fmt.Fprintf(later, "HELLO\n")
	if line, err := bufio.NewReader(later).ReadString('\n'); !strings.Contains(line, "bad preamble") {
		t.Fatalf("reply %q (err %v), want the preamble refused", line, err)
	}

	done := make(chan bool, 1)
	go func() { done <- srv.Drain(100 * time.Millisecond) }()
	select {
	case clean := <-done:
		if !clean {
			t.Error("Drain reported a half-sent preamble as a cut-off session")
		}
	case <-time.After(time.Second):
		half.Close()
		<-done
		t.Fatal("Drain still waiting on a half-sent preamble after 1s")
	}
}

// TestBlockedSinkHoldsOnlyItsWriters: one session's alert, blocked in a
// log sink, holds no other session's file sink. A second alerting
// session finishes within 2 s with every alert in its file while the
// first is still held.
func TestBlockedSinkHoldsOnlyItsWriters(t *testing.T) {
	slow := buildStream(t, 24, 17)
	fast := encodeStream(t, false, 64, func(i int, w *telemetry.Window) {
		if i%8 == 5 {
			w.PortBytes[1] = 100
		}
	})
	path := filepath.Join(t.TempDir(), "alerts.ndjson")
	held, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	srv := newTestServer(t, Config{
		Rules: []Rule{{Name: "log", Sink: "log"}, {Name: "file", Sink: "file", Path: path}},
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
		t.Error("an alerting session stalled behind another session's blocked sink")
	}
	sunk, err := os.ReadFile(path) // the slow session is still held
	close(release)
	if st == nil {
		st = <-fastDone
	}
	if err != nil {
		t.Fatal(err)
	}
	if st == nil || st.Events == 0 || st.Error != "" {
		t.Fatalf("fast session status %+v, want alerts and no error", st)
	}
	if lines := bytes.Count(sunk, []byte("\n")); int64(lines) != st.Events || bytes.Count(sunk, []byte(`"session":"fast"`)) != lines {
		t.Errorf("file sink held %d lines while the slow session was held, want the fast session's %d:\n%s", lines, st.Events, sunk)
	}
	if err := <-slowDone; err != nil {
		t.Fatalf("slow session: %v", err)
	}
}

// slowWrites delays every write by 100 ms and counts it once done: a
// status reply that Drain does not wait for is still in flight when
// Drain returns.
type slowWrites struct{ wrote *atomic.Int32 }

func (s slowWrites) write(w io.Writer, p []byte) (int, error) {
	time.Sleep(100 * time.Millisecond)
	defer s.wrote.Add(1)
	return w.Write(p)
}

type slowConn struct {
	net.Conn
	slowWrites
}

func (c slowConn) Write(p []byte) (int, error) { return c.write(c.Conn, p) }

type slowListener struct {
	net.Listener
	slowWrites
}

func (l slowListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	return slowConn{c, l.slowWrites}, err
}

type slowRecorder struct {
	*httptest.ResponseRecorder
	slowWrites
}

func (r slowRecorder) Write(p []byte) (int, error) { return r.write(r.ResponseRecorder, p) }

// TestDrainWaitsForReplies: a TCP producer and an HTTP /ingest producer
// end their streams while Drain is running. Drain returns clean only
// once both status replies are written, and each producer reads its
// status.
func TestDrainWaitsForReplies(t *testing.T) {
	const n = 32
	raw := encodeStream(t, false, n, func(int, *telemetry.Window) {})
	srv := newTestServer(t, Config{})
	sw := slowWrites{new(atomic.Int32)}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeTCP(slowListener{l, sw})

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "FPS1 label=tcp\n")
	conn.Write(raw)
	httpR, httpW := io.Pipe()
	rec := slowRecorder{httptest.NewRecorder(), sw}
	httpDone := make(chan struct{})
	go func() {
		defer close(httpDone)
		srv.HTTPHandler().ServeHTTP(rec, httptest.NewRequest("POST", "/ingest?label=http", httpR))
	}()
	go httpW.Write(raw)
	deadline := time.Now().Add(5 * time.Second)
	for srv.met.windowsTotal.Load() < 2*n {
		if time.Now().After(deadline) {
			t.Fatalf("flowpulse_windows_total %d, want %d before draining", srv.met.windowsTotal.Load(), 2*n)
		}
		time.Sleep(time.Millisecond)
	}

	done := make(chan bool, 1)
	go func() { done <- srv.Drain(5 * time.Second) }()
	for draining := false; !draining; time.Sleep(time.Millisecond) {
		srv.mu.Lock()
		draining = srv.draining
		srv.mu.Unlock()
	}
	conn.(*net.TCPConn).CloseWrite()
	httpW.Close()
	if !<-done {
		t.Error("Drain was not clean over two producers that ended in time")
	}
	if got := sw.wrote.Load(); got != 2 {
		t.Errorf("Drain returned with %d of 2 status replies written", got)
	}
	<-httpDone
	var tcpSt, httpSt SessionStatus
	if err := json.NewDecoder(conn).Decode(&tcpSt); err != nil {
		t.Fatalf("TCP producer's status: %v", err)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &httpSt); err != nil {
		t.Fatalf("HTTP producer's status %q: %v", rec.Body.Bytes(), err)
	}
	for _, st := range []SessionStatus{tcpSt, httpSt} {
		if st.Windows != n || st.Parity != "exact" || st.Error != "" {
			t.Errorf("status %+v, want %d windows, exact parity, no error", st, n)
		}
	}
}
