package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"strings"
	"sync/atomic"
	"time"

	"flowpulse/internal/monitor"
	"flowpulse/internal/remediate"
	"flowpulse/internal/trace"
)

// Stream modes: what a session's status reports. Either way the
// session feeds every record, in stream order, to one trace.Replayer,
// which re-derives both fingerprints. Sequential reports the global
// alert/action fingerprint, bit-identical to offline replay and to the
// trailer. Fanout reports the per-(job, leaf) BucketFingerprint: the
// order-insensitive sum a consumer that keeps only each (job, leaf)
// substream's order would produce, which offline replay exposes too.
// Remediated recordings force sequential: their fingerprint folds in
// the probe loop's actions, which no per-(job, leaf) sum carries.
const (
	ModeSeq    = "seq"
	ModeFanout = "fanout"
)

// SessionStatus is the JSON status a producer receives when its
// stream ends.
type SessionStatus struct {
	Session string `json:"session"`
	Mode    string `json:"mode"`
	Windows int64  `json:"windows"`
	Events  int64  `json:"events"`
	Actions int64  `json:"actions"`
	// Fingerprint is the service-side alert/action stream fingerprint:
	// the global FNV-64a sum in sequential mode, the XOR-combined
	// per-(job, leaf) sum in fanout mode.
	Fingerprint uint64 `json:"fingerprint"`
	// TrailerFingerprint echoes the recording's own trailer (0 if the
	// stream ended without one); Parity reports the comparison:
	// "exact" (sequential, matched), "mismatch" (sequential, diverged),
	// "bucket" (fanout: compare against offline replay's
	// BucketFingerprint), or "none" (no trailer streamed).
	TrailerFingerprint uint64 `json:"trailer_fingerprint"`
	Parity             string `json:"parity"`
	Error              string `json:"error,omitempty"`
}

// session is one producer's stream through the service. One goroutine
// owns it: the one that decodes its frames also runs its detection.
type session struct {
	srv   *Server
	id    uint64
	label string
	mode  string

	src io.Reader
	rd  *trace.Reader
	rp  *trace.Replayer    // built when the header decodes
	win trace.WindowRecord // every window decodes into it

	// dev holds the deviation gauge's inputs, one entry per header job,
	// published only once whole, so a /metrics scrape never sees it
	// half-built.
	dev atomic.Pointer[[]jobScores]

	// The windows and records fed since the last flush, not yet on the
	// service counters.
	windows, records int64
}

// abort ends the session's next or pending read at the drain deadline
// by closing its source, if the source is an io.Closer.
func (s *session) abort() {
	if c, ok := s.src.(io.Closer); ok {
		c.Close()
	}
}

// IngestStream runs one producer stream to completion: decode frames
// from src, feed each record to the session's replayer, and return the
// session's status. mode is ModeSeq or ModeFanout ("" defaults to
// ModeSeq); label names the session in alerts and logs. It blocks
// until the stream ends — callers own the goroutine. Drain waits for
// the session, and closes src at its deadline if src is an io.Closer.
func (s *Server) IngestStream(src io.Reader, mode, label string) (*SessionStatus, error) {
	sess, err := s.admit(src, mode, label, "session")
	if err != nil {
		return nil, err
	}
	defer s.unregister(sess)
	return sess.run()
}

// admit is the one session setup: validate the mode, default the label
// to "<origin>-<id>" (origin is formatted only then), and register the
// session. The caller unregisters it once the producer has its reply,
// so Drain waits for the reply too.
func (s *Server) admit(src io.Reader, mode, label string, origin any) (*session, error) {
	if mode == "" {
		mode = ModeSeq
	}
	if mode != ModeSeq && mode != ModeFanout {
		return nil, fmt.Errorf("serve: unknown mode %q", mode)
	}
	sess := &session{
		srv:   s,
		id:    s.nextSession.Add(1),
		label: label,
		mode:  mode,
		src:   src,
	}
	if sess.label == "" {
		sess.label = fmt.Sprintf("%v-%d", origin, sess.id)
	}
	if err := s.register(sess); err != nil {
		return nil, err
	}
	return sess, nil
}

// run is the session loop: decode a record, feed it to the session's
// replayer, read the next. A session busy detecting is not reading, so
// its producer's flow control is the backpressure.
func (s *session) run() (*SessionStatus, error) {
	s.rd = trace.NewFollowReader(countingReader{s})
	slot := func(uint16, int) *trace.WindowRecord { return &s.win }
	var streamErr error
	for {
		rec, err := s.rd.NextInto(slot)
		if err == io.EOF {
			break
		}
		if err == trace.ErrAwaitMore {
			// The source ended mid-frame: a producer died. Everything
			// decoded so far stands; report the tear.
			err = fmt.Errorf("serve: stream ended mid-frame (%d bytes torn)", s.rd.Buffered())
		}
		if err == nil {
			err = s.open()
		}
		if err == nil {
			err = s.rp.Feed(&rec)
		}
		if err != nil {
			streamErr = err
			break
		}
		if rec.Kind == trace.KindWindow {
			s.windows++
		}
		s.records++
	}

	s.flush()
	st := s.status(streamErr)
	s.srv.cfg.Logf("serve: %s done: mode=%s windows=%d events=%d actions=%d fp=%016x parity=%s err=%q",
		s.label, st.Mode, st.Windows, st.Events, st.Actions, st.Fingerprint, st.Parity, st.Error)
	return st, streamErr
}

// open runs once the follow reader has decoded the stream header:
// settle the effective mode — remediated recordings force sequential
// (see the mode docs) — and build the session's replayer, its alert
// routing and its deviation gauge.
func (s *session) open() error {
	if s.rp != nil {
		return nil
	}
	hdr := s.rd.Header()
	if hdr.Remediate != nil && s.mode == ModeFanout {
		s.srv.cfg.Logf("serve: %s: remediated recording, forcing sequential mode", s.label)
		s.mode = ModeSeq
	}
	rp, err := trace.NewReplayer(hdr, s.rd.Topo(), trace.ReplayOptions{NoHistory: true})
	if err != nil {
		return err
	}
	rp.OnEvent = func(e monitor.Event) {
		s.srv.met.alertsTotal.Add(1)
		s.srv.rules.dispatch(s.srv.hub, s.label, &e)
	}
	rp.OnAction = func(a remediate.Action) {
		s.srv.met.actionsTotal.Add(1)
		s.srv.rules.dispatchAction(s.srv.hub, s.label, &a)
	}
	dev := make([]jobScores, len(hdr.Jobs))
	for i := range dev {
		dev[i].job = hdr.Jobs[i].Job
		dev[i].leaf = make([]atomic.Uint64, len(s.rd.Topo().Leaves()))
	}
	rp.OnWindow = func(ws monitor.WindowScore) {
		if !ws.Scored {
			return
		}
		job := hdr.PipelineJob(ws.Window.Job)
		for i := range dev {
			if js := &dev[i]; js.job == job {
				js.leaf[ws.Window.LeafOrdinal].Store(math.Float64bits(ws.Score))
				if !js.scored.Load() {
					js.scored.Store(true)
				}
				return
			}
		}
	}
	s.rp = rp
	s.dev.Store(&dev)
	return nil
}

// flush moves the session's pending counts onto the service counters,
// one add each.
func (s *session) flush() {
	if s.records > 0 {
		s.srv.met.windowsTotal.Add(s.windows)
		s.srv.met.recordsTotal.Add(s.records)
		s.windows, s.records = 0, 0
	}
}

// status seals the session outcome once the loop has ended.
func (s *session) status(streamErr error) *SessionStatus {
	res := &trace.ReplayResult{} // no header decoded: nothing replayed
	if s.rp != nil {
		res = s.rp.Result()
	}
	st := &SessionStatus{
		Session: s.label,
		Mode:    s.mode,
		Windows: int64(res.Windows),
		Events:  int64(res.EventCount),
		Actions: int64(res.ActionCount),
	}
	if streamErr != nil {
		st.Error = streamErr.Error()
	}
	if res.Trailer != nil {
		st.TrailerFingerprint = res.Trailer.Fingerprint
	}
	switch {
	case s.mode == ModeFanout:
		st.Fingerprint, st.Parity = res.BucketFingerprint, "bucket"
	case res.Trailer == nil:
		st.Fingerprint, st.Parity = res.Fingerprint, "none"
	case res.Fingerprint == res.Trailer.Fingerprint:
		st.Fingerprint, st.Parity = res.Fingerprint, "exact"
	default:
		st.Fingerprint, st.Parity = res.Fingerprint, "mismatch"
	}
	return st
}

// preambleTimeout bounds how long a TCP producer may take to send its
// preamble line, as an HTTP client's request headers are bounded.
const preambleTimeout = 10 * time.Second

// handleConn speaks the TCP producer protocol: one preamble line
//
//	FPS1 token=<tok> mode=<seq|fanout> label=<name>\n
//
// then raw .fpt bytes until the producer half-closes; the server
// replies with one JSON SessionStatus line and closes. A preamble that
// does not end within the read buffer is refused; one that takes
// longer than preambleTimeout ends the connection.
func (s *Server) handleConn(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReaderSize(conn, 4096)
	conn.SetReadDeadline(time.Now().Add(preambleTimeout))
	line, err := br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		fmt.Fprintf(conn, `{"error":"preamble too long"}`+"\n")
		return
	}
	if err != nil {
		return
	}
	fields := strings.Fields(string(line))
	if len(fields) == 0 || fields[0] != "FPS1" {
		fmt.Fprintf(conn, `{"error":"bad preamble (want FPS1)"}`+"\n")
		return
	}
	var token, mode, label string
	for _, f := range fields[1:] {
		k, v, _ := strings.Cut(f, "=")
		switch k {
		case "token":
			token = v
		case "mode":
			mode = v
		case "label":
			label = v
		}
	}
	if s.cfg.Token != "" && token != s.cfg.Token {
		s.met.authFailures.Add(1)
		fmt.Fprintf(conn, `{"error":"bad token"}`+"\n")
		return
	}
	conn.SetReadDeadline(time.Time{})
	sess, err := s.admit(struct {
		io.Reader
		io.Closer
	}{br, conn}, mode, label, conn.RemoteAddr())
	if err != nil {
		fmt.Fprintf(conn, `{"error":%q}`+"\n", err.Error())
		return
	}
	defer s.unregister(sess)
	st, _ := sess.run()
	json.NewEncoder(conn).Encode(st)
}

// countingReader is a session's source as its trace.Reader sees it.
// Each read may block, so it first flushes the session's counts —
// nothing the session has fed waits uncounted behind a quiet producer —
// then counts the bytes read for /metrics.
type countingReader struct{ s *session }

func (c countingReader) Read(p []byte) (int, error) {
	c.s.flush()
	k, err := c.s.src.Read(p)
	c.s.srv.met.bytesTotal.Add(int64(k))
	return k, err
}
