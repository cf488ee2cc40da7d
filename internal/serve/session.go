package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"

	"flowpulse/internal/trace"
)

// Stream modes: what a session's status reports. Either way the
// session feeds every record but the trailer, in stream order, to one
// trace.Replayer, which re-derives both fingerprints. Sequential
// reports the global alert/action fingerprint, bit-identical to
// offline replay and to the trailer. Fanout reports the per-(job,
// leaf) BucketFingerprint: the order-insensitive sum a consumer that
// keeps only each (job, leaf) substream's order would produce, which
// offline replay exposes too. Remediated recordings force sequential:
// their fingerprint folds in the probe loop's actions, which no
// per-(job, leaf) sum carries.
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

// session is one producer's stream through the service.
type session struct {
	srv   *Server
	id    uint64
	label string
	mode  string

	src  io.Reader
	conn net.Conn // nil for HTTP/in-process streams
	rd   *trace.Reader

	// bucket is built when the header decodes and published only once
	// whole, so a /metrics scrape never sees one half-built.
	bucket  atomic.Pointer[bucket]
	trailer *trace.Trailer // kept for the status line
	events  atomic.Int64
	actions atomic.Int64

	// The windows and records since the last flush, not yet on the
	// service counters.
	windows, records int64

	// failed is set once err is: the read loop checks it per record
	// without taking errMu.
	errMu  sync.Mutex
	err    error
	failed atomic.Bool
}

// poison records the first fatal processing error (shard side or
// session side); the read loop notices and aborts the stream.
func (s *session) poison(err error) {
	s.errMu.Lock()
	if s.err == nil {
		s.err = err
		s.failed.Store(true)
	}
	s.errMu.Unlock()
}

func (s *session) poisoned() error {
	if !s.failed.Load() {
		return nil
	}
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.err
}

// abort cuts the producer's connection (drain deadline).
func (s *session) abort() {
	if s.conn != nil {
		s.conn.Close()
	}
}

// IngestStream runs one producer stream to completion: decode frames
// from src, hand the records to the session's shard, wait for it to
// finish, and return the session's status. mode is ModeSeq or
// ModeFanout ("" defaults to ModeSeq); label names the session in
// alerts and logs. It blocks until the stream ends — callers own the
// goroutine.
func (s *Server) IngestStream(src io.Reader, mode, label string) (*SessionStatus, error) {
	return s.ingest(src, nil, mode, label)
}

// ingest is the one session setup: validate the mode, default the
// label, register for the session's lifetime, run the read loop. conn
// is the producer's TCP connection (nil for HTTP/in-process streams).
func (s *Server) ingest(src io.Reader, conn net.Conn, mode, label string) (*SessionStatus, error) {
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
		conn:  conn,
	}
	if sess.label == "" {
		sess.label = fmt.Sprintf("session-%d", sess.id)
		if conn != nil {
			sess.label = fmt.Sprintf("%s-%d", conn.RemoteAddr(), sess.id)
		}
	}
	if err := s.register(sess); err != nil {
		return nil, err
	}
	defer s.unregister(sess)
	return sess.run()
}

// run is the session read loop: the producer's goroutine decodes
// frames and pushes records onto the bucket's ring; the shard does the
// rest. Records are published in batches, at the two points where the
// loop could otherwise sit on them: before a read that can block on
// the source, and before waiting on a full ring.
func (s *session) run() (*SessionStatus, error) {
	s.rd = trace.NewFollowReader(&countingReader{r: s.src, n: &s.srv.met.bytesTotal})

	var reserved *entry
	slot := func(uint16, int) *trace.WindowRecord {
		if err := s.open(); err != nil {
			s.poison(err)
			return nil // decode into a throwaway record; loop aborts next
		}
		reserved = s.reserve()
		return &reserved.win
	}

	var streamErr error
	for {
		if err := s.poisoned(); err != nil {
			streamErr = err
			break
		}
		if !s.rd.HasFrame() {
			s.flush() // the next record needs a read, which may block
		}
		reserved = nil
		rec, err := s.rd.NextInto(slot)
		if err == io.EOF {
			break
		}
		if err == trace.ErrAwaitMore {
			// The source ended mid-frame: a producer died. Everything
			// decoded so far stands; report the tear.
			streamErr = fmt.Errorf("serve: stream ended mid-frame (%d bytes torn)", s.rd.Buffered())
			break
		}
		if err == nil {
			err = s.open()
		}
		if err != nil {
			streamErr = err
			break
		}
		switch {
		case rec.Kind == trace.KindTrailer:
			s.trailer = rec.Trailer
		case rec.Kind != trace.KindWindow:
			// Non-window payloads are freshly allocated by the decoder,
			// so publishing the Record copy is safe.
			s.reserve().rec = rec
			s.push()
		case reserved != nil:
			// The window decoded straight into the reserved ring slot.
			reserved.rec = rec
			s.push()
			s.windows++
		}
		// A window without a slot was refused (poisoned): dropped, and
		// the loop aborts next.
		s.records++
	}

	s.flush()
	s.quiesce()
	st := s.status(streamErr)
	if streamErr == nil {
		if err := s.poisoned(); err != nil {
			streamErr = err
			st.Error = err.Error()
		}
	}
	s.srv.cfg.Logf("serve: %s done: mode=%s windows=%d events=%d actions=%d fp=%016x parity=%s err=%q",
		s.label, st.Mode, st.Windows, st.Events, st.Actions, st.Fingerprint, st.Parity, st.Error)
	return st, streamErr
}

// open runs once the follow reader has decoded the stream header:
// settle the effective mode — remediated recordings force sequential
// (see the mode docs) — and build the session's bucket. The first
// window's slot callback fires mid-decode, before the read loop sees
// the record, so the callback opens too; the reader guarantees the
// header is decoded before any record.
func (s *session) open() error {
	if s.bucket.Load() != nil {
		return nil
	}
	hdr := s.rd.Header()
	if hdr.Remediate != nil && s.mode == ModeFanout {
		s.srv.cfg.Logf("serve: %s: remediated recording, forcing sequential mode", s.label)
		s.mode = ModeSeq
	}
	b, err := newBucket(s, hdr, s.rd.Topo())
	if err != nil {
		return err
	}
	s.bucket.Store(b)
	return nil
}

// reserve returns the ring's next slot, publishing the batch first
// when the ring is full: the shard frees only slots it has been shown.
func (s *session) reserve() *entry {
	r := s.bucket.Load().ring
	if r.full() {
		s.flush()
	}
	return r.reserve()
}

// push commits the reserved slot to the current batch.
func (s *session) push() {
	b := s.bucket.Load()
	b.ring.push()
	b.marked = true
}

// flush ends the batch: one publish and at most one shard wake-up,
// one add per service counter.
func (s *session) flush() {
	if b := s.bucket.Load(); b != nil && b.marked {
		b.marked = false
		b.ring.publish()
		b.shard.enqueue(b)
	}
	if s.records > 0 {
		s.srv.met.windowsTotal.Add(s.windows)
		s.srv.met.recordsTotal.Add(s.records)
		s.windows, s.records = 0, 0
	}
}

// quiesce waits until every record this session published has been
// consumed by its shard. Producers have stopped, so depth only falls.
// The shard signals space after every batch, and after clearing queued,
// so each wake-up re-checks the bucket's state; the atomic head read
// gives the happens-before edge that makes the shard-side state
// (fingerprints, counters) safe to read after.
func (s *session) quiesce() {
	b := s.bucket.Load()
	if b == nil {
		return
	}
	for b.ring.depth() > 0 || b.queued.Load() != 0 {
		<-b.ring.space
	}
}

// status seals the session outcome after quiesce.
func (s *session) status(streamErr error) *SessionStatus {
	st := &SessionStatus{
		Session: s.label,
		Mode:    s.mode,
		Events:  s.events.Load(),
		Actions: s.actions.Load(),
	}
	if streamErr != nil {
		st.Error = streamErr.Error()
	}
	res := &trace.ReplayResult{} // no header decoded: nothing replayed
	if b := s.bucket.Load(); b != nil {
		res = b.rp.Result()
	}
	st.Windows = int64(res.Windows)
	if s.trailer != nil {
		st.TrailerFingerprint = s.trailer.Fingerprint
	}
	switch {
	case s.mode == ModeFanout:
		st.Fingerprint, st.Parity = res.BucketFingerprint, "bucket"
	case s.trailer == nil:
		st.Fingerprint, st.Parity = res.Fingerprint, "none"
	case res.Fingerprint == s.trailer.Fingerprint:
		st.Fingerprint, st.Parity = res.Fingerprint, "exact"
	default:
		st.Fingerprint, st.Parity = res.Fingerprint, "mismatch"
	}
	return st
}

// handleConn speaks the TCP producer protocol: one preamble line
//
//	FPS1 token=<tok> mode=<seq|fanout> label=<name>\n
//
// then raw .fpt bytes until the producer half-closes; the server
// replies with one JSON SessionStatus line and closes. A preamble that
// does not end within the read buffer is refused.
func (s *Server) handleConn(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReaderSize(conn, 4096)
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
	st, err := s.ingest(br, conn, mode, label)
	if err != nil && st == nil {
		fmt.Fprintf(conn, `{"error":%q}`+"\n", err.Error())
		return
	}
	json.NewEncoder(conn).Encode(st)
}

// countingReader tracks ingested byte volume for /metrics.
type countingReader struct {
	r io.Reader
	n *atomic.Int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	k, err := c.r.Read(p)
	c.n.Add(int64(k))
	return k, err
}
