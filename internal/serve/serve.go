// Package serve is FlowPulse's detection-as-a-product layer: a
// long-running, stdlib-only service that ingests streamed .fpt frames
// from many concurrent producers (simulators, recorded traces, and —
// eventually — real fabric taps), runs the per-job detect → localize
// stack server-side on an allocation-free path, and exposes the
// results operationally: Prometheus-text metrics, a streaming NDJSON
// alert feed, and a rule engine routing alerts to sinks.
//
// The ingestion path is the same code that runs offline: each session
// runs on one goroutine, which decodes a frame with the internal/trace
// follow Reader into the session's one window record and feeds it to
// the session's trace.Replayer before it reads the next. Alerts fold
// into the same FNV-64a fingerprints the trace trailer pins — which is
// what makes the service verifiable: alerts raised on a streamed
// recording are fingerprint-identical to an offline replay of the same
// file.
package serve

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Config tunes a Server. The zero value works.
type Config struct {
	// Token, when non-empty, must be presented by every producer (TCP
	// preamble token=, HTTP Authorization: Bearer or X-FlowPulse-Token).
	Token string
	// Shards is ignored: every session decodes and detects on its own
	// goroutine. It is kept for callers that still set it.
	Shards int
	// Rules route alerts to sinks. Empty: one catch-all rule feeding
	// the /alerts stream.
	Rules []Rule
	// Logf receives operational log lines (nil: discarded). Sessions
	// call it concurrently, so it must be safe for concurrent use.
	Logf func(format string, args ...any)
}

// Server is one flowpulse-serve instance.
type Server struct {
	cfg Config

	mu        sync.Mutex
	sessions  map[uint64]*session
	listeners []net.Listener
	draining  bool

	nextSession atomic.Uint64
	sessWG      sync.WaitGroup

	met   metrics
	hub   *hub
	rules *ruleSet

	// windows/sec gauge state: delta since the previous scrape.
	rateMu   sync.Mutex
	rateAt   time.Time
	rateWins int64
}

// New builds a Server. Callers then attach listeners (ServeTCP /
// HTTPHandler) or feed streams directly (IngestStream), and finish
// with Drain.
func New(cfg Config) (*Server, error) {
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	rules, err := compileRules(cfg.Rules, cfg.Logf)
	if err != nil {
		return nil, err
	}
	return &Server{
		cfg:      cfg,
		sessions: map[uint64]*session{},
		hub:      newHub(),
		rules:    rules,
	}, nil
}

// ServeTCP accepts raw-stream producers on l until the listener closes
// (Drain closes it). Each connection runs on its own goroutine, and is
// a session once its preamble has been read.
func (s *Server) ServeTCP(l net.Listener) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		l.Close()
		return
	}
	s.listeners = append(s.listeners, l)
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		go s.handleConn(conn)
	}
}

// register installs a session for Drain to wait for and, at its
// deadline, abort; refused while draining. Every kind of session — TCP,
// HTTP, in-process — goes through it, and through unregister once its
// producer has its status reply.
func (s *Server) register(sess *session) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return fmt.Errorf("serve: draining, not accepting new streams")
	}
	s.sessions[sess.id] = sess
	s.sessWG.Add(1)
	s.met.sessionsTotal.Add(1)
	return nil
}

func (s *Server) unregister(sess *session) {
	s.mu.Lock()
	delete(s.sessions, sess.id)
	s.mu.Unlock()
	s.sessWG.Done()
}

// Drain stops the service gracefully: close listeners (no new
// streams) and wait up to timeout for in-flight sessions to finish,
// each with its status reply written. It returns false if sessions
// were still running at the deadline; their sources were then closed
// (see session.abort) and Drain waited for them to end. A connection
// still sending its preamble is not a session yet, and is not waited
// for.
func (s *Server) Drain(timeout time.Duration) bool {
	s.mu.Lock()
	s.draining = true
	ls := s.listeners
	s.listeners = nil
	s.mu.Unlock()
	for _, l := range ls {
		l.Close()
	}

	done := make(chan struct{})
	go func() { s.sessWG.Wait(); close(done) }()
	clean := true
	select {
	case <-done:
	case <-time.After(timeout):
		clean = false
		// Close the stragglers' sources so their goroutines end. Under
		// s.mu, every session closed here is still registered, so its
		// source is still its own (an HTTP body's ResponseWriter is not
		// used once the handler has returned).
		s.mu.Lock()
		for _, sess := range s.sessions {
			sess.abort()
		}
		s.mu.Unlock()
		<-done
	}

	s.hub.close()
	s.rules.close()
	s.cfg.Logf("serve: drained (clean=%v, sessions=%d, windows=%d, alerts=%d)",
		clean, s.met.sessionsTotal.Load(), s.met.windowsTotal.Load(), s.met.alertsTotal.Load())
	return clean
}
