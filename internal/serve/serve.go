// Package serve is FlowPulse's detection-as-a-product layer: a
// long-running, stdlib-only service that ingests streamed .fpt frames
// from many concurrent producers (simulators, recorded traces, and —
// eventually — real fabric taps), runs the per-job detect → localize
// stack server-side on a sharded allocation-free path, and exposes the
// results operationally: Prometheus-text metrics, a streaming NDJSON
// alert feed, and a rule engine routing alerts to sinks.
//
// The ingestion path is the same code that runs offline: frames
// decode with the internal/trace follow Reader straight into
// ring-slot-owned storage, each session's shard feeds them to its
// trace.Replayer, and alerts fold into the same FNV-64a fingerprints
// the trace trailer pins — which is what makes the service verifiable:
// alerts raised on a streamed recording are fingerprint-identical to
// an offline replay of the same file.
package serve

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"flowpulse/internal/monitor"
	"flowpulse/internal/remediate"
)

// Config tunes a Server. The zero value works.
type Config struct {
	// Token, when non-empty, must be presented by every producer (TCP
	// preamble token=, HTTP Authorization: Bearer or X-FlowPulse-Token).
	Token string
	// Shards is the number of ingestion goroutines (0: 4).
	Shards int
	// RingSize is each session's SPSC ring capacity in records (0: 256).
	// A full ring stalls its producer — backpressure, not drops.
	RingSize int
	// Rules route alerts to sinks. Empty: one catch-all rule feeding
	// the /alerts stream.
	Rules []Rule
	// Logf receives operational log lines (nil: discarded).
	Logf func(format string, args ...any)
}

// shardQueue bounds each shard's bucket work queue.
const shardQueue = 1024

func (c *Config) defaults() {
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.RingSize <= 0 {
		c.RingSize = 256
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// Server is one flowpulse-serve instance.
type Server struct {
	cfg    Config
	shards []*shard
	wg     sync.WaitGroup // shard goroutines

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

// New builds and starts a Server's shard pool. Callers then attach
// listeners (ServeTCP / HTTPHandler) or feed streams directly
// (IngestStream), and finish with Drain.
func New(cfg Config) (*Server, error) {
	cfg.defaults()
	rules, err := compileRules(cfg.Rules, cfg.Logf)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:      cfg,
		sessions: map[uint64]*session{},
		hub:      newHub(),
		rules:    rules,
	}
	for i := 0; i < cfg.Shards; i++ {
		sh := newShard(i, shardQueue)
		s.shards = append(s.shards, sh)
		s.wg.Add(1)
		go sh.run(&s.wg)
	}
	return s, nil
}

// ServeTCP accepts raw-stream producers on l until the listener closes
// (Drain closes it). Each connection runs its own session goroutine.
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
		s.sessWG.Add(1)
		go func() {
			defer s.sessWG.Done()
			s.handleConn(conn)
		}()
	}
}

// register installs a session; refused while draining.
func (s *Server) register(sess *session) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return fmt.Errorf("serve: draining, not accepting new streams")
	}
	s.sessions[sess.id] = sess
	s.met.sessionsActive.Add(1)
	s.met.sessionsTotal.Add(1)
	return nil
}

func (s *Server) unregister(sess *session) {
	s.mu.Lock()
	delete(s.sessions, sess.id)
	s.mu.Unlock()
	s.met.sessionsActive.Add(-1)
}

// Drain stops the service gracefully: close listeners (no new
// streams), wait up to timeout for in-flight sessions to finish, then
// stop the shard pool — flushing every queued record — and report each
// finished session's trailer fingerprints through Logf. It returns
// false if sessions were still running at the deadline (their
// producers were cut off mid-stream).
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
		// Cut the stragglers' connections so their goroutines end.
		s.mu.Lock()
		for _, sess := range s.sessions {
			sess.abort()
		}
		s.mu.Unlock()
		<-done
	}

	for _, sh := range s.shards {
		sh.stop()
	}
	s.wg.Wait()
	s.hub.close()
	s.rules.close()
	s.cfg.Logf("serve: drained (clean=%v, sessions=%d, windows=%d, alerts=%d)",
		clean, s.met.sessionsTotal.Load(), s.met.windowsTotal.Load(), s.met.alertsTotal.Load())
	return clean
}

// publishEvent fans one server-side detection out: counters, rule
// sinks, alert stream. It runs synchronously on the shard goroutine —
// the verdict may reference ring-slot storage, so everything
// serializes before returning.
func (s *Server) publishEvent(sess *session, e *monitor.Event) {
	s.met.alertsTotal.Add(1)
	sess.events.Add(1)
	s.rules.dispatch(s.hub, sess.label, e)
}

// publishAction mirrors publishEvent for replayed remediation actions
// (sequential sessions only).
func (s *Server) publishAction(sess *session, a *remediate.Action) {
	s.met.actionsTotal.Add(1)
	sess.actions.Add(1)
	s.rules.dispatchAction(s.hub, sess.label, a)
}
