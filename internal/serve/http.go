package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"time"
)

// HTTPHandler serves the operational surface:
//
//	GET  /healthz  — liveness ("ok", or "draining" with 503)
//	GET  /metrics  — Prometheus text exposition
//	GET  /alerts   — streaming NDJSON alert subscription
//	POST /ingest   — one .fpt stream as the (chunked) request body;
//	                 ?mode=seq|fanout picks the fingerprint the status
//	                 reports (see ModeSeq), ?label=...; auth via
//	                 Authorization: Bearer <token> or X-FlowPulse-Token
func (s *Server) HTTPHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/alerts", s.handleAlerts)
	mux.HandleFunc("/ingest", s.handleIngest)
	return mux
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write([]byte("ok\n"))
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.writeMetrics(w)
}

func (s *Server) handleAlerts(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	// Subscribed before the headers go out: a client that has its 200 is
	// on the stream, and sees every alert published from then on.
	ch, cancel := s.hub.subscribe(256)
	defer cancel()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	for {
		select {
		case line, ok := <-ch:
			if !ok {
				return // hub closed: drain
			}
			if _, err := w.Write(line); err != nil {
				return
			}
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) authorized(r *http.Request) bool {
	if s.cfg.Token == "" {
		return true
	}
	if tok, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer "); ok && tok == s.cfg.Token {
		return true
	}
	return r.Header.Get("X-FlowPulse-Token") == s.cfg.Token
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST a .fpt stream", http.StatusMethodNotAllowed)
		return
	}
	if !s.authorized(r) {
		s.met.authFailures.Add(1)
		http.Error(w, "bad token", http.StatusUnauthorized)
		return
	}
	sess, err := s.admit(smallReads{r.Body, w}, r.URL.Query().Get("mode"), r.URL.Query().Get("label"), "session")
	w.Header().Set("Content-Type", "application/json")
	if err != nil {
		w.WriteHeader(http.StatusBadRequest)
		json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
		return
	}
	defer s.unregister(sess)
	st, _ := sess.run()
	if st.Error != "" {
		w.WriteHeader(http.StatusUnprocessableEntity)
	}
	json.NewEncoder(w).Encode(st)
}

// smallReads caps each read of an HTTP body at 4 KiB. The trace.Reader
// grows its reads, up to 64 KiB, while a source fills them, and a
// chunked body of small windows always does: every HTTP session would
// hold a 64 KiB stash for its life. With small windows a 4 KiB read
// already carries dozens of frames, and the larger reads measured no
// faster.
type smallReads struct {
	r io.Reader
	w http.ResponseWriter
}

func (s smallReads) Read(p []byte) (int, error) { return s.r.Read(p[:min(len(p), 4<<10)]) }

// Close ends the pending body read by moving the connection's read
// deadline to now: closing the body itself would block behind that
// read.
func (s smallReads) Close() error {
	return http.NewResponseController(s.w).SetReadDeadline(time.Now())
}
