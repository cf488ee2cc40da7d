package serve

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// metrics are the service counters, all lock-free atomics so the hot
// path never serializes on observability.
type metrics struct {
	windowsTotal  atomic.Int64
	recordsTotal  atomic.Int64
	bytesTotal    atomic.Int64
	alertsTotal   atomic.Int64
	actionsTotal  atomic.Int64
	sessionsTotal atomic.Int64
	authFailures  atomic.Int64
}

// jobScores is one job's latest detector score per leaf, written by
// its session and read by /metrics scrapes.
type jobScores struct {
	job    uint16
	scored atomic.Bool     // set once any of the job's windows scored
	leaf   []atomic.Uint64 // math.Float64bits of each leaf's latest score
}

// deviation is the job's gauge value: the largest of its leaves'
// latest scores.
func (js *jobScores) deviation() float64 {
	d := 0.0
	for i := range js.leaf {
		d = max(d, math.Float64frombits(js.leaf[i].Load()))
	}
	return d
}

// writeMetrics renders the Prometheus text exposition: totals, a
// windows/sec rate, and per-(session, job) deviation gauges: the
// largest of the job's leaves' latest scores.
func (s *Server) writeMetrics(w io.Writer) {
	now := time.Now()
	s.rateMu.Lock()
	wins := s.met.windowsTotal.Load()
	rate := 0.0
	if !s.rateAt.IsZero() {
		if dt := now.Sub(s.rateAt).Seconds(); dt > 0 {
			rate = float64(wins-s.rateWins) / dt
		}
	}
	s.rateAt, s.rateWins = now, wins
	s.rateMu.Unlock()

	s.mu.Lock()
	sessions := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()

	fmt.Fprintf(w, "# TYPE flowpulse_windows_total counter\nflowpulse_windows_total %d\n", wins)
	fmt.Fprintf(w, "# TYPE flowpulse_records_total counter\nflowpulse_records_total %d\n", s.met.recordsTotal.Load())
	fmt.Fprintf(w, "# TYPE flowpulse_ingest_bytes_total counter\nflowpulse_ingest_bytes_total %d\n", s.met.bytesTotal.Load())
	fmt.Fprintf(w, "# TYPE flowpulse_alerts_total counter\nflowpulse_alerts_total %d\n", s.met.alertsTotal.Load())
	fmt.Fprintf(w, "# TYPE flowpulse_alerts_dropped_total counter\nflowpulse_alerts_dropped_total %d\n", s.hub.dropped.Load())
	fmt.Fprintf(w, "# TYPE flowpulse_actions_total counter\nflowpulse_actions_total %d\n", s.met.actionsTotal.Load())
	fmt.Fprintf(w, "# TYPE flowpulse_sessions_active gauge\nflowpulse_sessions_active %d\n", len(sessions))
	fmt.Fprintf(w, "# TYPE flowpulse_sessions_total counter\nflowpulse_sessions_total %d\n", s.met.sessionsTotal.Load())
	fmt.Fprintf(w, "# TYPE flowpulse_auth_failures_total counter\nflowpulse_auth_failures_total %d\n", s.met.authFailures.Load())
	fmt.Fprintf(w, "# TYPE flowpulse_windows_per_second gauge\nflowpulse_windows_per_second %g\n", rate)

	// Deviation gauges walk the live sessions, listed above; scrapes are
	// rare, so the registry lock is off the hot path, and each session's
	// gauge inputs read lock-free once published.
	type devKey struct {
		label string
		job   uint16
	}
	devs := map[devKey]float64{}
	for _, sess := range sessions {
		dev := sess.dev.Load()
		if dev == nil {
			continue
		}
		for i := range *dev {
			if js := &(*dev)[i]; js.scored.Load() {
				k := devKey{sess.label, js.job}
				devs[k] = max(devs[k], js.deviation())
			}
		}
	}
	keys := make([]devKey, 0, len(devs))
	for k := range devs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].label != keys[j].label {
			return keys[i].label < keys[j].label
		}
		return keys[i].job < keys[j].job
	})
	fmt.Fprintf(w, "# TYPE flowpulse_deviation gauge\n")
	for _, k := range keys {
		fmt.Fprintf(w, "flowpulse_deviation{session=%q,job=\"%d\"} %g\n", k.label, k.job, devs[k])
	}
}
