package telemetry

import (
	"sort"

	"flowpulse/internal/sim"
)

// demux is the per-job window state shared by the leaf and spine
// monitor programs. §5.1's window-close rule — "the first packet of
// iteration k+1 closes window k" — is a per-job statement: each
// training job has its own iteration clock, so a monitor observing
// several jobs (JobAny on a shared fabric) must keep one open window
// per job id. A single shared window would let job B's packets close
// job A's window mid-iteration and make the cross-job Iter comparison
// (and therefore LateBytes) meaningless.
type demux struct {
	open map[uint16]*Window
	// cur caches the window of the most recent packet's job: collective
	// traffic is bursty per job, so nearly every packet hits this
	// pointer compare instead of the map.
	cur *Window
}

func newDemux() demux {
	return demux{open: map[uint16]*Window{}}
}

// lookup returns the open window for a job, or nil.
func (d *demux) lookup(job uint16) *Window {
	if d.cur != nil && d.cur.Job == job {
		return d.cur
	}
	w := d.open[job]
	if w != nil {
		d.cur = w
	}
	return w
}

// put registers a freshly opened window.
func (d *demux) put(w *Window) {
	d.open[w.Job] = w
	d.cur = w
}

// take removes and returns a job's open window (nil if none).
func (d *demux) take(job uint16) *Window {
	w := d.open[job]
	if w == nil {
		return nil
	}
	delete(d.open, job)
	if d.cur == w {
		d.cur = nil
	}
	return w
}

// jobs returns the open-window job ids in ascending order — the
// deterministic flush order.
func (d *demux) jobs() []uint16 {
	out := make([]uint16, 0, len(d.open))
	for job := range d.open {
		out = append(out, job)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// flush closes every open window in ascending job order.
func (d *demux) flush(now sim.Time, closeJob func(now sim.Time, job uint16)) {
	for _, job := range d.jobs() {
		closeJob(now, job)
	}
}
