package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"flowpulse/internal/monitor"
	"flowpulse/internal/predict"
	"flowpulse/internal/remediate"
	"flowpulse/internal/sim"
	"flowpulse/internal/telemetry"
	"flowpulse/internal/topology"
)

// Writer streams a trace. It is attached to a live run by core
// (AttachOptions.TracePath / Trace): Begin writes the header, then the
// monitor and remediator hooks feed it windows, events, actions and
// probe rounds, and Finish seals the trailer. Errors are sticky — the
// hot path never returns them; check Err (or Finish) once at the end.
//
// Steady-state recording is allocation-free: one reusable payload
// buffer, per-(job, leaf) prediction caches built on first sight of
// each leaf, and a bufio.Writer in front of the sink.
type Writer struct {
	w   *bufio.Writer
	f   *os.File // owned when opened via Create
	e   enc
	err error

	began    bool
	finished bool

	lastTime sim.Time
	caches   map[uint64]*predCache
	fp       fpState
	t        Trailer

	scratch [binary.MaxVarintLen64]byte
}

// Create opens path (truncating) and returns a Writer that owns the
// file; Finish closes it.
func Create(path string) (*Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	w := NewWriter(f)
	w.f = f
	return w, nil
}

// NewWriter returns a Writer streaming to sink. The caller owns sink;
// Finish flushes but does not close it.
func NewWriter(sink io.Writer) *Writer {
	return &Writer{
		w:      bufio.NewWriterSize(sink, 1<<16),
		caches: make(map[uint64]*predCache),
		fp:     newFP(),
	}
}

// Begin writes the magic and header. It must be called exactly once,
// before any other record; core calls it from Attach.
func (w *Writer) Begin(h Header) error {
	if w.err != nil {
		return w.err
	}
	if w.began {
		w.err = fmt.Errorf("trace: Begin called twice")
		return w.err
	}
	w.began = true
	h.FormatVersion = Version
	if _, err := w.w.Write(Magic[:]); err != nil {
		w.err = fmt.Errorf("trace: %w", err)
		return w.err
	}
	w.e.reset()
	encodeHeader(&w.e, &h)
	w.frame()
	return w.err
}

// frame emits the reusable payload buffer as one framed record:
// uvarint(len) ‖ payload ‖ CRC32C(payload).
func (w *Writer) frame() {
	if w.err != nil {
		return
	}
	n := binary.PutUvarint(w.scratch[:], uint64(len(w.e.b)))
	if _, err := w.w.Write(w.scratch[:n]); err != nil {
		w.err = fmt.Errorf("trace: %w", err)
		return
	}
	if _, err := w.w.Write(w.e.b); err != nil {
		w.err = fmt.Errorf("trace: %w", err)
		return
	}
	binary.LittleEndian.PutUint32(w.scratch[:4], crc32.Checksum(w.e.b, castagnoli))
	if _, err := w.w.Write(w.scratch[:4]); err != nil {
		w.err = fmt.Errorf("trace: %w", err)
	}
}

func (w *Writer) recordable() bool {
	if w.err != nil || w.finished {
		return false
	}
	if !w.began {
		w.err = fmt.Errorf("trace: record before Begin")
		return false
	}
	return true
}

func (w *Writer) cache(job uint16, leafOrd int) *predCache {
	k := cacheKey(job, leafOrd)
	c := w.caches[k]
	if c == nil {
		c = &predCache{}
		w.caches[k] = c
	}
	return c
}

// WindowOf records win with the prediction pred holds for it right
// now — the same snapshot the online detector just consumed
// (iteration-aligned when pred is an IterPredictor). This is the
// monitor-hook entry point.
func (w *Writer) WindowOf(pred predict.Predictor, win *telemetry.Window) {
	ready := pred != nil && pred.Ready(win.LeafOrdinal)
	var port []float64
	var sender [][]float64
	if ready {
		port = pred.PortLoad(win.LeafOrdinal)
		sender = pred.SenderLoad(win.LeafOrdinal)
		if ip, ok := pred.(predict.IterPredictor); ok {
			port = ip.PortLoadAt(win.LeafOrdinal, win.Iter)
			sender = ip.SenderLoadAt(win.LeafOrdinal, win.Iter)
		}
	}
	w.Window(win, ready, port, sender)
}

// Window records one closed measurement window plus its live
// prediction (port and sender are ignored unless ready).
func (w *Writer) Window(win *telemetry.Window, ready bool, port []float64, sender [][]float64) {
	if !w.recordable() {
		return
	}
	e := &w.e
	e.reset()
	e.kind(KindWindow)
	e.u(uint64(win.Job))
	e.u(uint64(win.LeafOrdinal))
	e.u(uint64(win.Iter))
	e.i(int64(win.ClosedAt) - int64(w.lastTime))
	e.i(int64(win.OpenedAt) - int64(win.ClosedAt))
	w.lastTime = win.ClosedAt
	e.i(win.Packets)

	e.u(uint64(len(win.PortBytes)))
	var prev int64
	for _, b := range win.PortBytes {
		e.i(b - prev)
		prev = b
	}

	// AggPortBytes: under single-job monitoring it equals PortBytes
	// (mode 0, one byte); under a shared plane it differs per element
	// (mode 1, small deltas); mode 2 = absent, mode 3 = explicit.
	switch {
	case win.AggPortBytes == nil:
		e.kind(aggAbsent)
	case int64sEqual(win.AggPortBytes, win.PortBytes):
		e.kind(aggSame)
	case len(win.AggPortBytes) == len(win.PortBytes):
		e.kind(aggDelta)
		for i, b := range win.AggPortBytes {
			e.i(b - win.PortBytes[i])
		}
	default:
		e.kind(aggExplicit)
		e.u(uint64(len(win.AggPortBytes)))
		prev = 0
		for _, b := range win.AggPortBytes {
			e.i(b - prev)
			prev = b
		}
	}

	e.u(uint64(len(win.SenderBytes)))
	nSender := 0
	for _, row := range win.SenderBytes {
		e.u(uint64(len(row)))
		prev = 0
		for _, b := range row {
			e.i(b - prev)
			prev = b
		}
		nSender += len(row)
	}

	e.bit(ready)
	if ready {
		c := w.cache(win.Job, win.LeafOrdinal)
		nPred := 0
		for _, row := range sender {
			nPred += len(row)
		}
		c.size(len(port), nPred)
		e.u(uint64(len(port)))
		for i, v := range port {
			e.u(math.Float64bits(v) ^ math.Float64bits(c.port[i]))
			c.port[i] = v
		}
		// The flattened sender-prediction count precedes the rows so a
		// reader can (re)size its XOR cache before decoding them.
		e.u(uint64(nPred))
		e.u(uint64(len(sender)))
		k := 0
		for _, row := range sender {
			e.u(uint64(len(row)))
			for _, v := range row {
				e.u(math.Float64bits(v) ^ math.Float64bits(c.sender[k]))
				c.sender[k] = v
				k++
			}
		}
	}
	e.i(win.CEBytes)
	w.frame()
	w.t.Windows++
}

// Event records one localized detection and folds it into the stream
// fingerprint.
func (w *Writer) Event(ev monitor.Event) {
	if !w.recordable() {
		return
	}
	fpEvent(&w.fp, &ev)
	w.e.reset()
	encodeEvent(&w.e, &ev, w.lastTime)
	w.lastTime = ev.Alert.At
	w.frame()
	w.t.Events++
}

// Action records one remediation action and folds it into the stream
// fingerprint. Workload-level actions (re-plan/restore) are recorded
// for the operator timeline but kept OUT of the fingerprint: offline
// replay re-derives the fabric control loop from the windows, not the
// workload loop, so fingerprinting them would make every resilient
// run fail verification against its own trace.
func (w *Writer) Action(a remediate.Action) {
	if !w.recordable() {
		return
	}
	if !a.Kind.Workload() {
		fpAction(&w.fp, &a)
	}
	w.e.reset()
	encodeAction(&w.e, &a, w.lastTime)
	w.lastTime = a.At
	w.frame()
	w.t.Actions++
}

// ProbeRound records one completed OAM probe round.
func (w *Writer) ProbeRound(at sim.Time, link topology.LinkID, sent, lost int) {
	if !w.recordable() {
		return
	}
	p := ProbeRecord{At: at, Link: link, Sent: sent, Lost: lost}
	w.e.reset()
	encodeProbe(&w.e, &p, w.lastTime)
	w.lastTime = at
	w.frame()
	w.t.ProbeRounds++
}

// Fault records one ground-truth fault injection (or heal).
func (w *Writer) Fault(f FaultRecord) {
	if !w.recordable() {
		return
	}
	w.e.reset()
	encodeFault(&w.e, &f, w.lastTime)
	w.lastTime = f.At
	w.frame()
	w.t.Faults++
}

// Fingerprint returns the FNV-64a sum over all events and actions
// recorded so far — the replay-equivalence reference the trailer pins.
func (w *Writer) Fingerprint() uint64 { return w.fp.h }

// Err returns the first error the Writer hit, if any.
func (w *Writer) Err() error { return w.err }

// Finish writes the trailer, flushes, and (for Create'd writers)
// closes the file. Idempotent; returns the first error of the whole
// recording.
func (w *Writer) Finish(now sim.Time) error {
	if w.finished {
		return w.err
	}
	w.finished = true
	if w.err == nil && !w.began {
		w.err = fmt.Errorf("trace: Finish before Begin")
	}
	if w.err == nil {
		w.t.EndTime = now
		w.t.Fingerprint = w.fp.h
		w.e.reset()
		encodeTrailer(&w.e, &w.t, w.lastTime)
		w.frame()
	}
	if err := w.w.Flush(); err != nil && w.err == nil {
		w.err = fmt.Errorf("trace: %w", err)
	}
	if w.f != nil {
		if err := w.f.Close(); err != nil && w.err == nil {
			w.err = fmt.Errorf("trace: %w", err)
		}
	}
	return w.err
}

// Agg modes of a window record.
const (
	aggSame     byte = 0 // AggPortBytes == PortBytes
	aggDelta    byte = 1 // same length, per-element delta vs PortBytes
	aggAbsent   byte = 2 // nil
	aggExplicit byte = 3 // own length, consecutive-delta encoded
)

func int64sEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
