package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"flowpulse/internal/sim"
	"flowpulse/internal/topology"
)

// ErrAwaitMore reports a torn tail frame on a follow-mode Reader: the
// source ran out of bytes in the middle of a frame (or before the
// header completed). A short read is not corruption — the Reader keeps
// every byte it has staged, and the same call can be retried once more
// bytes arrive (a growing file re-read past EOF, a reconnected pipe).
// Non-follow Readers keep the historical behavior and report a torn
// tail as a truncation error.
var ErrAwaitMore = errors.New("trace: stream ends mid-frame (awaiting more bytes)")

// Reader decodes a trace stream record by record. It validates the
// magic and header up front, rebuilds the recorded topology (so link
// and switch IDs in decoded records resolve exactly as they did
// online), verifies every frame's CRC, and skips record kinds newer
// than it knows (the frame length makes any record skippable).
//
// A Reader built with NewFollowReader additionally tolerates torn
// tail frames: when the source ends mid-frame, Next returns
// ErrAwaitMore instead of a truncation error, and decoding resumes
// exactly where it stopped once the source yields more bytes.
type Reader struct {
	src    io.Reader
	follow bool
	err    error // sticky: corruption, not torn tails

	hdr  *Header
	topo *topology.Topology

	// Framing state: stash[off:] holds bytes read from src but not yet
	// consumed (the prefix is dead space reclaimed before the next
	// refill); pending is the finished frame (length prefix + payload
	// + CRC) still occupying the stash front, consumed lazily so the
	// returned payload stays valid while the caller decodes it.
	stash     []byte
	off       int
	pending   int
	magicDone bool
	// chunk is the next read's minimum request: minRead, doubled up to
	// maxRead each time the source fills a request completely.
	chunk int

	lastTime sim.Time
	caches   map[uint64]*predCache
	scratch  Record
}

// NewReader wraps r, reads the magic and header, and rebuilds the
// recorded topology. The source must already hold a complete header;
// use NewFollowReader to decode a stream that is still being written.
func NewReader(r io.Reader) (*Reader, error) {
	rd := &Reader{src: r, chunk: minRead, caches: make(map[uint64]*predCache)}
	if err := rd.ensureHeader(); err != nil {
		return nil, err
	}
	return rd, nil
}

// NewFollowReader wraps a source that may not yet hold a complete
// trace: the magic and header are decoded lazily by the first Next
// call that finds them complete, and any read that runs out of bytes
// mid-frame returns ErrAwaitMore instead of failing. Callers retry
// after the source grows (os.File reads return fresh bytes after a
// previous EOF) or block in r's own Read (net.Conn).
func NewFollowReader(r io.Reader) *Reader {
	return &Reader{src: r, follow: true, chunk: minRead, caches: make(map[uint64]*predCache)}
}

// Header returns the trace header (nil on a follow Reader that has not
// yet seen a complete header).
func (r *Reader) Header() *Header { return r.hdr }

// Topo returns the topology rebuilt from the header; link and switch
// IDs in decoded records belong to it.
func (r *Reader) Topo() *topology.Topology { return r.topo }

// Buffered returns how many staged bytes the Reader holds beyond the
// last consumed frame — non-zero after ErrAwaitMore exactly when the
// stream ended inside a frame.
func (r *Reader) Buffered() int { return len(r.stash) - r.off - r.pending }

// staged returns the unconsumed byte view.
func (r *Reader) staged() []byte { return r.stash[r.off:] }

// ensureHeader decodes the magic and header once. In follow mode an
// incomplete prefix returns ErrAwaitMore and keeps all staged bytes.
func (r *Reader) ensureHeader() error {
	if r.hdr != nil || r.err != nil {
		if r.err != nil {
			return r.err
		}
		return nil
	}
	if !r.magicDone {
		if err := r.fillTo(len(Magic)); err != nil {
			if err == ErrAwaitMore || err == io.EOF {
				if r.follow {
					return ErrAwaitMore
				}
				if len(r.staged()) == 0 {
					return r.fail(fmt.Errorf("trace: reading magic: %w", io.EOF))
				}
				return r.fail(fmt.Errorf("trace: reading magic: %w", io.ErrUnexpectedEOF))
			}
			return r.fail(fmt.Errorf("trace: reading magic: %w", err))
		}
		if !bytes.Equal(r.staged()[:len(Magic)], Magic[:]) {
			return r.fail(fmt.Errorf("trace: bad magic %q (not a .fpt trace)", r.staged()[:len(Magic)]))
		}
		r.consume(len(Magic))
		r.magicDone = true
	}
	payload, err := r.readFrame()
	if err != nil {
		if err == ErrAwaitMore {
			return err
		}
		if err == io.EOF {
			// A clean frame boundary, but the header frame itself has
			// not arrived yet: still awaiting in follow mode.
			if r.follow {
				return ErrAwaitMore
			}
			err = io.ErrUnexpectedEOF
		}
		return r.fail(fmt.Errorf("trace: reading header: %w", err))
	}
	d := dec{b: payload}
	if k := d.kind(); k != KindHeader {
		return r.fail(fmt.Errorf("trace: first record kind %d, want header", k))
	}
	h := decodeHeader(&d)
	if err := d.done(); err != nil {
		return r.fail(err)
	}
	if h.FormatVersion < 1 || h.FormatVersion > Version {
		return r.fail(fmt.Errorf("trace: format version %d unsupported (reader speaks ≤ %d)", h.FormatVersion, Version))
	}
	for _, j := range h.Jobs {
		if err := j.DetectConfig().Validate(); err != nil {
			return r.fail(fmt.Errorf("trace: header job %d: %w", j.Job, err))
		}
	}
	// Bound the fabric before building it, so a corrupt header cannot
	// drive a giant allocation (same spirit as maxFrame).
	for _, dim := range [...]int{h.Leaves, h.Spines, h.HostsPerLeaf, h.Trunk} {
		if dim < 0 || dim > maxTopoDim {
			return r.fail(fmt.Errorf("trace: header topology dimension %d out of range", dim))
		}
	}
	topo, err := topology.NewFatTree(topology.FatTreeConfig{
		Leaves:       h.Leaves,
		Spines:       h.Spines,
		HostsPerLeaf: h.HostsPerLeaf,
		Trunk:        h.Trunk,
		LinkRateBPS:  h.LinkRateBPS,
	})
	if err != nil {
		return r.fail(fmt.Errorf("trace: rebuilding recorded topology: %w", err))
	}
	r.hdr = h
	r.topo = topo
	return nil
}

// WindowSlot supplies reusable window storage to NextInto: given the
// window's routing key it returns the WindowRecord to decode into
// (slices are grown as needed and fully overwritten, so a slot reused
// for the same stream reaches a steady state with zero allocations).
// Returning nil falls back to a freshly allocated record.
type WindowSlot func(job uint16, leafOrd int) *WindowRecord

// Next returns the next record, or io.EOF after the last one. Records
// with kinds this reader does not know are skipped. On a follow
// Reader, a torn tail frame returns ErrAwaitMore (retry when the
// source has more bytes). The Record and everything it points to are
// freshly allocated, fully built (SenderBytes included) and belong to
// the caller — keep them as long as you like; a loop that drops each
// window after use should call NextInto with one reused slot instead.
func (r *Reader) Next() (*Record, error) {
	rec, err := r.NextInto(nil)
	if err != nil {
		return nil, err
	}
	if w := rec.Window; w != nil {
		w.Senders()
		w.sec = nil // the fresh record keeps its matrix, not the encoding
	}
	return &rec, nil
}

// NextInto is Next with caller-owned window storage: window records
// decode into the slot the dest callback picks (see WindowSlot), other
// kinds allocate as usual. The returned Record's Window points at that
// slot, so it is valid until the slot is handed out again. A window's
// per-sender section is checked here — a malformed one fails this call,
// as any other malformed field does — but SenderBytes is left empty
// until Senders builds it from the slot's own copy of the section; the
// other fields, SenderPred included, are complete and owned by the
// slot. dest == nil decodes into a fresh record, with the same deferral.
func (r *Reader) NextInto(dest WindowSlot) (Record, error) {
	if r.err != nil {
		return Record{}, r.err
	}
	if err := r.ensureHeader(); err != nil {
		return Record{}, err
	}
	for {
		payload, err := r.readFrame()
		if err == io.EOF || err == ErrAwaitMore {
			return Record{}, err
		}
		if err != nil {
			return Record{}, r.fail(err)
		}
		d := dec{b: payload}
		rec := &r.scratch
		*rec = Record{Kind: d.kind()}
		switch rec.Kind {
		case KindHeader:
			return Record{}, r.fail(fmt.Errorf("trace: duplicate header record"))
		case KindWindow:
			rec.Window = r.decodeWindow(&d, dest)
		case KindEvent:
			rec.Event, r.lastTime = decodeEvent(&d, r.topo, r.lastTime)
		case KindAction:
			rec.Action, r.lastTime = decodeAction(&d, r.lastTime)
		case KindProbe:
			rec.Probe, r.lastTime = decodeProbe(&d, r.lastTime)
		case KindFault:
			rec.Fault, r.lastTime = decodeFault(&d, r.lastTime)
		case KindTrailer:
			rec.Trailer = decodeTrailer(&d, r.lastTime)
		default:
			continue // newer kind than this reader: skip by frame
		}
		if err := d.done(); err != nil {
			return Record{}, r.fail(err)
		}
		return *rec, nil
	}
}

// fail makes a real decode error sticky (torn tails are not errors in
// follow mode and never stick).
func (r *Reader) fail(err error) error {
	if r.err == nil {
		r.err = err
	}
	return r.err
}

// readFrame stages one uvarint-length-prefixed, CRC32C-suffixed frame
// and returns its payload, which stays valid until the next call.
func (r *Reader) readFrame() ([]byte, error) {
	if r.pending > 0 {
		r.consume(r.pending)
		r.pending = 0
	}
	var n uint64
	var w int
	for {
		n, w = binary.Uvarint(r.staged())
		if w > 0 {
			break
		}
		if w < 0 {
			return nil, fmt.Errorf("trace: frame length overflows uvarint")
		}
		// Not enough staged bytes for the length prefix yet.
		if err := r.fillTo(len(r.staged()) + 1); err != nil {
			if err == io.EOF && len(r.staged()) == 0 {
				return nil, io.EOF // clean end at a frame boundary
			}
			return r.torn(err)
		}
	}
	if n == 0 || n > maxFrame {
		return nil, fmt.Errorf("trace: frame length %d out of range", n)
	}
	total := w + int(n) + 4
	if err := r.fillTo(total); err != nil {
		return r.torn(err)
	}
	frame := r.staged()[:total]
	payload := frame[w : w+int(n)]
	if got, want := crc32.Checksum(payload, castagnoli), binary.LittleEndian.Uint32(frame[w+int(n):]); got != want {
		return nil, fmt.Errorf("trace: frame CRC mismatch (corrupt record)")
	}
	r.pending = total
	return payload, nil
}

// torn maps an out-of-bytes condition mid-frame: resumable in follow
// mode, a truncation error otherwise.
func (r *Reader) torn(err error) ([]byte, error) {
	if err == io.EOF || err == ErrAwaitMore {
		if r.follow {
			return nil, ErrAwaitMore
		}
		return nil, fmt.Errorf("trace: truncated frame: %w", io.ErrUnexpectedEOF)
	}
	return nil, fmt.Errorf("trace: truncated frame: %w", err)
}

// Read sizing: fillTo asks the source for at least minRead bytes, and
// doubles the request up to maxRead while each read fills it
// completely. A source that is ahead (a file, a loopback producer) is
// read in maxRead requests; a trickling one (a session that sends only
// a header, a producer paced slower than the reader) never fills a
// request, so its stash stays at minRead (or its largest frame).
const (
	minRead = 4 << 10
	maxRead = 64 << 10
)

// fillTo reads from src until the staged view holds at least total
// bytes. It returns io.EOF (every byte read so far stays staged) when
// the source runs dry first.
func (r *Reader) fillTo(total int) error {
	for len(r.staged()) < total {
		// Reclaim the consumed prefix before growing or reading, so
		// steady-state framing reuses one buffer.
		if r.off > 0 {
			k := copy(r.stash, r.stash[r.off:])
			r.stash = r.stash[:k]
			r.off = 0
		}
		// Read whatever is available, not just the remainder, to
		// amortize syscalls on network sources.
		want := max(total, len(r.stash)+r.chunk)
		if cap(r.stash) < want {
			grown := make([]byte, len(r.stash), want)
			copy(grown, r.stash)
			r.stash = grown
		}
		req := r.stash[len(r.stash):cap(r.stash)]
		k, err := r.src.Read(req)
		if k == len(req) && r.chunk < maxRead {
			r.chunk *= 2
		}
		if k > 0 {
			r.stash = r.stash[:len(r.stash)+k]
			continue
		}
		if err == nil {
			continue // a zero-byte read with no error: try again
		}
		if err == io.EOF {
			return io.EOF
		}
		return err
	}
	return nil
}

// consume drops the first n staged bytes.
func (r *Reader) consume(n int) { r.off += n }

func (r *Reader) cache(job uint16, leafOrd int) *predCache {
	k := cacheKey(job, leafOrd)
	c := r.caches[k]
	if c == nil {
		c = &predCache{}
		r.caches[k] = c
	}
	return c
}

// Slice-reuse helpers for NextInto: grow-only, fully overwritten by
// the decoders below.
func i64Slice(s []int64, n int) []int64 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int64, n)
}

func f64Slice(s []float64, n int) []float64 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]float64, n)
}

func i64Rows(s [][]int64, n int) [][]int64 {
	if cap(s) >= n {
		return s[:n]
	}
	out := make([][]int64, n)
	copy(out, s[:cap(s)])
	return out
}

func f64Rows(s [][]float64, n int) [][]float64 {
	if cap(s) >= n {
		return s[:n]
	}
	out := make([][]float64, n)
	copy(out, s[:cap(s)])
	return out
}

func (r *Reader) decodeWindow(d *dec, dest WindowSlot) *WindowRecord {
	job := uint16(d.u())
	leafOrd := int(d.u())
	var w *WindowRecord
	if dest != nil {
		w = dest(job, leafOrd)
	}
	if w == nil {
		w = &WindowRecord{}
	}
	w.Job = job
	w.LeafOrd = leafOrd
	w.Iter = uint32(d.u())
	w.ClosedAt = r.lastTime + sim.Time(d.i())
	w.OpenedAt = w.ClosedAt + sim.Time(d.i())
	w.Packets = d.i()
	w.CEBytes = 0

	nPorts := d.count(1)
	w.PortBytes = i64Slice(w.PortBytes, nPorts)
	d.deltaRow(w.PortBytes)

	switch mode := d.kind(); mode {
	case aggSame:
		w.AggPortBytes = i64Slice(w.AggPortBytes, nPorts)
		copy(w.AggPortBytes, w.PortBytes)
	case aggDelta:
		w.AggPortBytes = i64Slice(w.AggPortBytes, nPorts)
		for i := range w.AggPortBytes {
			w.AggPortBytes[i] = w.PortBytes[i] + d.i()
		}
	case aggAbsent:
		w.AggPortBytes = nil
	case aggExplicit:
		n := d.count(1)
		w.AggPortBytes = i64Slice(w.AggPortBytes, n)
		d.deltaRow(w.AggPortBytes)
	default:
		d.fail("trace: bad agg mode %d", mode)
	}

	// The sender section is only checked and copied out here: its one
	// reader, localization, builds it through Senders on an alerted
	// window.
	start := d.off
	if end, ok := sectionEnd(d.b, start); ok && d.err == nil {
		d.off = end
	} else {
		d.skipSection()
	}
	w.sec = append(w.sec[:0], d.b[start:d.off]...)
	w.pending = true
	w.SenderBytes = w.SenderBytes[:0]

	w.Ready = d.bit()
	if !w.Ready {
		w.PortPred = w.PortPred[:0]
		w.SenderPred = w.SenderPred[:0]
	}
	if w.Ready && d.err == nil {
		// Every word folds into the leaf's cache in stream order (the
		// next window's XOR reads it); the record's rows are then one
		// copy of the cache, so the record stays valid after the
		// Reader decodes the leaf's next window.
		c := r.cache(w.Job, w.LeafOrd)
		nPort := d.count(1)
		if d.err != nil {
			return w
		}
		c.size(nPort, len(c.sender))
		d.xorFold(c.port)
		w.PortPred = f64Slice(w.PortPred, nPort)
		copy(w.PortPred, c.port)
		// The flattened sender count precedes the rows (see Writer) so
		// the XOR cache can be sized before their lengths are known.
		nPred := d.count(1)
		if d.err != nil {
			return w
		}
		c.size(nPort, nPred)
		w.predFlat = f64Slice(w.predFlat, nPred)
		nPredRows := d.count(1)
		w.SenderPred = f64Rows(w.SenderPred, nPredRows)
		if k := d.foldRows(c.sender, w.predFlat, w.SenderPred); d.err == nil && k != nPred {
			d.fail("trace: sender prediction count %d, declared %d", k, nPred)
		}
		copy(w.predFlat, c.sender)
	}
	if r.hdr.FormatVersion >= 2 {
		w.CEBytes = d.i()
	}
	if d.err == nil {
		r.lastTime = w.ClosedAt
	}
	return w
}
