package trace

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"flowpulse/internal/sim"
	"flowpulse/internal/telemetry"
)

var regenCorpus = flag.Bool("regen-corpus", false, "rewrite the committed fuzz seed corpus under testdata/fuzz")

// validTrace builds a small complete recording: header, a ready
// window, a probe round, a fault, trailer.
func validTrace() []byte {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Begin(testHeader()); err != nil {
		panic(err)
	}
	win := telemetry.Window{
		LeafOrdinal: 1,
		ClosedAt:    sim.Time(50 * sim.Microsecond),
		Packets:     64,
		PortBytes:   []int64{1000, 2000},
		SenderBytes: [][]int64{{100, 200, 300, 400}, {500, 600, 700, 800}},
	}
	w.Window(&win, true, []float64{1000, 2000}, [][]float64{{100, 200, 300, 400}, {500, 600, 700, 800}})
	w.ProbeRound(sim.Time(60*sim.Microsecond), 3, 10, 1)
	w.Fault(FaultRecord{At: sim.Time(30 * sim.Microsecond), Kind: "bernoulli", LeafOrd: 1, Rate: 0.02, OnsetIter: 2})
	if err := w.Finish(sim.Time(sim.Millisecond)); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// FuzzReaderRobust feeds arbitrary bytes through the reader: it must
// reject garbage with an error, never panic, and never allocate out
// of proportion to the input.
func FuzzReaderRobust(f *testing.F) {
	valid := validTrace()
	f.Add(valid)
	f.Add(valid[:len(valid)-5]) // truncated mid-trailer
	f.Add(valid[:len(Magic)])   // magic only
	f.Add([]byte{})
	corrupt := append([]byte{}, valid...)
	corrupt[20] ^= 0xff
	f.Add(corrupt)
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A stream of len(data) bytes can hold at most len(data)
		// records (every frame is ≥ 1 byte + CRC); anything more means
		// the reader is spinning.
		for i := 0; i <= len(data); i++ {
			if _, err := r.Next(); err != nil {
				return
			}
		}
		t.Fatalf("reader produced more records than the stream can hold")
	})
}

// FuzzWindowRoundTrip drives scalar window fields and predictions
// through a write→read cycle and demands exact reconstruction,
// including the XOR fold across two consecutive windows of the same
// leaf.
func FuzzWindowRoundTrip(f *testing.F) {
	f.Add(uint16(0), uint8(1), uint32(3), int64(100), int64(1000), int64(2000), int64(7), 1.5, -2.5, true)
	f.Add(uint16(9), uint8(0), uint32(0), int64(-5), int64(0), int64(-1), int64(2), math.Inf(1), 0.0, true)
	f.Add(uint16(1), uint8(3), uint32(1<<30), int64(1)<<60, int64(-1)<<60, int64(1), int64(0), 1e-300, -1e300, false)
	f.Fuzz(func(t *testing.T, job uint16, leafOrd uint8, iter uint32, packets, b0, b1, agg int64, p0, p1 float64, ready bool) {
		win := telemetry.Window{
			Job:         job,
			LeafOrdinal: int(leafOrd % 4),
			Iter:        iter,
			OpenedAt:    sim.Time(packets),
			ClosedAt:    sim.Time(packets) + sim.Time(50*sim.Microsecond),
			Packets:     packets,
			PortBytes:   []int64{b0, b1},
			SenderBytes: [][]int64{{b0 + agg, b1}, {agg, b0 ^ b1}},
		}
		switch agg & 3 {
		case 1:
			win.AggPortBytes = []int64{b0, b1}
		case 2:
			win.AggPortBytes = []int64{b0 + agg, b1 - agg}
		case 3:
			win.AggPortBytes = []int64{agg, b0, b1}
		}
		port := []float64{p0, p1}
		sender := [][]float64{{p1, p0}, {p0 / 2, p1 * 3}}

		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.Begin(testHeader()); err != nil {
			t.Fatal(err)
		}
		w.Window(&win, ready, port, sender)
		win2 := win
		win2.ClosedAt += sim.Time(50 * sim.Microsecond)
		w.Window(&win2, ready, port, sender) // unchanged prediction: pure XOR-fold path
		if err := w.Finish(win2.ClosedAt); err != nil {
			t.Fatal(err)
		}

		r, err := NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range []*telemetry.Window{&win, &win2} {
			rec, err := r.Next()
			if err != nil {
				t.Fatalf("window %d: %v", i, err)
			}
			g := rec.Window
			if g == nil {
				t.Fatalf("window %d: wrong record kind %d", i, rec.Kind)
			}
			if g.Job != want.Job || g.LeafOrd != want.LeafOrdinal || g.Iter != want.Iter ||
				g.OpenedAt != want.OpenedAt || g.ClosedAt != want.ClosedAt || g.Packets != want.Packets {
				t.Fatalf("window %d scalars: got %+v want %+v", i, g, want)
			}
			if !reflect.DeepEqual(g.PortBytes, want.PortBytes) ||
				!reflect.DeepEqual(g.AggPortBytes, want.AggPortBytes) ||
				!reflect.DeepEqual(g.SenderBytes, want.SenderBytes) {
				t.Fatalf("window %d counters: got %+v want %+v", i, g, want)
			}
			if g.Ready != ready {
				t.Fatalf("window %d ready: %v", i, g.Ready)
			}
			if ready {
				if !floatsBitEqual(g.PortPred, port) {
					t.Fatalf("window %d port pred: got %v want %v", i, g.PortPred, port)
				}
				for u := range sender {
					if !floatsBitEqual(g.SenderPred[u], sender[u]) {
						t.Fatalf("window %d sender pred row %d: got %v want %v", i, u, g.SenderPred[u], sender[u])
					}
				}
			}
		}
	})
}

// floatsBitEqual compares by bit pattern, so NaN inputs still have a
// well-defined round-trip requirement.
func floatsBitEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// refDec is the reference the differential fuzz target compares the
// production decoder against: one value per call, every call through
// encoding/binary, the sticky error re-checked each time. It is the
// decoder as it was before the row kernels, kept here — in the test
// file only — because it is obviously right.
type refDec struct {
	b   []byte
	off int
	err error
}

func (d *refDec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *refDec) kind() byte {
	if d.err != nil || d.off >= len(d.b) {
		d.fail("trace: truncated record")
		return 0
	}
	k := d.b[d.off]
	d.off++
	return k
}

func (d *refDec) u() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("trace: bad uvarint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *refDec) i() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail("trace: bad varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *refDec) count() int {
	n := d.u()
	if d.err != nil {
		return 0
	}
	if n > uint64(len(d.b)-d.off+1) {
		d.fail("trace: collection length %d exceeds payload", n)
		return 0
	}
	return int(n)
}

func (d *refDec) done() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return fmt.Errorf("trace: %d trailing bytes in record", len(d.b)-d.off)
	}
	return nil
}

// refReader is the Reader state a window decode reads and writes.
type refReader struct {
	version  int
	lastTime sim.Time
	caches   map[uint64]*predCache
}

// decodeWindow is Reader.decodeWindow with the value-at-a-time loops,
// always into a fresh record.
func (r *refReader) decodeWindow(d *refDec) *WindowRecord {
	w := &WindowRecord{}
	w.Job = uint16(d.u())
	w.LeafOrd = int(d.u())
	w.Iter = uint32(d.u())
	w.ClosedAt = r.lastTime + sim.Time(d.i())
	w.OpenedAt = w.ClosedAt + sim.Time(d.i())
	w.Packets = d.i()

	nPorts := d.count()
	w.PortBytes = make([]int64, nPorts)
	var prev int64
	for i := range w.PortBytes {
		prev += d.i()
		w.PortBytes[i] = prev
	}

	switch mode := d.kind(); mode {
	case aggSame:
		w.AggPortBytes = append([]int64{}, w.PortBytes...)
	case aggDelta:
		w.AggPortBytes = make([]int64, nPorts)
		for i := range w.AggPortBytes {
			w.AggPortBytes[i] = w.PortBytes[i] + d.i()
		}
	case aggAbsent:
	case aggExplicit:
		w.AggPortBytes = make([]int64, d.count())
		prev = 0
		for i := range w.AggPortBytes {
			prev += d.i()
			w.AggPortBytes[i] = prev
		}
	default:
		d.fail("trace: bad agg mode %d", mode)
	}

	nRows := d.count()
	w.SenderBytes = make([][]int64, nRows)
	for i := 0; i < nRows && d.err == nil; i++ {
		row := make([]int64, d.count())
		prev = 0
		for j := range row {
			prev += d.i()
			row[j] = prev
		}
		w.SenderBytes[i] = row
	}

	w.Ready = d.kind() != 0
	if w.Ready && d.err == nil {
		k := cacheKey(w.Job, w.LeafOrd)
		c := r.caches[k]
		if c == nil {
			c = &predCache{}
			r.caches[k] = c
		}
		nPort := d.count()
		if d.err != nil {
			return w
		}
		c.size(nPort, len(c.sender))
		w.PortPred = make([]float64, nPort)
		for i := range w.PortPred {
			bits := d.u() ^ math.Float64bits(c.port[i])
			c.port[i] = math.Float64frombits(bits)
			w.PortPred[i] = math.Float64frombits(bits)
		}
		nPred := d.count()
		if d.err != nil {
			return w
		}
		c.size(nPort, nPred)
		nPredRows := d.count()
		w.SenderPred = make([][]float64, nPredRows)
		k2 := 0
		for i := 0; i < nPredRows && d.err == nil; i++ {
			n := d.count()
			if k2+n > nPred {
				d.fail("trace: sender prediction rows exceed declared count %d", nPred)
				return w
			}
			row := make([]float64, n)
			for j := range row {
				bits := d.u() ^ math.Float64bits(c.sender[k2])
				c.sender[k2] = math.Float64frombits(bits)
				row[j] = math.Float64frombits(bits)
				k2++
			}
			w.SenderPred[i] = row
		}
		if d.err == nil && k2 != nPred {
			d.fail("trace: sender prediction count %d, declared %d", k2, nPred)
		}
	}
	if r.version >= 2 {
		w.CEBytes = d.i()
	}
	if d.err == nil {
		r.lastTime = w.ClosedAt
	}
	return w
}

// sameWindow compares a decoded window with the reference's, value by
// value: floats by bit pattern (NaN predictions are legal) and slices
// by length and content, since a reused slot holds empty slices where a
// fresh record holds nil. The one nil that means something is an absent
// aggregate (the detector falls back to PortBytes): where the reference
// has none, got must have none.
func sameWindow(got, ref *WindowRecord) bool {
	if got.Job != ref.Job || got.LeafOrd != ref.LeafOrd || got.Iter != ref.Iter ||
		got.OpenedAt != ref.OpenedAt || got.ClosedAt != ref.ClosedAt || got.Packets != ref.Packets ||
		got.Ready != ref.Ready || got.CEBytes != ref.CEBytes ||
		(ref.AggPortBytes == nil && got.AggPortBytes != nil) ||
		len(got.SenderBytes) != len(ref.SenderBytes) || len(got.SenderPred) != len(ref.SenderPred) {
		return false
	}
	if !slices.Equal(got.PortBytes, ref.PortBytes) || !slices.Equal(got.AggPortBytes, ref.AggPortBytes) ||
		!floatsBitEqual(got.PortPred, ref.PortPred) {
		return false
	}
	for i := range got.SenderBytes {
		if !slices.Equal(got.SenderBytes[i], ref.SenderBytes[i]) {
			return false
		}
	}
	for i := range got.SenderPred {
		if !floatsBitEqual(got.SenderPred[i], ref.SenderPred[i]) {
			return false
		}
	}
	return true
}

func sameCaches(a, b map[uint64]*predCache) bool {
	if len(a) != len(b) {
		return false
	}
	for k, ca := range a {
		cb := b[k]
		if cb == nil || !floatsBitEqual(ca.port, cb.port) || !floatsBitEqual(ca.sender, cb.sender) {
			return false
		}
	}
	return true
}

// diffSeed is one seed of FuzzWindowDecodeDifferential: two window
// payloads (the bytes after the record-kind byte) decoded back to back
// through the same reader state, and the format version they claim.
type diffSeed struct {
	name          string
	first, second []byte
	v1            bool
}

// diffSeeds are the shapes the row kernels have to get right: where a
// zero run ends relative to a row and to the frame, what is not a
// canonical zero, what is too long, what is cut short.
func diffSeeds() []diffSeed {
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	zeros := func(n int) []byte { return make([]byte, n) }
	// job 0, leaf 1, iter 3, closed +100, opened −50, 7 packets.
	head := []byte{0, 1, 3, 0xc8, 0x01, 0x63, 0x0e}
	big := []byte{0x80, 0x80, 0x20} // one 3-byte value, as a first delta is
	// 16 ports (3-byte first delta, a 15-zero run), aggSame, two 9-wide
	// sender rows whose 8-zero runs end exactly on the row boundary.
	counters := cat(head, []byte{16}, big, zeros(15), []byte{aggSame},
		[]byte{2}, []byte{9}, big, zeros(8), []byte{9}, big, zeros(8))
	// Ready, 16 unchanged port words (two whole loads, ending exactly on
	// the row), then 18 sender words in two rows of 9: each row's ninth
	// zero sits one byte past a full load.
	stable := cat([]byte{1, 16}, zeros(16), []byte{18, 2}, []byte{9}, zeros(9), []byte{9}, zeros(9))
	// The same prediction, every word 3 bytes: what a first window or a
	// re-baseline looks like, and what fills the cache for a second one.
	fresh := cat([]byte{1, 16}, bytes.Repeat(big, 16), []byte{18, 2},
		[]byte{9}, bytes.Repeat(big, 9), []byte{9}, bytes.Repeat(big, 9))
	notReady := []byte{0}
	ce0, ce := []byte{0}, []byte{0x2a}
	overlong := append(bytes.Repeat([]byte{0x80}, 10), 0x01) // 11 bytes: overflows
	longest := append(bytes.Repeat([]byte{0xff}, 9), 0x01)   // 10 bytes: the largest legal value
	overflow := append(bytes.Repeat([]byte{0xff}, 9), 0x02)  // 10 bytes: the 10th above 1
	width := func(n int) []byte {                            // one legal value exactly n bytes long
		return append(bytes.Repeat([]byte{0xaa}, n-1), 0x01)
	}
	row := func(v []byte) []byte { // 1 port, one deferred sender row holding v
		return cat(head, []byte{1}, big, []byte{aggSame, 1, 1}, v)
	}
	agg := func(mode ...byte) []byte { // 4 ports, the given aggregate, no senders
		return cat(head, []byte{4}, big, zeros(3), mode, []byte{0})
	}
	seeds := []diffSeed{
		{name: "stable-then-stable", first: cat(counters, fresh, ce), second: cat(counters, stable, ce0)},
		{name: "run-ends-at-frame-end-v1", first: cat(counters, stable), second: cat(counters, stable), v1: true},
		{name: "run-then-zero-ce", first: cat(counters, stable, ce0), second: cat(counters, notReady, ce0)},
		{name: "not-ready-then-ready", first: cat(counters, notReady, ce), second: cat(counters, fresh, ce)},
		{name: "cache-resized", first: cat(counters, fresh, ce), second: cat(agg(aggSame), []byte{1, 4}, zeros(4), []byte{3, 1, 3}, zeros(3), ce0)},
		{name: "noncanonical-zeros", first: cat(head, []byte{4, 0x80, 0x00, 0x00, 0x80, 0x80, 0x00, 0x00}, []byte{aggSame, 1, 3, 0x00, 0x80, 0x00, 0x02},
			[]byte{1, 2, 0x80, 0x00, 0x00, 2, 1, 2, 0x00, 0x80, 0x80, 0x00}, ce0)},
		{name: "overlong-delta", first: cat(head, []byte{4}, overlong, zeros(3), []byte{aggSame, 0, 0}, ce0)},
		{name: "overlong-xor-word", first: cat(agg(aggSame), []byte{1, 2, 0}, overlong, []byte{0, 0}, ce0)},
		{name: "longest-legal", first: cat(head, []byte{2}, longest, longest, []byte{aggSame, 0}, []byte{1, 2}, longest, longest, []byte{0, 0}, ce0)},
		{name: "truncated-mid-run", first: cat(head, []byte{16}, big, zeros(15), []byte{aggSame, 1, 12}, big, zeros(10))},
		{name: "truncated-mid-run-xor", first: cat(counters, []byte{1, 16}, zeros(15))},
		// A zero row at the very end of the payload, with 7, 8, 9 and 10
		// bytes left when it starts (ready bit and CE included): the first
		// has no room for a 64-bit load, the second exactly.
		{name: "row-with-7-left", first: cat(head, []byte{1}, big, []byte{aggSame, 1, 6}, zeros(6), notReady), v1: true},
		{name: "row-with-8-left", first: cat(head, []byte{1}, big, []byte{aggSame, 1, 7}, zeros(7), notReady), v1: true},
		{name: "row-with-9-left", first: cat(head, []byte{1}, big, []byte{aggSame, 1, 7}, zeros(7), notReady, ce0)},
		{name: "row-with-10-left", first: cat(head, []byte{1}, big, []byte{aggSame, 1, 8}, zeros(8), notReady, ce0)},
		{name: "row-longer-than-run", first: cat(head, []byte{1}, big, []byte{aggSame, 1, 10}, zeros(8), []byte{0x02, 0x01}, notReady, ce0)},
		{name: "agg-absent", first: cat(agg(aggAbsent), notReady, ce0)},
		{name: "agg-delta", first: cat(agg(aggDelta, 0, 0x02, 0, 0x80, 0x00), notReady, ce0)},
		{name: "agg-explicit", first: cat(agg(aggExplicit, 9, 0x04), zeros(8), notReady, ce0)},
		{name: "agg-bad-mode", first: cat(agg(4), notReady, ce0)},
		{name: "pred-rows-exceed-declared", first: cat(agg(aggSame), []byte{1, 4}, zeros(4), []byte{2, 2, 2, 0, 0, 2, 0, 0}, ce0)},
		{name: "trailing-bytes", first: cat(agg(aggSame), notReady, ce0, ce0)},
		// One-load varints: an 8-byte value is the longest one load
		// decodes; a 9- or 10-byte one falls back to encoding/binary, as
		// does any value that starts with fewer than eight bytes left.
		// As the CE count a value starts with exactly its own width left;
		// as a deferred sender delta, with the ready bit (and CE) after it.
		{name: "varint8-with-8-left", first: cat(agg(aggSame), notReady, width(8))},
		{name: "varint9-with-9-left", first: cat(agg(aggSame), notReady, width(9))},
		{name: "varint10-with-10-left", first: cat(agg(aggSame), notReady, width(10))},
		{name: "varint8-with-9-left", first: cat(row(width(8)), notReady), v1: true},
		{name: "varint8-with-10-left", first: cat(row(width(8)), notReady, ce0)},
		{name: "varint9-with-10-left", first: cat(row(width(9)), notReady), v1: true},
		{name: "varint10-with-12-left", first: cat(row(width(10)), notReady, ce0)},
		{name: "varint8-with-7-left", first: cat(agg(aggSame), notReady, width(8)[:7])},
		{name: "varint9-with-8-left", first: cat(agg(aggSame), notReady, width(9)[:8])},
		{name: "varint10-with-9-left", first: cat(agg(aggSame), notReady, width(10)[:9])},
		{name: "sender-deltas-8-9-10", first: cat(head, []byte{1}, big, []byte{aggSame, 2, 3}, width(8), width(9), width(10),
			[]byte{2}, zeros(1), width(8), notReady, ce0)},
		{name: "xor-words-8-9-10", first: cat(agg(aggSame), []byte{1, 3}, width(8), width(9), width(10), []byte{0, 0}, ce0)},
		// A 10th byte above 1 overflows 64 bits, in a deferred row too.
		{name: "overflow-10th-byte", first: cat(agg(aggSame), notReady, overflow)},
		{name: "overflow-in-deferred-row", first: cat(row(overflow), notReady, ce0)},
		// A non-canonical zero inside a deferred row decodes as zero;
		// cut short, it fails at its first byte.
		{name: "noncanonical-in-deferred-row", first: cat(head, []byte{1}, big, []byte{aggSame, 2, 4, 0x02, 0x80, 0x80, 0x00, 0, 0x80, 0x00,
			3, 0x80, 0x00, 0x04, 0x80, 0x80, 0x80, 0x00}, notReady, ce0)},
		{name: "noncanonical-cut-in-deferred-row", first: cat(head, []byte{1}, big, []byte{aggSame, 1, 2, 0x02, 0x80, 0x80})},
		// Row boundaries of the one-pass walks. Rows of five values and
		// of three words end inside a word, and the next row's length
		// is read from that same word.
		{name: "row-boundaries-mid-word", first: cat(head, []byte{2}, big, zeros(1), []byte{aggSame, 3},
			[]byte{5, 2, 0, 4, 0, 1}, []byte{5, 0, 3, 0, 0, 2}, []byte{5, 1, 1, 1, 1, 1},
			[]byte{1, 2, 0x05, 0, 9, 3}, []byte{3, 1, 0, 2}, []byte{3, 0, 0, 0}, []byte{3, 4, 0, 7}, ce0)},
		// A row's last value ends on the seventh byte of a word, the next
		// row's two-byte length starts on the eighth: the word holds
		// exactly the row's remaining values.
		{name: "two-byte-row-length", first: cat(head, []byte{1}, big, []byte{aggSame, 2, 7}, zeros(7),
			[]byte{0x80, 0x01}, zeros(128), notReady, ce0)},
		{name: "two-byte-pred-row-length", first: cat(agg(aggSame), []byte{1, 0, 0x82, 0x01, 2, 2, 0, 0, 0x80, 0x01}, zeros(128), ce0)},
		// Nine- and ten-byte values inside a row: one straddling two
		// words, one inside the words a row is known to span.
		{name: "value9-inside-row", first: cat(head, []byte{1}, big, []byte{aggSame, 1, 12}, zeros(3), width(9), zeros(8), notReady, ce0)},
		{name: "value10-inside-row", first: cat(head, []byte{1}, big, []byte{aggSame, 1, 20}, zeros(5), width(10), zeros(14), notReady, ce0)},
		{name: "no-sender-rows", first: cat(head, []byte{2}, big, zeros(1), []byte{aggSame, 0}, []byte{1, 2, 0, 0, 0, 0}, ce0)},
		// Zero words that run past a row's end: the port row into the
		// aggregate mode and the section, a five-value row into three
		// empty rows (deferred, then folded).
		{name: "zero-word-straddles-rows", first: cat(head, []byte{4}, zeros(4), []byte{aggSame, 4, 5}, zeros(5), zeros(3),
			[]byte{1, 4}, zeros(4), []byte{5, 4, 5}, zeros(5), zeros(3), ce0)},
	}
	// A section of one nine-value row followed by 0–8 payload bytes:
	// none (truncated), the ready bit (v1), then the ready bit and a CE
	// count one to seven bytes wide.
	for left := 0; left <= 8; left++ {
		s := diffSeed{name: fmt.Sprintf("section-end-%d-left", left),
			first: cat(head, []byte{1}, big, []byte{aggSame, 1, 9}, zeros(9))}
		switch left {
		case 0:
		case 1:
			s.first, s.v1 = append(s.first, notReady...), true
		default:
			s.first = cat(s.first, notReady, width(left-1))
		}
		seeds = append(seeds, s)
	}
	return seeds
}

// FuzzWindowDecodeDifferential decodes arbitrary window payloads with
// the production decoder (row kernels, one-load varints, the deferred
// sender section, one reused slot) and with refDec above, and requires
// the same error or else the same record, and the same reader state
// afterwards — prediction caches included — whatever the bytes. The
// error must surface at decode: building the section of a window that
// decoded may not fail.
// That is the proof behind "readers still accept every byte string they
// accepted before".
func FuzzWindowDecodeDifferential(f *testing.F) {
	for _, s := range diffSeeds() {
		f.Add(s.first, s.second, s.v1)
	}
	f.Fuzz(func(t *testing.T, first, second []byte, v1 bool) {
		version := Version
		if v1 {
			version = 1
		}
		rd := &Reader{hdr: &Header{FormatVersion: version}, caches: map[uint64]*predCache{}}
		ref := &refReader{version: version, caches: map[uint64]*predCache{}}
		var slot WindowRecord
		dest := func(uint16, int) *WindowRecord { return &slot }
		for i, payload := range [][]byte{first, second} {
			d := dec{b: payload}
			got := rd.decodeWindow(&d, dest)
			gotErr := d.done()
			rd2 := refDec{b: payload}
			want := ref.decodeWindow(&rd2)
			wantErr := rd2.done()

			if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
				t.Fatalf("window %d: error %v, reference %v", i, gotErr, wantErr)
			}
			if rd.lastTime != ref.lastTime || !sameCaches(rd.caches, ref.caches) {
				t.Fatalf("window %d: reader state diverged from the reference (err %v)", i, gotErr)
			}
			if gotErr != nil {
				// NextInto hands out no record and the Reader is sticky-
				// failed from here on; what a failed decode left in the
				// slot (stale fields included) is nobody's to read.
				return
			}
			// Every error surfaced above: the deferred sender section of
			// a window that decoded must build.
			if err := got.buildSenders(); err != nil {
				t.Fatalf("window %d: building the checked sender section: %v", i, err)
			}
			if !sameWindow(got, want) {
				t.Fatalf("window %d:\n got %+v\nwant %+v", i, got, want)
			}
		}
	})
}

// TestWindowDecodeDifferentialSeeds checks that the seeds still are
// what their names say: which decode cleanly and which must fail.
func TestWindowDecodeDifferentialSeeds(t *testing.T) {
	wantErr := map[string]string{
		"overlong-delta":                   "bad varint",
		"overlong-xor-word":                "bad uvarint",
		"truncated-mid-run":                "bad varint",
		"truncated-mid-run-xor":            "bad uvarint",
		"agg-bad-mode":                     "bad agg mode",
		"pred-rows-exceed-declared":        "exceed declared count",
		"trailing-bytes":                   "trailing bytes",
		"varint8-with-7-left":              "bad varint",
		"varint9-with-8-left":              "bad varint",
		"varint10-with-9-left":             "bad varint",
		"overflow-10th-byte":               "bad varint",
		"overflow-in-deferred-row":         "bad varint",
		"noncanonical-cut-in-deferred-row": "bad varint",
		"section-end-0-left":               "truncated record",
	}
	for _, s := range diffSeeds() {
		version := Version
		if s.v1 {
			version = 1
		}
		rd := &Reader{hdr: &Header{FormatVersion: version}, caches: map[uint64]*predCache{}}
		var err error
		for _, payload := range [][]byte{s.first, s.second} {
			if payload == nil || err != nil {
				continue
			}
			d := dec{b: payload}
			rd.decodeWindow(&d, nil)
			err = d.done()
		}
		switch want := wantErr[s.name]; {
		case want == "" && err != nil:
			t.Errorf("seed %s: %v", s.name, err)
		case want != "" && (err == nil || !strings.Contains(err.Error(), want)):
			t.Errorf("seed %s: error %v, want one containing %q", s.name, err, want)
		}
	}
}

// refSectionSpan returns where a window payload's per-sender section
// starts and ends, read value at a time: start is -1 when the payload
// fails before the section, ok false when it fails inside it.
func refSectionSpan(p []byte) (start, end int, ok bool) {
	d := refDec{b: p}
	d.u()
	d.u()
	d.u()
	d.i()
	d.i()
	d.i()
	nPorts := d.count()
	for i := 0; i < nPorts; i++ {
		d.i()
	}
	switch d.kind() {
	case aggDelta:
		for i := 0; i < nPorts; i++ {
			d.i()
		}
	case aggExplicit:
		for n := d.count(); n > 0; n-- {
			d.i()
		}
	}
	if d.err != nil {
		return -1, 0, false
	}
	start = d.off
	for rows := d.count(); rows > 0 && d.err == nil; rows-- {
		for n := d.count(); n > 0; n-- {
			d.i()
		}
	}
	return start, d.off, d.err == nil
}

// sectionEndOffByOne is sectionEnd with one planted bug at a row
// boundary: a word that holds exactly the values left in the row is
// taken whole, as if the row ended on the word's last byte. It is wrong
// only when the bytes after the row's last value are all continuation
// bytes — the next row's length being two bytes or more.
func sectionEndOffByOne(b []byte, off int) (int, bool) {
	rows, off, ok := count1(b, off)
	for ; ok && rows > 0; rows-- {
		var left int
		if left, off, ok = count1(b, off); !ok {
			break
		}
		prev := uint64(1) << 63
		for left >= 8 {
			end := off + left&^7
			if end > len(b) {
				return 0, false
			}
			for ; off < end; off += 8 {
				ends := ^binary.LittleEndian.Uint64(b[off:]) & contMask
				if prev <= ends&-ends-1 {
					return 0, false
				}
				left -= bits.OnesCount64(ends)
				prev = ends
			}
		}
		for left > 0 {
			if off+8 > len(b) {
				return 0, false
			}
			ends := ^binary.LittleEndian.Uint64(b[off:]) & contMask
			if prev <= ends&-ends-1 {
				return 0, false
			}
			if k := bits.OnesCount64(ends); k <= left { // the bug: < is right
				left -= k
				prev = ends
				off += 8
				continue
			}
			c := ends >> 7 * 0x0101010101010101
			off += bits.TrailingZeros64((c+uint64(0x80-left)*0x0101010101010101)&contMask)>>3 + 1
			left = 0
		}
	}
	return off, ok
}

// TestSectionWalkMutantCaught checks the one-pass section walk on every
// seed against the section's value-at-a-time end — where the walk
// answers, it must answer right — and shows that the seeds tell an
// off-by-one at a row boundary apart from the reference.
func TestSectionWalkMutantCaught(t *testing.T) {
	var caught []string
	for _, s := range diffSeeds() {
		for _, p := range [][]byte{s.first, s.second} {
			start, want, wantOK := refSectionSpan(p)
			if start < 0 {
				continue
			}
			if end, ok := sectionEnd(p, start); ok && (!wantOK || end != want) {
				t.Errorf("seed %s: sectionEnd ends the section at %d, the reference at %d (ok %v)", s.name, end, want, wantOK)
			}
			if end, ok := sectionEndOffByOne(p, start); ok && (!wantOK || end != want) {
				caught = append(caught, s.name)
			}
		}
	}
	if !slices.Contains(caught, "two-byte-row-length") {
		t.Fatalf("the off-by-one row walk passes every seed but %v; want two-byte-row-length to catch it", caught)
	}
	t.Logf("off-by-one row walk caught by %v", caught)
}

// TestRegenFuzzCorpus rewrites the committed seed corpus (the same
// inputs the f.Add calls register, in `go test fuzz v1` form) when run
// with -regen-corpus, mirroring the golden files' -update convention.
// The committed FuzzReaderRobust seeds are format-v1 recordings (no
// CEBytes) and double as the v1 compatibility fixtures: regenerating
// writes v2 ones, so do not commit that part of the rewrite.
func TestRegenFuzzCorpus(t *testing.T) {
	if !*regenCorpus {
		t.Skip("run with -regen-corpus to rewrite testdata/fuzz")
	}
	valid := validTrace()
	corrupt := append([]byte{}, valid...)
	corrupt[20] ^= 0xff
	write := func(fuzz, name string, lines ...string) {
		dir := filepath.Join("testdata", "fuzz", fuzz)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		body := "go test fuzz v1\n"
		for _, l := range lines {
			body += l + "\n"
		}
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("FuzzReaderRobust", "seed-valid", fmt.Sprintf("[]byte(%q)", valid))
	write("FuzzReaderRobust", "seed-truncated", fmt.Sprintf("[]byte(%q)", valid[:len(valid)-5]))
	write("FuzzReaderRobust", "seed-magic-only", fmt.Sprintf("[]byte(%q)", valid[:len(Magic)]))
	write("FuzzReaderRobust", "seed-corrupt", fmt.Sprintf("[]byte(%q)", corrupt))
	for _, s := range diffSeeds() {
		write("FuzzWindowDecodeDifferential", "seed-"+s.name,
			fmt.Sprintf("[]byte(%q)", s.first), fmt.Sprintf("[]byte(%q)", s.second), fmt.Sprintf("bool(%t)", s.v1))
	}
	write("FuzzWindowRoundTrip", "seed-basic",
		"uint16(0)", "byte(1)", "uint32(3)", "int64(100)", "int64(1000)", "int64(2000)", "int64(7)",
		"float64(1.5)", "float64(-2.5)", "bool(true)")
	write("FuzzWindowRoundTrip", "seed-extremes",
		"uint16(1)", "byte(3)", "uint32(1073741824)", "int64(1152921504606846976)",
		"int64(-1152921504606846976)", "int64(1)", "int64(0)",
		"float64(1e-300)", "float64(-1e+300)", "bool(false)")
}
