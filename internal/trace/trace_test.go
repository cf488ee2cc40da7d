package trace

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"flowpulse/internal/detect"
	"flowpulse/internal/localize"
	"flowpulse/internal/monitor"
	"flowpulse/internal/remediate"
	"flowpulse/internal/sim"
	"flowpulse/internal/telemetry"
	"flowpulse/internal/topology"
)

func testHeader() Header {
	return Header{
		Label:  "unit",
		Leaves: 4, Spines: 2, HostsPerLeaf: 1, Trunk: 1,
		Jobs: []JobHeader{{Job: 0, Predictor: "analytical", Threshold: 0.01}},
	}
}

// record runs body against a fresh Writer and returns the sealed
// trace bytes.
func record(t *testing.T, h Header, body func(w *Writer)) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Begin(h); err != nil {
		t.Fatalf("Begin: %v", err)
	}
	body(w)
	if err := w.Finish(42 * sim.Time(sim.Millisecond)); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return buf.Bytes()
}

// readAll decodes every record of raw.
func readAll(t *testing.T, raw []byte) (*Header, []*Record) {
	t.Helper()
	r, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	var recs []*Record
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return r.Header(), recs
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		recs = append(recs, rec)
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	h := testHeader()
	h.Shared = true
	h.LinkRateBPS = 400e9 / 8
	h.Jobs = append(h.Jobs, JobHeader{
		Job: 7, Predictor: "learned", Threshold: 0.02,
		MinPredicted: 1 << 16, AggregateSymmetry: true,
	})
	h.Remediate = &remediate.Config{
		ConfirmWindows: 3, CleanProbes: 2,
		ProbeInterval: 100 * sim.Microsecond, ProbePackets: 128, ProbeBytes: 256,
		Penalty: 0.5, Suppress: 0.9, Reuse: 0.1, HalfLife: sim.Millisecond,
		CorroborateWindows: 2, CorroborateHorizon: 50 * sim.Microsecond,
	}
	got, _ := readAll(t, record(t, h, func(w *Writer) {}))
	h.FormatVersion = Version
	if !reflect.DeepEqual(got, &h) {
		t.Fatalf("header round-trip:\n got %+v\nwant %+v", got, &h)
	}
}

func TestWindowRoundTripAggModes(t *testing.T) {
	base := telemetry.Window{
		LeafOrdinal: 1,
		Iter:        3,
		OpenedAt:    sim.Time(10 * sim.Microsecond),
		ClosedAt:    sim.Time(60 * sim.Microsecond),
		Packets:     999,
		PortBytes:   []int64{1000, 2000},
		SenderBytes: [][]int64{{100, 200, 300, 400}, {150, 250, 350, 450}},
	}
	cases := []struct {
		name string
		agg  []int64
	}{
		{"absent", nil},
		{"same", []int64{1000, 2000}},
		{"delta", []int64{1003, 2007}},
		{"explicit", []int64{5, 6, 7}}, // different length than PortBytes
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			win := base
			win.AggPortBytes = tc.agg
			raw := record(t, testHeader(), func(w *Writer) {
				w.Window(&win, false, nil, nil)
			})
			_, recs := readAll(t, raw)
			if len(recs) != 2 || recs[0].Window == nil {
				t.Fatalf("records: %d", len(recs))
			}
			got := recs[0].Window
			want := &WindowRecord{
				Job: win.Job, LeafOrd: win.LeafOrdinal, Iter: win.Iter,
				OpenedAt: win.OpenedAt, ClosedAt: win.ClosedAt,
				Packets: win.Packets, PortBytes: win.PortBytes,
				AggPortBytes: tc.agg, SenderBytes: win.SenderBytes,
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("window round-trip:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

func TestWindowRoundTripPredictions(t *testing.T) {
	// Non-finite and extreme values survive the XOR fold bit-for-bit,
	// and an unchanged prediction on the next window decodes back to
	// the same values from its one-byte-per-float encoding.
	port := []float64{math.Inf(1), math.Inf(-1), 1e300, -5e-324, 0}
	sender := [][]float64{{1.5, math.Inf(1)}, {0, -0.0}}
	win := telemetry.Window{
		LeafOrdinal: 2,
		ClosedAt:    sim.Time(5 * sim.Microsecond),
		PortBytes:   []int64{1, 2, 3, 4, 5},
		SenderBytes: [][]int64{{9, 8}, {7, 6}},
	}
	raw := record(t, testHeader(), func(w *Writer) {
		w.Window(&win, true, port, sender)
		win2 := win
		win2.Iter = 1
		win2.ClosedAt += sim.Time(50 * sim.Microsecond)
		w.Window(&win2, true, port, sender)
	})
	_, recs := readAll(t, raw)
	if len(recs) != 3 {
		t.Fatalf("records: %d", len(recs))
	}
	for i, rec := range recs[:2] {
		w := rec.Window
		if !w.Ready {
			t.Fatalf("window %d: not ready", i)
		}
		if !reflect.DeepEqual(w.PortPred, port) || !reflect.DeepEqual(w.SenderPred, sender) {
			t.Fatalf("window %d predictions:\n got %v %v\nwant %v %v",
				i, w.PortPred, w.SenderPred, port, sender)
		}
	}
}

func TestEventActionProbeFaultRoundTrip(t *testing.T) {
	ev := monitor.Event{
		Alert: detect.Alert{
			Leaf: 1, LeafOrdinal: 1, Level: topology.Leaf, Uplink: 1,
			Job: 3, Iter: 4, At: sim.Time(70 * sim.Microsecond),
			Predicted: 1 << 20, Observed: 900_000, Deviation: -0.14,
		},
		Verdict: localize.Verdict{
			Kind:            localize.LocalLink,
			Links:           []topology.LinkID{12},
			AffectedSenders: []int{0, 2},
			CleanSenders:    []int{1, 3},
		},
	}
	act := remediate.Action{
		At: sim.Time(80 * sim.Microsecond), Kind: remediate.ActionQuarantine,
		Link: 12, Detail: "leaf 1 / spine 0",
	}
	fault := FaultRecord{
		At: sim.Time(30 * sim.Microsecond), Kind: "flap",
		LeafOrd: 1, SpineOrd: 0, Upstream: true, Rate: 0.05, OnsetIter: 2,
		FlapPeriod: 2 * sim.Millisecond, FlapDown: sim.Millisecond,
	}
	raw := record(t, testHeader(), func(w *Writer) {
		w.Fault(fault)
		w.Event(ev)
		w.Action(act)
		w.ProbeRound(sim.Time(90*sim.Microsecond), 12, 128, 3)
	})
	_, recs := readAll(t, raw)
	if len(recs) != 5 {
		t.Fatalf("records: %d", len(recs))
	}
	// The decoder resolves Alert.Leaf from the rebuilt topology.
	if !reflect.DeepEqual(recs[0].Fault, &fault) {
		t.Fatalf("fault: got %+v want %+v", recs[0].Fault, &fault)
	}
	if !reflect.DeepEqual(recs[1].Event, &ev) {
		t.Fatalf("event: got %+v want %+v", recs[1].Event, &ev)
	}
	if !reflect.DeepEqual(recs[2].Action, &act) {
		t.Fatalf("action: got %+v want %+v", recs[2].Action, &act)
	}
	wantProbe := &ProbeRecord{At: sim.Time(90 * sim.Microsecond), Link: 12, Sent: 128, Lost: 3}
	if !reflect.DeepEqual(recs[3].Probe, wantProbe) {
		t.Fatalf("probe: got %+v want %+v", recs[3].Probe, wantProbe)
	}
	tr := recs[4].Trailer
	if tr == nil || tr.Events != 1 || tr.Actions != 1 || tr.ProbeRounds != 1 || tr.Faults != 1 {
		t.Fatalf("trailer: %+v", tr)
	}
	if tr.EndTime != 42*sim.Time(sim.Millisecond) {
		t.Fatalf("trailer end time: %v", tr.EndTime)
	}
}

// frameRaw appends payload as one framed record to b, exactly as the
// Writer does.
func frameRaw(b []byte, payload []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(payload)))
	b = append(b, payload...)
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(payload, castagnoli))
}

func TestReaderSkipsUnknownKinds(t *testing.T) {
	raw := record(t, testHeader(), func(w *Writer) {
		w.ProbeRound(sim.Time(sim.Microsecond), 3, 10, 0)
	})
	// Splice a future-kind record between the probe and the trailer: a
	// version-1 reader must skip it by frame and keep going.
	frames := splitFrames(t, raw)
	spliced := append([]byte{}, raw[:frames[1]]...)
	spliced = frameRaw(spliced, []byte{200, 0xde, 0xad, 0xbe, 0xef})
	spliced = append(spliced, raw[frames[1]:]...)

	_, recs := readAll(t, spliced)
	if len(recs) != 2 || recs[0].Probe == nil || recs[1].Trailer == nil {
		t.Fatalf("unknown kind not skipped cleanly: %d records", len(recs))
	}
}

// splitFrames returns the byte offset of each frame end (magic skipped).
func splitFrames(t *testing.T, raw []byte) []int {
	t.Helper()
	var ends []int
	off := len(Magic)
	for off < len(raw) {
		n, sz := binary.Uvarint(raw[off:])
		if sz <= 0 {
			t.Fatalf("bad frame length at offset %d", off)
		}
		off += sz + int(n) + 4
		ends = append(ends, off)
	}
	return ends
}

func TestReaderErrors(t *testing.T) {
	valid := record(t, testHeader(), func(w *Writer) {
		w.ProbeRound(sim.Time(sim.Microsecond), 3, 10, 0)
	})

	t.Run("bad magic", func(t *testing.T) {
		raw := append([]byte{}, valid...)
		raw[0] = 'X'
		if _, err := NewReader(bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), "bad magic") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("truncated magic", func(t *testing.T) {
		if _, err := NewReader(bytes.NewReader(valid[:5])); err == nil {
			t.Fatal("no error")
		}
	})
	t.Run("unsupported version", func(t *testing.T) {
		// Patch the header's FormatVersion varint (payload byte 1) and
		// re-checksum the frame.
		raw := append([]byte{}, valid...)
		off := len(Magic)
		n, sz := binary.Uvarint(raw[off:])
		payload := raw[off+sz : off+sz+int(n)]
		payload[1] = Version + 1
		binary.LittleEndian.PutUint32(raw[off+sz+int(n):], crc32.Checksum(payload, castagnoli))
		if _, err := NewReader(bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), "unsupported") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("corrupt frame", func(t *testing.T) {
		raw := append([]byte{}, valid...)
		frames := splitFrames(t, raw)
		raw[frames[0]+3] ^= 0x40 // flip a bit inside the probe payload
		r, err := NewReader(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("NewReader: %v", err)
		}
		if _, err := r.Next(); err == nil || !strings.Contains(err.Error(), "CRC") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("truncated frame", func(t *testing.T) {
		frames := splitFrames(t, valid)
		r, err := NewReader(bytes.NewReader(valid[:frames[0]+2]))
		if err != nil {
			t.Fatalf("NewReader: %v", err)
		}
		if _, err := r.Next(); err == nil || err == io.EOF {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("duplicate header", func(t *testing.T) {
		frames := splitFrames(t, valid)
		raw := append([]byte{}, valid...)
		raw = append(raw, valid[len(Magic):frames[0]]...)
		r, err := NewReader(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("NewReader: %v", err)
		}
		for {
			_, err = r.Next()
			if err != nil {
				break
			}
		}
		if !strings.Contains(err.Error(), "duplicate header") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("bad detector setting", func(t *testing.T) {
		for _, bad := range []func(*JobHeader){
			func(j *JobHeader) { j.Threshold = -1 },
			func(j *JobHeader) { j.MinPredicted = math.NaN() },
			func(j *JobHeader) { j.CEDiscount = math.Inf(1) },
		} {
			h := testHeader()
			bad(&h.Jobs[0])
			raw := record(t, h, func(w *Writer) {})
			if _, err := NewReader(bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), "must be finite and ≥ 0") {
				t.Errorf("header job %+v: err = %v", h.Jobs[0], err)
			}
		}
	})
	t.Run("bad topology", func(t *testing.T) {
		h := testHeader()
		h.Leaves = 0
		h.Spines = 0
		raw := record(t, h, func(w *Writer) {})
		if _, err := NewReader(bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), "topology") {
			t.Fatalf("err = %v", err)
		}
	})
}

func TestWriterMisuse(t *testing.T) {
	t.Run("begin twice", func(t *testing.T) {
		w := NewWriter(io.Discard)
		if err := w.Begin(testHeader()); err != nil {
			t.Fatal(err)
		}
		if err := w.Begin(testHeader()); err == nil || !strings.Contains(err.Error(), "twice") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("record before begin", func(t *testing.T) {
		w := NewWriter(io.Discard)
		w.ProbeRound(0, 1, 1, 0)
		if err := w.Err(); err == nil || !strings.Contains(err.Error(), "before Begin") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("finish before begin", func(t *testing.T) {
		w := NewWriter(io.Discard)
		if err := w.Finish(0); err == nil || !strings.Contains(err.Error(), "Begin") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("record after finish is dropped", func(t *testing.T) {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.Begin(testHeader()); err != nil {
			t.Fatal(err)
		}
		if err := w.Finish(0); err != nil {
			t.Fatal(err)
		}
		n := buf.Len()
		w.ProbeRound(0, 1, 1, 0)
		if err := w.Err(); err != nil {
			t.Fatalf("post-finish record errored: %v", err)
		}
		if buf.Len() != n {
			t.Fatal("post-finish record reached the stream")
		}
	})
}
