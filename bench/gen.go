package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"time"

	"flowpulse/internal/monitor"
	"flowpulse/internal/sim"
	"flowpulse/internal/telemetry"
	"flowpulse/internal/trace"
)

// The harness synthesizes its recordings itself — windows are built
// here, never by running the simulator — so the replay and serve
// workloads measure the decode/detect/serve layers against inputs
// whose every alert is known in advance.

// senderBytes is what every remote sender contributes to every uplink
// of a synthesized window. It sits well above detect's MinPredicted so
// every (port, sender) cell is scored.
const senderBytes = 128 << 10

// detectThreshold is the recorded detector threshold; a planted
// deviation is a deficit of twice this on one port.
const detectThreshold = 0.01

// recSpec shapes one synthesized recording.
type recSpec struct {
	label          string
	leaves, spines int
	iters          int // one window per leaf per iteration
	plantEvery     int // a deviation is planted on every plantEvery-th iteration
}

// plant is one planted deviation: on iteration iter, leaf's uplink
// loses 2×threshold of its bytes, all of it from one sender.
type plant struct {
	iter                 uint32
	leaf, uplink, sender int
}

// recording is a synthesized .fpt stream plus everything the gates
// need to know about it.
type recording struct {
	spec    recSpec
	raw     []byte
	windows int
	planted []plant
	// fingerprint is the trailer (= offline sequential) fingerprint;
	// bucketFP the order-insensitive offline sum a fanout session must
	// reproduce.
	fingerprint, bucketFP uint64
	genTime               time.Duration
}

// describe records what the recording itself contributes to the
// per-layer metrics.
func (rec *recording) describe(res *result) {
	res.layer["detect.alerts_per_kwindow"] = 1000 * float64(len(rec.planted)) / float64(rec.windows)
	res.layer["trace.bytes_per_window"] = float64(len(rec.raw)) / float64(rec.windows)
	res.layer["bench.gen_s"] = rec.genTime.Seconds()
}

// plantSites draws the deviation sites from the seed. Leaves are taken
// from a repeating seeded permutation, so every position inside an
// iteration's burst is used equally often whatever the seed: the seed
// moves the sites, not the distribution a latency median is taken over.
func plantSites(spec recSpec, seed uint64) []plant {
	rng := rand.New(rand.NewSource(int64(seed)))
	perm := rng.Perm(spec.leaves)
	var out []plant
	for it := spec.plantEvery; it <= spec.iters; it += spec.plantEvery {
		leaf := perm[len(out)%spec.leaves]
		sender := rng.Intn(spec.leaves - 1)
		if sender >= leaf {
			sender++ // a leaf never receives from itself over an uplink
		}
		out = append(out, plant{iter: uint32(it), leaf: leaf, uplink: rng.Intn(spec.spines), sender: sender})
	}
	return out
}

// synthesize builds a recording in two passes: windows only, replayed
// offline to learn the events the detector raises, then rewritten with
// each event recorded after its causing window — so the trailer
// fingerprint is the one a faithful replay (or served session) must
// reproduce.
func synthesize(spec recSpec, seed uint64) (*recording, error) {
	start := time.Now()
	rec := &recording{spec: spec, windows: spec.iters * spec.leaves, planted: plantSites(spec, seed)}

	first, err := encodeRecording(spec, rec.planted, nil)
	if err != nil {
		return nil, err
	}
	events, res, err := replayEvents(first)
	if err != nil {
		return nil, fmt.Errorf("gen %s: first-pass replay: %w", spec.label, err)
	}
	if len(events) != len(rec.planted) {
		return nil, fmt.Errorf("gen %s: detector raised %d events for %d planted deviations", spec.label, len(events), len(rec.planted))
	}
	rec.raw, err = encodeRecording(spec, rec.planted, events)
	if err != nil {
		return nil, err
	}
	rec.fingerprint, rec.bucketFP = res.Fingerprint, res.BucketFingerprint
	rec.genTime = time.Since(start)
	return rec, nil
}

// eventKey addresses the window an event belongs to.
type eventKey struct {
	iter uint32
	leaf int
}

// encodeRecording writes header, every window (prediction ==
// observation except at the planted sites), the given events after
// their causing windows, and the trailer.
func encodeRecording(spec recSpec, planted []plant, events []monitor.Event) ([]byte, error) {
	byWindow := make(map[eventKey][]monitor.Event, len(events))
	for _, e := range events {
		k := eventKey{e.Alert.Iter, e.Alert.LeafOrdinal}
		byWindow[k] = append(byWindow[k], e)
	}
	plantAt := make(map[eventKey]plant, len(planted))
	for _, p := range planted {
		plantAt[eventKey{p.iter, p.leaf}] = p
	}

	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	err := w.Begin(trace.Header{
		Label:  spec.label,
		Leaves: spec.leaves, Spines: spec.spines, HostsPerLeaf: 1, Trunk: 1,
		Jobs: []trace.JobHeader{{Predictor: "analytical", Threshold: detectThreshold, MinPredicted: 4160}},
	})
	if err != nil {
		return nil, err
	}

	// One prediction per leaf: every other leaf sends senderBytes to
	// every uplink.
	portPred := make([][]float64, spec.leaves)
	senderPred := make([][][]float64, spec.leaves)
	for l := range portPred {
		portPred[l] = make([]float64, spec.spines)
		senderPred[l] = make([][]float64, spec.spines)
		for u := range senderPred[l] {
			senderPred[l][u] = make([]float64, spec.leaves)
			for s := range senderPred[l][u] {
				if s != l {
					senderPred[l][u][s] = senderBytes
					portPred[l][u] += senderBytes
				}
			}
		}
	}

	win := telemetry.Window{PortBytes: make([]int64, spec.spines), SenderBytes: make([][]int64, spec.spines)}
	for u := range win.SenderBytes {
		win.SenderBytes[u] = make([]int64, spec.leaves)
	}
	win.AggPortBytes = win.PortBytes // a lone job's aggregate view equals its own
	const step = 250 * sim.Microsecond
	var now sim.Time
	for it := 1; it <= spec.iters; it++ {
		opened := sim.Time(it-1) * sim.Time(step)
		for l := 0; l < spec.leaves; l++ {
			for u := range win.PortBytes {
				win.PortBytes[u] = int64(portPred[l][u])
				for s := range win.SenderBytes[u] {
					win.SenderBytes[u][s] = int64(senderPred[l][u][s])
				}
			}
			k := eventKey{uint32(it), l}
			if p, ok := plantAt[k]; ok {
				deficit := int64(2 * detectThreshold * portPred[l][p.uplink])
				win.PortBytes[p.uplink] -= deficit
				win.SenderBytes[p.uplink][p.sender] -= deficit
			}
			win.LeafOrdinal, win.Iter = l, uint32(it)
			win.OpenedAt = opened
			win.ClosedAt = opened + sim.Time(step) + sim.Time(l)*sim.Time(sim.Nanosecond)
			win.Packets = win.Total() / 4160
			now = win.ClosedAt
			w.Window(&win, true, portPred[l], senderPred[l])
			for _, e := range byWindow[k] {
				w.Event(e)
			}
		}
	}
	if err := w.Finish(now); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// replayEvents replays a recording offline without retaining windows
// (recording B has a million of them) and returns the events the
// detect → localize stack raised, in order, with the sealed result.
func replayEvents(raw []byte) ([]monitor.Event, *trace.ReplayResult, error) {
	rd, err := trace.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, nil, err
	}
	rp, err := trace.NewReplayer(rd.Header(), rd.Topo(), trace.ReplayOptions{NoHistory: true})
	if err != nil {
		return nil, nil, err
	}
	var events []monitor.Event
	rp.OnEvent = func(e monitor.Event) { events = append(events, e) }
	var slot trace.WindowRecord
	for {
		rec, err := rd.NextInto(func(uint16, int) *trace.WindowRecord { return &slot })
		if err == io.EOF {
			return events, rp.Result(), nil
		}
		if err != nil {
			return nil, nil, err
		}
		if err := rp.Feed(&rec); err != nil {
			return nil, nil, err
		}
	}
}

// frame is one framed record of a recording: raw[off:end] is
// uvarint(len) ‖ payload ‖ CRC32C(payload).
type frame struct {
	off, end int
	kind     byte
	// leaf and iter are decoded for window frames only.
	leaf int
	iter uint32
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// splitFrames parses a recording's framing (not its records): the
// pacing generator sends whole frames, grouped by iteration. Every CRC
// is verified, so a corrupted input fails here rather than as a
// mysterious server-side error.
func splitFrames(raw []byte) ([]frame, error) {
	if len(raw) < len(trace.Magic) || !bytes.Equal(raw[:len(trace.Magic)], trace.Magic[:]) {
		return nil, fmt.Errorf("split: bad magic")
	}
	var out []frame
	for off := len(trace.Magic); off < len(raw); {
		n, w := binary.Uvarint(raw[off:])
		if w <= 0 || n == 0 {
			return nil, fmt.Errorf("split: bad frame length at offset %d", off)
		}
		end := off + w + int(n) + 4
		if end > len(raw) {
			return nil, fmt.Errorf("split: frame at offset %d runs past the end", off)
		}
		payload := raw[off+w : off+w+int(n)]
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(raw[end-4:]) {
			return nil, fmt.Errorf("split: frame at offset %d fails its CRC", off)
		}
		f := frame{off: off, end: end, kind: payload[0]}
		if f.kind == trace.KindWindow {
			p := payload[1:]
			_, k := binary.Uvarint(p) // job
			leaf, k2 := binary.Uvarint(p[k:])
			iter, _ := binary.Uvarint(p[k+k2:])
			f.leaf, f.iter = int(leaf), uint32(iter)
		}
		out = append(out, f)
		off = end
	}
	return out, nil
}

// bursts cuts a recording into the byte ranges the paced producer
// writes: the preamble (magic + header) and then one range per
// iteration — its windows and the event frames that follow them. The
// trailer rides with the last iteration.
func bursts(raw []byte, frames []frame) (preamble []byte, iters [][]byte) {
	start := -1
	var cur uint32
	for _, f := range frames {
		if f.kind != trace.KindWindow {
			continue
		}
		if start < 0 {
			preamble = raw[:f.off]
		} else if f.iter != cur {
			iters = append(iters, raw[start:f.off])
		} else {
			continue
		}
		start, cur = f.off, f.iter
	}
	if start >= 0 {
		iters = append(iters, raw[start:])
	}
	return preamble, iters
}
