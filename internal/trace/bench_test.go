package trace_test

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"flowpulse/internal/sim"
	"flowpulse/internal/telemetry"
	"flowpulse/internal/trace"
)

// benchWriter returns a Writer past its header with a representative
// window: an 8-leaf fabric's uplink vector and sender matrix, the
// shape every fig5a trial records per (leaf, iteration).
func benchWriter(tb testing.TB) (*trace.Writer, *telemetry.Window, []float64, [][]float64) {
	tb.Helper()
	w := trace.NewWriter(io.Discard)
	h := trace.Header{
		Label:  "bench",
		Leaves: 8, Spines: 4, HostsPerLeaf: 1, Trunk: 1,
		Jobs: []trace.JobHeader{{Predictor: "analytical", Threshold: 0.01}},
	}
	if err := w.Begin(h); err != nil {
		tb.Fatalf("Begin: %v", err)
	}
	win := &telemetry.Window{
		LeafOrdinal: 3,
		PortBytes:   make([]int64, 4),
		SenderBytes: make([][]int64, 4),
		Packets:     4096,
	}
	port := make([]float64, 4)
	sender := make([][]float64, 4)
	for u := range win.SenderBytes {
		win.PortBytes[u] = int64(1 << 20)
		win.SenderBytes[u] = make([]int64, 8)
		port[u] = float64(uint64(1) << 20)
		sender[u] = make([]float64, 8)
		for l := range sender[u] {
			win.SenderBytes[u][l] = int64(128 << 10)
			sender[u][l] = float64(128 << 10)
		}
	}
	return w, win, port, sender
}

// advance mutates the window the way a live run does between closes:
// the clock moves, counters drift slightly.
func advance(win *telemetry.Window, i int) {
	win.Iter = uint32(i)
	win.OpenedAt = win.ClosedAt
	win.ClosedAt += sim.Time(50 * sim.Microsecond)
	win.Packets += int64(i & 7)
	win.PortBytes[i&3] += int64(i & 1023)
	win.SenderBytes[i&3][i&7] += int64(i & 255)
}

func BenchmarkTraceEncode(b *testing.B) {
	w, win, port, sender := benchWriter(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		advance(win, i)
		w.Window(win, true, port, sender)
	}
	b.StopTimer()
	if err := w.Err(); err != nil {
		b.Fatal(err)
	}
	// bytes/op of trace output, for eyeballing encoding efficiency.
	b.SetBytes(int64(len(win.PortBytes)*8 + len(win.SenderBytes)*8*8))
}

// TestTraceEncodeAllocs is the allocation budget: once the payload
// buffer and prediction caches have warmed up, recording a window must
// not allocate — the Writer sits on the monitor's window-close path.
func TestTraceEncodeAllocs(t *testing.T) {
	w, win, port, sender := benchWriter(t)
	i := 0
	rec := func() {
		advance(win, i)
		i++
		w.Window(win, true, port, sender)
	}
	for n := 0; n < 16; n++ { // warm up buffer growth and caches
		rec()
	}
	if avg := testing.AllocsPerRun(200, rec); avg != 0 {
		t.Fatalf("steady-state window record allocates: %v allocs/op", avg)
	}
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
}

// benchRecording synthesizes a recording of a stable baseline on a
// leaves×spines fabric, the shape the format is built for: every other
// leaf sends the same bytes to every uplink, prediction == observation,
// so after each leaf's first window nearly every value is one zero
// byte. With noisy set nothing repeats — every sender cell and its
// prediction move every window, so every delta and XOR word is
// multi-byte — which is the decoder's worst case, not a workload. It
// returns the stream and its window count.
func benchRecording(tb testing.TB, leaves, spines, iters int, noisy bool) ([]byte, int) {
	tb.Helper()
	const senderBytes = 128 << 10
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	err := w.Begin(trace.Header{
		Label:  "bench",
		Leaves: leaves, Spines: spines, HostsPerLeaf: 1, Trunk: 1,
		Jobs: []trace.JobHeader{{Predictor: "analytical", Threshold: 0.01, MinPredicted: 4160}},
	})
	if err != nil {
		tb.Fatalf("Begin: %v", err)
	}
	win := telemetry.Window{PortBytes: make([]int64, spines), SenderBytes: make([][]int64, spines)}
	win.AggPortBytes = win.PortBytes
	port := make([]float64, spines)
	sender := make([][]float64, spines)
	for u := range sender {
		win.SenderBytes[u] = make([]int64, leaves)
		sender[u] = make([]float64, leaves)
	}
	const step = 250 * sim.Microsecond
	for it := 1; it <= iters; it++ {
		for l := 0; l < leaves; l++ {
			for u := range sender {
				port[u] = 0
				for s := range sender[u] {
					v := int64(senderBytes)
					if s == l {
						v = 0 // a leaf never receives from itself over an uplink
					} else if noisy {
						v += int64((it*31+l*17+u*13+s*7)%4096) << 8
					}
					win.SenderBytes[u][s], sender[u][s] = v, float64(v)
					port[u] += float64(v)
				}
				win.PortBytes[u] = int64(port[u])
			}
			win.LeafOrdinal, win.Iter = l, uint32(it)
			win.OpenedAt = sim.Time(it-1) * sim.Time(step)
			win.ClosedAt = win.OpenedAt + sim.Time(step) + sim.Time(l)
			win.Packets = win.Total() / 4160
			w.Window(&win, true, port, sender)
		}
	}
	if err := w.Finish(win.ClosedAt); err != nil {
		tb.Fatalf("Finish: %v", err)
	}
	return buf.Bytes(), leaves * iters
}

var benchShapes = []struct {
	name                  string
	leaves, spines, iters int
	noisy                 bool
}{
	{"32x16", 32, 16, 64, false},
	{"4x2", 4, 2, 2048, false},
	{"32x16-noisy", 32, 16, 64, true},
}

// BenchmarkTraceDecode is the decode cost of one window frame (framing,
// CRC and the window kernels): "slot" is NextInto into one reused
// WindowRecord — what serve, Replay and the CLI do — and "alloc" is
// Next, which builds a fresh record per window.
func BenchmarkTraceDecode(b *testing.B) {
	for _, shape := range benchShapes {
		raw, windows := benchRecording(b, shape.leaves, shape.spines, shape.iters, shape.noisy)
		for _, mode := range []string{"slot", "alloc"} {
			b.Run(shape.name+"/"+mode, func(b *testing.B) {
				var slot trace.WindowRecord
				dest := func(uint16, int) *trace.WindowRecord { return &slot }
				if mode == "alloc" {
					dest = nil
				}
				b.ReportAllocs()
				b.SetBytes(int64(len(raw) / windows))
				var rd *trace.Reader
				for i := 0; i < b.N; { // one op = one window
					if rd == nil {
						b.StopTimer()
						var err error
						if rd, err = trace.NewReader(bytes.NewReader(raw)); err != nil {
							b.Fatal(err)
						}
						b.StartTimer()
					}
					rec, err := rd.NextInto(dest)
					if err != nil {
						b.Fatal(err)
					}
					if rec.Kind == trace.KindTrailer {
						rd = nil // next pass starts a fresh stream
						continue
					}
					i++
				}
			})
		}
	}
}

// BenchmarkTraceReplay is one offline Replay of the 32×16 recording:
// decode into the reused slot, detect, and one compact score record
// per window. ns/window is the per-window figure.
func BenchmarkTraceReplay(b *testing.B) {
	shape := benchShapes[0]
	raw, windows := benchRecording(b, shape.leaves, shape.spines, shape.iters, shape.noisy)
	b.Run(shape.name, func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(raw)))
		for i := 0; i < b.N; i++ {
			res, err := trace.Replay(bytes.NewReader(raw), trace.ReplayOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if res.Windows != windows || !res.Matches() {
				b.Fatalf("replayed %d of %d windows, matches=%v", res.Windows, windows, res.Matches())
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*windows), "ns/window")
	})
}

// TestReplayAllocs is the offline path's allocation budget: a
// history-keeping Replay of the 32×16 shape may allocate only its score
// arena's chunks and slabs and the Scores slice's growth — a small
// fraction of an allocation per window, where cloning every window
// cost five. The long recording minus the short one cancels the
// per-replay set-up (reader, topology, pipelines, prediction caches).
func TestReplayAllocs(t *testing.T) {
	const short, extra = 8, 48 // iterations; × 32 leaves = windows
	shape := benchShapes[0]
	measure := func(iters int) float64 {
		raw, _ := benchRecording(t, shape.leaves, shape.spines, iters, shape.noisy)
		return testing.AllocsPerRun(5, func() {
			res, err := trace.Replay(bytes.NewReader(raw), trace.ReplayOptions{})
			if err != nil || !res.Matches() {
				panic(fmt.Sprintf("replay: %v", err))
			}
		})
	}
	aShort, aLong := measure(short), measure(short+extra)
	perWindow := (aLong - aShort) / float64(extra*shape.leaves)
	if perWindow > 0.05 {
		t.Fatalf("history-keeping replay: %.3f allocs/window past set-up (short=%v long=%v), want ≤ 0.05",
			perWindow, aShort, aLong)
	}
	t.Logf("%.4f allocs/window past set-up (short=%v long=%v)", perWindow, aShort, aLong)
}

// TestTraceDecodeAllocs is the decode-side allocation budget: once the
// slot's slices and the leaf's prediction cache exist, NextInto into a
// reused slot must not allocate — it sits on every serve session's
// read loop and on Replay.
func TestTraceDecodeAllocs(t *testing.T) {
	for _, shape := range benchShapes {
		t.Run(shape.name, func(t *testing.T) {
			const warm, runs = 2, 200 // iterations to warm up, windows measured
			raw, _ := benchRecording(t, shape.leaves, shape.spines, warm+runs/shape.leaves+2, shape.noisy)
			rd, err := trace.NewReader(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			var slot trace.WindowRecord
			dest := func(uint16, int) *trace.WindowRecord { return &slot }
			next := func() {
				rec, err := rd.NextInto(dest)
				if err != nil || rec.Kind != trace.KindWindow {
					panic(fmt.Sprintf("kind %d, err %v", rec.Kind, err))
				}
			}
			for n := 0; n < warm*shape.leaves; n++ { // every leaf's cache, the slot, the stash
				next()
			}
			if avg := testing.AllocsPerRun(runs, next); avg != 0 {
				t.Fatalf("steady-state window decode allocates: %v allocs/window", avg)
			}
		})
	}
}
