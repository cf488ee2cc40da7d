package serve

import (
	"bytes"
	"fmt"
	"testing"

	"flowpulse/internal/sim"
	"flowpulse/internal/telemetry"
	"flowpulse/internal/trace"
)

// buildCleanStream encodes a synthetic recording: header + nWindows
// clean measurement windows (prediction == observation, so the
// detector scores every one and alerts on none — the service's steady
// state) + trailer.
func buildCleanStream(tb testing.TB, nWindows int) []byte {
	tb.Helper()
	return buildStream(tb, nWindows, -1)
}

// buildStream is buildCleanStream with window number deviant (if in
// range) carrying only a tenth of its second uplink's predicted bytes:
// one planted deviation, one alert.
func buildStream(tb testing.TB, nWindows, deviant int) []byte {
	tb.Helper()
	return encodeStream(tb, false, nWindows, func(i int, win *telemetry.Window) {
		if i == deviant {
			win.PortBytes[1] = 100
		}
	})
}

// encodeStream encodes a 4×2 recording of one job (job 0): header,
// nWindows windows whose observation equals their prediction, each
// handed to edit just before it is written, and trailer. shared marks
// the header multi-job, so a window's job tag must name a header job.
func encodeStream(tb testing.TB, shared bool, nWindows int, edit func(i int, win *telemetry.Window)) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	h := trace.Header{
		Label:  "bench",
		Leaves: 4, Spines: 2, HostsPerLeaf: 1, Trunk: 1, Shared: shared,
		Jobs: []trace.JobHeader{{Job: 0, Predictor: "analytical", Threshold: 0.05, MinPredicted: 1}},
	}
	if err := w.Begin(h); err != nil {
		tb.Fatal(err)
	}
	port := []float64{1000, 1000}
	senders := [][]float64{{250, 250, 250, 250}, {250, 250, 250, 250}}
	win := telemetry.Window{
		Packets:     8,
		PortBytes:   []int64{1000, 1000},
		SenderBytes: [][]int64{{250, 250, 250, 250}, {250, 250, 250, 250}},
	}
	step := sim.Time(50 * sim.Microsecond)
	for i := 0; i < nWindows; i++ {
		win.Job = 0
		win.LeafOrdinal = i % 4
		win.Iter = uint32(i/4 + 1)
		win.OpenedAt = sim.Time(i) * step
		win.ClosedAt = win.OpenedAt + step
		win.PortBytes[1] = 1000
		edit(i, &win)
		w.Window(&win, true, port, senders)
	}
	if err := w.Finish(sim.Time(nWindows) * step); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestServeIngestAllocFree is the acceptance gate for the hot path:
// past session setup (handshake, header, window-storage and XOR-cache
// warm-up — identical for both stream lengths, so it cancels in the
// difference), ingesting one window allocates NOTHING, in both modes.
func TestServeIngestAllocFree(t *testing.T) {
	const (
		base  = 64
		extra = 512
	)
	small := buildCleanStream(t, base)
	big := buildCleanStream(t, base+extra)
	for _, mode := range []string{ModeSeq, ModeFanout} {
		t.Run(mode, func(t *testing.T) {
			srv, err := New(Config{})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Drain(0)
			measure := func(raw []byte) float64 {
				return testing.AllocsPerRun(10, func() {
					st, err := srv.IngestStream(bytes.NewReader(raw), mode, "alloc")
					if err != nil || st.Events != 0 {
						panic(fmt.Sprintf("ingest: %v %+v", err, st))
					}
				})
			}
			aSmall := measure(small)
			aBig := measure(big)
			perWindow := (aBig - aSmall) / extra
			if perWindow > 0.01 {
				t.Errorf("%s: %.3f allocs per window past handshake (small=%v big=%v), want 0",
					mode, perWindow, aSmall, aBig)
			}
		})
	}
}

// BenchmarkServeIngest measures end-to-end ingestion throughput of the
// session path: decode, detect, score. Reported windows/s is
// the EXPERIMENTS.md "ingestion throughput" number.
func BenchmarkServeIngest(b *testing.B) {
	for _, mode := range []string{ModeSeq, ModeFanout} {
		b.Run(mode, func(b *testing.B) {
			srv, err := New(Config{})
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Drain(0)
			raw := buildCleanStream(b, b.N)
			b.ReportAllocs()
			b.ResetTimer()
			st, err := srv.IngestStream(bytes.NewReader(raw), mode, "bench")
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if st.Windows != int64(b.N) {
				b.Fatalf("ingested %d windows, want %d", st.Windows, b.N)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "windows/s")
		})
	}
}
