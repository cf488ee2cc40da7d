package main

import (
	"bytes"
	"math"
	"testing"

	"flowpulse"
	"flowpulse/internal/trace"
)

var (
	testSpecA = recSpec{label: "A", leaves: 8, spines: 4, iters: 40, plantEvery: 10}
	testSpecB = recSpec{label: "B", leaves: 4, spines: 2, iters: 600, plantEvery: 100}
)

func mustSynthesize(t *testing.T, spec recSpec, seed uint64) *recording {
	t.Helper()
	rec, err := synthesize(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

func TestSplitFramesRoundTrip(t *testing.T) {
	rec := mustSynthesize(t, testSpecA, 7)
	frames, err := splitFrames(rec.raw)
	if err != nil {
		t.Fatal(err)
	}
	// Frames tile the stream exactly: magic, then back-to-back frames
	// to the last byte.
	at, windows := len(trace.Magic), 0
	for i, f := range frames {
		if f.off != at {
			t.Fatalf("frame %d starts at %d, previous ended at %d", i, f.off, at)
		}
		at = f.end
		if f.kind == trace.KindWindow {
			windows++
		}
	}
	if at != len(rec.raw) {
		t.Fatalf("frames end at %d of %d bytes", at, len(rec.raw))
	}
	if windows != rec.windows {
		t.Fatalf("%d window frames, recording has %d windows", windows, rec.windows)
	}
	if first, last := frames[0].kind, frames[len(frames)-1].kind; first != trace.KindHeader || last != trace.KindTrailer {
		t.Fatalf("stream runs kind %d … kind %d, want header … trailer", first, last)
	}

	// The paced producer's cut loses nothing and has one burst per
	// iteration, each opening on that iteration's first window.
	preamble, iters := bursts(rec.raw, frames)
	if len(iters) != testSpecA.iters {
		t.Fatalf("%d bursts for %d iterations", len(iters), testSpecA.iters)
	}
	if joined := append(append([]byte(nil), preamble...), bytes.Join(iters, nil)...); !bytes.Equal(joined, rec.raw) {
		t.Fatal("preamble + bursts differ from the recording")
	}
}

func TestRecordingsReplayExactly(t *testing.T) {
	for _, spec := range []recSpec{testSpecA, testSpecB} {
		rec := mustSynthesize(t, spec, 3)
		rr, err := trace.Replay(bytes.NewReader(rec.raw), trace.ReplayOptions{})
		if err != nil {
			t.Fatalf("%s: %v", spec.label, err)
		}
		switch {
		case !rr.Matches():
			t.Errorf("%s: offline replay does not reproduce the trailer fingerprint", spec.label)
		case rr.EventCount != len(rec.planted) || len(rec.planted) != spec.iters/spec.plantEvery:
			t.Errorf("%s: %d events, %d planted, want %d", spec.label, rr.EventCount, len(rec.planted), spec.iters/spec.plantEvery)
		case rr.Fingerprint != rec.fingerprint || rr.BucketFingerprint != rec.bucketFP:
			t.Errorf("%s: recording carries fingerprints %x/%x, replay gives %x/%x",
				spec.label, rec.fingerprint, rec.bucketFP, rr.Fingerprint, rr.BucketFingerprint)
		case len(rr.RecordedEvents) != len(rec.planted):
			t.Errorf("%s: %d event records in the stream, want %d", spec.label, len(rr.RecordedEvents), len(rec.planted))
		}
		// Every event is the planted one: same window, same port, a
		// remote-link verdict naming the planted sender.
		for i, e := range rr.Events {
			p := rec.planted[i]
			if e.Alert.Iter != p.iter || e.Alert.LeafOrdinal != p.leaf || e.Alert.Uplink != p.uplink ||
				len(e.Verdict.AffectedSenders) != 1 || e.Verdict.AffectedSenders[0] != p.sender {
				t.Errorf("%s: event %d is %v %v, planted %+v", spec.label, i, e.Alert, e.Verdict, p)
			}
		}
	}
}

func TestSeedDrivesTheInputs(t *testing.T) {
	a, b := mustSynthesize(t, testSpecA, 11), mustSynthesize(t, testSpecA, 11)
	if !bytes.Equal(a.raw, b.raw) {
		t.Error("same seed, different bytes")
	}
	c := mustSynthesize(t, testSpecA, 12)
	if bytes.Equal(a.raw, c.raw) || a.planted[0] == c.planted[0] {
		t.Errorf("seeds 11 and 12 plant the same first site %+v", a.planted[0])
	}
	// Whatever the seed, a full cycle of plants visits every burst
	// position once (what keeps the alert-latency median seed-free).
	spec := recSpec{leaves: 8, spines: 4, iters: 80, plantEvery: 10}
	seen := map[int]bool{}
	for _, p := range plantSites(spec, 5) {
		seen[p.leaf] = true
	}
	if len(seen) != spec.leaves {
		t.Errorf("8 plants cover %d of 8 leaves", len(seen))
	}

	s := simSpec{leaves: 32, spines: 16}
	links := map[flowpulse.Link]bool{}
	for seed := uint64(1); seed <= 8; seed++ {
		if s.faultLink(seed) != s.faultLink(seed) {
			t.Fatal("fault link is not a function of the seed")
		}
		links[s.faultLink(seed)] = true
	}
	if len(links) < 6 {
		t.Errorf("8 seeds give only %d distinct fault links", len(links))
	}
}

func TestSpreadIsPythonsExclusiveQuartiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	vs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := spread(vs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := spread([]float64{2, 4}); got != 2.0/3 {
		t.Errorf("two-value spread = %v, want range/median", got)
	}
}

func TestCatalogueMatchesJSON(t *testing.T) {
	b, err := loadBenchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness runs %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the harness", i, w.Name, workloads[i].name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the harness %d+%d", len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range b.EndToEnd {
		if d := endToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end_to_end[%d]: %+v in BENCHMARK.json, %+v in the harness", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for i, m := range b.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d]: %+v in BENCHMARK.json, %+v in the harness", i, m, d)
		}
	}
}
