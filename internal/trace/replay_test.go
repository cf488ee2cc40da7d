package trace_test

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"testing/iotest"

	"flowpulse/internal/core"
	"flowpulse/internal/experiments"
	"flowpulse/internal/metrics"
	"flowpulse/internal/monitor"
	"flowpulse/internal/sim"
	"flowpulse/internal/telemetry"
	"flowpulse/internal/trace"
)

// quickClean is quickTrial's fault onset: its clean iterations.
const quickClean = 2

// quickTrial is a small faulted run: 6×3 fabric, 2 clean + 5 faulty
// iterations with a 2% silent drop, background noise on (as the
// evaluation harness runs).
func quickTrial() experiments.Trial {
	return experiments.Trial{
		Scenario: core.Scenario{
			Leaves: 6, Spines: 3,
			BytesPerRank: 2 << 20,
			Iterations:   7,
			Faults:       []core.FaultSpec{{Kind: core.FaultBernoulli, Leaf: 2, Spine: 1, Rate: 0.02, Onset: quickClean}},
			Seed:         7,
			Background:   4 * sim.Microsecond,
		},
	}
}

// record runs the trial's scenario and monitor with tracing on and
// returns the online events plus the raw trace bytes.
func record(t *testing.T, tr experiments.Trial) ([]core.Event, []byte) {
	t.Helper()
	opts := tr.Monitor.AttachOptions()
	opts.TracePath, opts.TraceLabel = filepath.Join(t.TempDir(), "t.fpt"), "quick-trial"
	_, sys, err := core.Run(tr.Scenario, opts, nil)
	if err != nil {
		t.Fatalf("core.Run: %v", err)
	}
	raw, err := os.ReadFile(opts.TracePath)
	if err != nil {
		t.Fatalf("read trace: %v", err)
	}
	var events []core.Event
	for _, j := range sys.Jobs() {
		events = append(events, j.Pipeline.Events...)
	}
	return events, raw
}

func replay(t *testing.T, raw []byte, opts trace.ReplayOptions) *trace.ReplayResult {
	t.Helper()
	rr, err := trace.Replay(bytes.NewReader(raw), opts)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return rr
}

func TestReplayMatchesOnline(t *testing.T) {
	tr := quickTrial()
	events, raw := record(t, tr)
	if len(events) == 0 {
		t.Fatal("online run raised no events; trial too weak to test replay")
	}

	rr := replay(t, raw, trace.ReplayOptions{})
	if rr.Trailer == nil {
		t.Fatal("no trailer decoded")
	}
	if !rr.Matches() {
		t.Errorf("offline fingerprint %#x != recorded %#x", rr.Fingerprint, rr.Trailer.Fingerprint)
	}
	if got, want := len(rr.Events), len(events); got != want {
		t.Errorf("offline events = %d, online = %d", got, want)
	}
	if got, want := len(rr.RecordedEvents), len(events); got != want {
		t.Errorf("recorded events = %d, online = %d", got, want)
	}
	if got, want := uint64(rr.Windows), rr.Trailer.Windows; got != want {
		t.Errorf("replayed windows = %d, trailer says %d", got, want)
	}
	if got, want := rr.Trailer.Events, uint64(len(events)); got != want {
		t.Errorf("trailer events = %d, online = %d", got, want)
	}
	if len(rr.Faults) != 1 {
		t.Fatalf("faults = %d, want 1", len(rr.Faults))
	}
	f, want := rr.Faults[0], tr.Scenario.Faults[0]
	if f.LeafOrd != want.Leaf || f.SpineOrd != want.Spine ||
		f.Rate != want.Rate || int(f.OnsetIter) != want.Onset {
		t.Errorf("fault record %+v does not match injected fault", *f)
	}
	// The offline events must be field-identical to the online ones,
	// not just fingerprint-equal.
	for i := range rr.Events {
		if !reflect.DeepEqual(rr.Events[i], events[i]) {
			t.Errorf("event %d differs:\noffline %+v\nonline  %+v", i, rr.Events[i], events[i])
		}
	}
}

func TestReplayRemediation(t *testing.T) {
	tr := quickTrial()
	tr.Monitor.Remediate = true
	// A harder fault alerts every iteration, so the K=3 consecutive-
	// window streak confirms and quarantine (plus probe rounds) makes
	// it into the trace.
	tr.Scenario.Faults[0].Rate = 0.05
	tr.Scenario.Iterations = quickClean + 8
	_, raw := record(t, tr)

	rr := replay(t, raw, trace.ReplayOptions{})
	if rr.Header.Remediate == nil {
		t.Fatal("header lost the remediation config")
	}
	if rr.Remediator == nil {
		t.Fatal("replay did not attach a remediator")
	}
	if !rr.Matches() {
		t.Errorf("offline fingerprint %#x != recorded %#x", rr.Fingerprint, rr.Trailer.Fingerprint)
	}
	if len(rr.RecordedActions) == 0 {
		t.Fatal("online run took no remediation actions; trial too weak to test replay")
	}
	if got, want := len(rr.Actions), len(rr.RecordedActions); got != want {
		t.Fatalf("offline actions = %d, recorded = %d", got, want)
	}
	for i := range rr.Actions {
		if !reflect.DeepEqual(rr.Actions[i], *rr.RecordedActions[i]) {
			t.Errorf("action %d differs:\noffline %+v\nrecorded %+v", i, rr.Actions[i], *rr.RecordedActions[i])
		}
	}
	if got, want := rr.Trailer.Actions, uint64(len(rr.Actions)); got != want {
		t.Errorf("trailer actions = %d, offline = %d", got, want)
	}
}

func TestSweepMatchesOnline(t *testing.T) {
	tr := quickTrial()
	_, raw := record(t, tr)
	// The run is deterministic: the trial's own run labels what the
	// recording's did.
	res, err := tr.Run()
	if err != nil {
		t.Fatal(err)
	}

	rr := replay(t, raw, trace.ReplayOptions{})
	got := rr.Samples()
	if !reflect.DeepEqual(got, res.Samples) {
		t.Fatalf("offline samples differ from online:\noffline %+v\nonline  %+v", got, res.Samples)
	}
	// Identical samples make every derived ROC point identical; spot
	// check the paper threshold anyway.
	ths := metrics.DefaultThresholds()
	off := rr.Sweep(ths)
	if len(off) != len(ths) {
		t.Fatalf("sweep returned %d points for %d thresholds", len(off), len(ths))
	}
}

func TestReplayThresholdOverride(t *testing.T) {
	tr := quickTrial()
	events, raw := record(t, tr)
	if len(events) == 0 {
		t.Fatal("online run raised no events")
	}

	// An absurdly high threshold suppresses every detection: the
	// what-if stream diverges from the recording by design.
	rr := replay(t, raw, trace.ReplayOptions{Threshold: 10})
	if len(rr.Events) != 0 {
		t.Errorf("events at 1000%% threshold = %d, want 0", len(rr.Events))
	}
	if rr.Matches() {
		t.Error("what-if replay claims to match the recording")
	}
	if got, want := len(rr.RecordedEvents), len(events); got != want {
		t.Errorf("recorded events = %d, online = %d", got, want)
	}
}

func TestReplayLearnedPredictor(t *testing.T) {
	tr := quickTrial()
	tr.Monitor.Remediate = true
	_, raw := record(t, tr)

	rr := replay(t, raw, trace.ReplayOptions{Predictor: "learned"})
	if rr.Remediator != nil {
		t.Error("learned counterfactual must not attach a remediator")
	}
	if rr.Windows == 0 {
		t.Error("no windows replayed")
	}

	if _, err := trace.Replay(bytes.NewReader(raw), trace.ReplayOptions{Predictor: "oracle"}); err == nil {
		t.Error("unknown predictor accepted")
	}
}

func TestReplayWindowFilter(t *testing.T) {
	tr := quickTrial()
	_, raw := record(t, tr)

	full := replay(t, raw, trace.ReplayOptions{})
	clipped := replay(t, raw, trace.ReplayOptions{LastIter: uint32(quickClean)})
	if clipped.Windows == 0 || clipped.Windows >= full.Windows {
		t.Errorf("clipped windows = %d, full = %d; want 0 < clipped < full", clipped.Windows, full.Windows)
	}
	tail := replay(t, raw, trace.ReplayOptions{FirstIter: uint32(quickClean + 1)})
	if tail.Windows+clipped.Windows != full.Windows {
		t.Errorf("head %d + tail %d != full %d", clipped.Windows, tail.Windows, full.Windows)
	}
}

// TestReplayHistoryMatchesClones: the compact score records answer the
// ROC questions exactly as full clones of the windows would. On the
// committed fixture every record must equal its decoded window's Clone
// minus the sender matrix, and IterationScores, Samples and Sweep
// computed from a history of those Clones (with the replay's scores)
// must equal the replay's own.
func TestReplayHistoryMatchesClones(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "cmd", "flowpulse-trace", "testdata", "quick.fpt"))
	if err != nil {
		t.Fatal(err)
	}
	rr := replay(t, raw, trace.ReplayOptions{})

	rd, err := trace.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	clones := map[uint16][]*telemetry.Window{}
	for {
		rec, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if rec.Kind == trace.KindWindow {
			job := rd.Header().PipelineJob(rec.Window.Job)
			w := rec.Window.Window(rd.Topo())
			clones[job] = append(clones[job], w.Clone())
		}
	}

	ref := &trace.ReplayResult{Faults: rr.Faults}
	scored := 0
	for _, jr := range rr.Jobs {
		cl := clones[jr.Job]
		if len(cl) != len(jr.Pipeline.Scores) {
			t.Fatalf("job %d: %d score records for %d decoded windows", jr.Job, len(jr.Pipeline.Scores), len(cl))
		}
		full := &monitor.Pipeline{}
		for i, ws := range jr.Pipeline.Scores {
			want := *cl[i]
			want.SenderBytes = nil
			if !reflect.DeepEqual(*ws.Window, want) {
				t.Fatalf("job %d record %d: %+v, want %+v", jr.Job, i, *ws.Window, want)
			}
			if ws.Scored {
				scored++
			}
			full.Scores = append(full.Scores, monitor.WindowScore{Window: cl[i], Score: ws.Score, Scored: ws.Scored})
		}
		if got, want := jr.Pipeline.IterationScores(), full.IterationScores(); !reflect.DeepEqual(got, want) {
			t.Errorf("job %d iteration scores %v, from clones %v", jr.Job, got, want)
		}
		ref.Jobs = append(ref.Jobs, &trace.JobReplay{Job: jr.Job, Pipeline: full, MaxIter: jr.MaxIter})
	}
	if scored == 0 || len(rr.Faults) == 0 {
		t.Fatalf("fixture too weak: %d scored windows, %d faults", scored, len(rr.Faults))
	}
	if got, want := rr.Samples(), ref.Samples(); !reflect.DeepEqual(got, want) {
		t.Errorf("samples %+v, from clones %+v", got, want)
	}
	ths := metrics.DefaultThresholds()
	if got, want := rr.Sweep(ths), ref.Sweep(ths); !reflect.DeepEqual(got, want) {
		t.Errorf("sweep %+v, from clones %+v", got, want)
	}
}

// TestFeedLeavesSlotToCaller pins the storage contract Replay and
// flowpulse-serve rely on: once Feed returns, the caller may do what it
// likes with the Record and the window slot it points to. Every window
// decodes into one slot that is filled with garbage after each Feed;
// the outcome must equal a replay fed freshly allocated records.
func TestFeedLeavesSlotToCaller(t *testing.T) {
	tr := quickTrial()
	tr.Monitor.Remediate = true // probe callbacks outlive the window that queued them
	tr.Scenario.Faults[0].Rate = 0.05
	tr.Scenario.Iterations = quickClean + 8
	_, raw := record(t, tr)

	drive := func(next func(rd *trace.Reader) (trace.Record, error), after func(*trace.Record)) *trace.ReplayResult {
		t.Helper()
		rd, err := trace.NewReader(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		rp, err := trace.NewReplayer(rd.Header(), rd.Topo(), trace.ReplayOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for {
			rec, err := next(rd)
			if err == io.EOF {
				return rp.Result()
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := rp.Feed(&rec); err != nil {
				t.Fatal(err)
			}
			after(&rec)
		}
	}

	want := drive(func(rd *trace.Reader) (trace.Record, error) {
		rec, err := rd.Next()
		if err != nil {
			return trace.Record{}, err
		}
		return *rec, nil
	}, func(*trace.Record) {})

	var slot trace.WindowRecord
	dest := func(uint16, int) *trace.WindowRecord { return &slot }
	scribbled := 0
	got := drive(func(rd *trace.Reader) (trace.Record, error) { return rd.NextInto(dest) }, func(rec *trace.Record) {
		if rec.Kind != trace.KindWindow {
			return
		}
		const junk = -0x5a5a5a5a5a5a5a5a
		w := rec.Window
		for _, row := range append([][]int64{w.PortBytes, w.AggPortBytes}, w.SenderBytes...) {
			for i := range row {
				row[i] = junk
			}
		}
		for _, row := range append([][]float64{w.PortPred}, w.SenderPred...) {
			for i := range row {
				row[i] = junk
			}
		}
		w.Job, w.LeafOrd, w.Iter, w.Packets, w.CEBytes, w.Ready = 0xffff, -1, 1<<31, junk, junk, !w.Ready
		w.OpenedAt, w.ClosedAt = junk, junk
		*rec = trace.Record{}
		scribbled++
	})

	if scribbled == 0 || scribbled != got.Windows {
		t.Fatalf("scribbled over %d of %d windows", scribbled, got.Windows)
	}
	if len(want.Actions) == 0 || len(want.Events) == 0 {
		t.Fatal("reference replay raised no events or actions; trial too weak")
	}
	if !got.Matches() {
		t.Errorf("fingerprint %#x != recorded %#x after the slot was overwritten", got.Fingerprint, got.Trailer.Fingerprint)
	}
	if got.Fingerprint != want.Fingerprint || got.BucketFingerprint != want.BucketFingerprint {
		t.Errorf("fingerprints differ from the fresh-record replay: %#x/%#x vs %#x/%#x",
			got.Fingerprint, got.BucketFingerprint, want.Fingerprint, want.BucketFingerprint)
	}
	if !reflect.DeepEqual(got.Samples(), want.Samples()) {
		t.Errorf("samples differ from the fresh-record replay:\nslot  %+v\nfresh %+v", got.Samples(), want.Samples())
	}
	if !reflect.DeepEqual(got.Events, want.Events) || !reflect.DeepEqual(got.Actions, want.Actions) {
		t.Error("events or actions differ from the fresh-record replay")
	}
}

// TestDecodeAheadOwnsRows: the reader decodes a (job, leaf)'s next
// window into a second slot while the first is still held. Window k's
// sender rows, read only after window k+1 is decoded, must be what Next
// returns for window k: a slot may borrow neither the Reader's frame
// buffer (the one-byte source restages every frame over the previous
// one) nor its prediction cache (which moves on to window k+1).
func TestDecodeAheadOwnsRows(t *testing.T) {
	raw, _ := benchRecording(t, 2, 2, 6, true)
	const leaf = 1
	var want []*trace.WindowRecord
	rd, err := trace.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	for {
		rec, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if rec.Kind == trace.KindWindow && rec.Window.LeafOrd == leaf {
			want = append(want, rec.Window)
		}
	}

	rd, err = trace.NewReader(iotest.OneByteReader(bytes.NewReader(raw)))
	if err != nil {
		t.Fatal(err)
	}
	var slots [2]trace.WindowRecord
	var other trace.WindowRecord
	k := 0 // windows of leaf decoded so far
	dest := func(_ uint16, leafOrd int) *trace.WindowRecord {
		if leafOrd != leaf {
			return &other
		}
		return &slots[k%2]
	}
	for {
		rec, err := rd.NextInto(dest)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if rec.Kind != trace.KindWindow || rec.Window.LeafOrd != leaf {
			continue
		}
		if k++; k < 2 {
			continue
		}
		// Windows k-2 and k-1 are both decoded; check the older one.
		got, ref := &slots[k%2], want[k-2]
		if got.Iter != ref.Iter {
			t.Fatalf("slot holds iter %d, want %d", got.Iter, ref.Iter)
		}
		if !reflect.DeepEqual(got.Senders(), ref.SenderBytes) {
			t.Errorf("iter %d sender bytes after decoding ahead:\n got %v\nwant %v", ref.Iter, got.SenderBytes, ref.SenderBytes)
		}
		if !reflect.DeepEqual(got.SenderPred, ref.SenderPred) {
			t.Errorf("iter %d sender prediction after decoding ahead:\n got %v\nwant %v", ref.Iter, got.SenderPred, ref.SenderPred)
		}
	}
	if k != len(want) || k < 3 {
		t.Fatalf("decoded %d windows of leaf %d, Next saw %d", k, leaf, len(want))
	}
}

// TestReplayBuildsSectionsOnlyForAlerts counts the deferred sender
// sections a replay builds: one per window that raised an alert (the
// localizer reads it), none on a clean recording, every one under the
// learned counterfactual (its observer reads every window).
func TestReplayBuildsSectionsOnlyForAlerts(t *testing.T) {
	faulty := quickTrial()
	clean := quickTrial()
	clean.Scenario.Faults = nil
	_, faultyRaw := record(t, faulty)
	_, cleanRaw := record(t, clean)

	run := func(raw []byte, opts trace.ReplayOptions) (*trace.ReplayResult, int) {
		t.Helper()
		rd, err := trace.NewReader(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		rp, err := trace.NewReplayer(rd.Header(), rd.Topo(), opts)
		if err != nil {
			t.Fatal(err)
		}
		var slot trace.WindowRecord
		for {
			rec, err := rd.NextInto(func(uint16, int) *trace.WindowRecord { return &slot })
			if err == io.EOF {
				return rp.Result(), rp.SectionsBuilt()
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := rp.Feed(&rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	alerted := func(rr *trace.ReplayResult) int {
		type key struct {
			job  uint16
			leaf int
			iter uint32
		}
		seen := map[key]bool{}
		for _, e := range rr.Events {
			seen[key{e.Alert.Job, e.Alert.LeafOrdinal, e.Alert.Iter}] = true
		}
		return len(seen)
	}

	rr, built := run(faultyRaw, trace.ReplayOptions{})
	if k := alerted(rr); k == 0 || built != k {
		t.Errorf("faulty recording: built %d sections for %d alerted windows of %d", built, k, rr.Windows)
	}
	rr, built = run(cleanRaw, trace.ReplayOptions{})
	if k := alerted(rr); k != 0 || built != 0 {
		t.Errorf("clean recording: built %d sections, %d alerted windows", built, k)
	}
	rr, built = run(faultyRaw, trace.ReplayOptions{Predictor: "learned"})
	if built != rr.Windows {
		t.Errorf("learned counterfactual: built %d sections for %d windows", built, rr.Windows)
	}
}
