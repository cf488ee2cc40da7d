package monitor

import (
	"fmt"
	"reflect"
	"testing"

	"flowpulse/internal/detect"
	"flowpulse/internal/fabric"
	"flowpulse/internal/localize"
	"flowpulse/internal/sim"
	"flowpulse/internal/telemetry"
	"flowpulse/internal/topology"
)

// fakeDetect returns canned scores and alerts and records the windows
// it saw.
type fakeDetect struct {
	score  float64
	scored bool
	alerts []detect.Alert
	seen   []*telemetry.Window
}

func (f *fakeDetect) Evaluate(w *telemetry.Window) (float64, bool, []detect.Alert) {
	f.seen = append(f.seen, w)
	return f.score, f.scored, f.alerts
}

type fakeLocalize struct {
	calls   int
	verdict localize.Verdict
}

func (f *fakeLocalize) Localize(a detect.Alert, w *telemetry.Window, senderPred [][]float64) localize.Verdict {
	f.calls++
	return f.verdict
}

type fakeRemediate struct {
	trace []string // interleaving of Observe/Tick calls
}

func (f *fakeRemediate) Observe(a detect.Alert, v localize.Verdict) {
	f.trace = append(f.trace, "observe")
}
func (f *fakeRemediate) Tick(now sim.Time) { f.trace = append(f.trace, "tick") }

type fakeObserver struct{ windows int }

func (f *fakeObserver) Observe(w *telemetry.Window) { f.windows++ }

func win(job uint16, iter uint32, closedAt sim.Time) *telemetry.Window {
	return &telemetry.Window{
		Job: job, Iter: iter, ClosedAt: closedAt,
		PortBytes:   []int64{1, 2},
		SenderBytes: [][]int64{{1}, {2}},
	}
}

func TestPipelineOnWindowOrdering(t *testing.T) {
	det := &fakeDetect{score: 0.5, scored: true, alerts: []detect.Alert{{Uplink: 1}}}
	loc := &fakeLocalize{verdict: localize.Verdict{Kind: localize.LocalLink}}
	rem := &fakeRemediate{}
	obs := &fakeObserver{}
	var hooks []string
	var hooked *telemetry.Window
	p := NewPipeline(PipelineConfig{
		Detect:    det,
		Localize:  loc,
		Remediate: rem,
		Observer:  obs,
		OnEvent:   func(e Event) { hooks = append(hooks, "event") },
		OnWindow:  func(ws WindowScore) { hooks, hooked = append(hooks, "window"), ws.Window },
	})

	w := win(3, 1, 100)
	p.OnWindow(w)

	if p.Windows != 1 || len(p.Scores) != 1 || len(p.Events) != 1 {
		t.Fatalf("windows=%d scores=%d events=%d", p.Windows, len(p.Scores), len(p.Events))
	}
	if p.Scores[0].Score != 0.5 || !p.Scores[0].Scored {
		t.Fatalf("score record: %+v", p.Scores[0])
	}
	// Stages and callbacks see the caller's window; the history keeps a
	// record of its own (the tap may reuse the window).
	if det.seen[0] != w || hooked != w {
		t.Fatal("a stage or callback saw something other than the caller's window")
	}
	if rec := p.Scores[0].Window; rec == w || rec.SenderBytes != nil {
		t.Fatalf("history kept %p (caller's %p) with sender rows %v, want its own record without them", rec, w, rec.SenderBytes)
	}
	// OnWindow fires before OnEvent.
	if want := []string{"window", "event"}; !reflect.DeepEqual(hooks, want) {
		t.Fatalf("hook order %v, want %v", hooks, want)
	}
	// Remediator sees the observation before the end-of-window tick.
	if want := []string{"observe", "tick"}; !reflect.DeepEqual(rem.trace, want) {
		t.Fatalf("remediate trace %v, want %v", rem.trace, want)
	}
	if obs.windows != 1 {
		t.Fatalf("observer saw %d windows, want 1", obs.windows)
	}
	// Without a predictor the verdict stays empty (localize needs the
	// model's sender reference).
	if loc.calls != 0 || p.Events[0].Verdict.Kind != localize.Indeterminate {
		t.Fatalf("localize ran without a predictor: calls=%d verdict=%v", loc.calls, p.Events[0].Verdict)
	}
}

func TestPipelineIterationScores(t *testing.T) {
	det := &fakeDetect{scored: true}
	p := NewPipeline(PipelineConfig{Detect: det})

	det.score = 0.2
	p.OnWindow(win(1, 1, 10))
	det.score = 0.7
	p.OnWindow(win(1, 1, 20)) // same iteration, another leaf: max wins
	det.score = 0.1
	p.OnWindow(win(1, 2, 30))
	det.scored = false
	det.score = 9.9
	p.OnWindow(win(1, 3, 40)) // unscored windows are excluded

	got := p.IterationScores()
	want := map[uint32]float64{1: 0.7, 2: 0.1}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("iteration scores %v, want %v", got, want)
	}
}

// feedReused drives n windows through onWindow the way trace.Replay's
// and flowpulse-serve's reused slots do: one caller window
// whose slices are refilled before each call and scribbled over after
// it. Row lengths vary (a 300-port window forces an early slab
// replacement, every third window has no aggregate row) and n crosses
// several chunks. It returns the record each window should leave in the
// history: the window as it was during its call, minus the sender
// matrix.
func feedReused(n int, onWindow func(*telemetry.Window)) []telemetry.Window {
	const maxPorts, leaves = 300, 3
	port, agg := make([]int64, maxPorts), make([]int64, maxPorts)
	senders := make([][]int64, maxPorts)
	for u := range senders {
		senders[u] = make([]int64, leaves)
	}
	w := &telemetry.Window{}
	want := make([]telemetry.Window, 0, n)
	for i := 0; i < n; i++ {
		ports := 4
		if i%97 == 50 {
			ports = maxPorts
		}
		*w = telemetry.Window{
			Leaf: topology.SwitchID(i % 5), LeafOrdinal: i % 5, SwitchKind: topology.SwitchKind(i % 2),
			Job: uint16(i % 3), Iter: uint32(i / 5), Packets: int64(i), CEBytes: int64(2 * i),
			OpenedAt: sim.Time(10 * i), ClosedAt: sim.Time(10*i + 7),
			PortBytes: port[:ports], SenderBytes: senders[:ports],
		}
		if i%3 != 0 {
			w.AggPortBytes = agg[:ports]
		}
		for u := 0; u < ports; u++ {
			port[u], agg[u] = int64(1000*i+u), int64(2000*i+u)
			for l := range senders[u] {
				senders[u][l] = int64(i + u + l)
			}
		}
		rec := *w.Clone()
		rec.SenderBytes = nil
		want = append(want, rec)

		onWindow(w)

		const junk = -0x5a5a5a5a5a5a5a5a
		for _, row := range append([][]int64{port, agg}, senders...) {
			for j := range row {
				row[j] = junk
			}
		}
		*w = telemetry.Window{Leaf: -1, Iter: 1 << 31, Packets: junk, PortBytes: port, AggPortBytes: agg, SenderBytes: senders}
	}
	return want
}

// historyFaults checks a score history against the records it should
// hold (feedReused's) and names every way it breaks the storage
// contract: a record that changed once the caller reused its window, a
// record still carrying sender rows, a port row whose spare capacity
// runs into another record's rows, or a chunk that grew in place.
func historyFaults(a *scoreArena, recs []WindowScore, want []telemetry.Window) []string {
	var faults []string
	changed := func(when string) {
		for i, ws := range recs {
			if !reflect.DeepEqual(*ws.Window, want[i]) {
				faults = append(faults, fmt.Sprintf("record %d changed %s: %+v, want %+v", i, when, *ws.Window, want[i]))
				return
			}
		}
	}
	if len(recs) != len(want) {
		return []string{fmt.Sprintf("%d records for %d windows", len(recs), len(want))}
	}
	changed("when the caller reused its window")
	for i, ws := range recs {
		if ws.Window.SenderBytes != nil {
			faults = append(faults, fmt.Sprintf("record %d keeps sender rows", i))
			break
		}
	}
	// A row cut with cap == len reallocates on append; one with spare
	// capacity writes into whatever was cut after it.
	for _, ws := range recs {
		_ = append(ws.Window.PortBytes, -1)
		_ = append(ws.Window.AggPortBytes, -1)
	}
	changed("after appends to every record's rows")
	// A chunk that grew in place moved its records: the history points
	// at stale copies that pin the old array.
	if cap(a.wins) != arenaChunk {
		faults = append(faults, fmt.Sprintf("chunk cap %d, want %d", cap(a.wins), arenaChunk))
	}
	base := len(recs) - len(a.wins)
	for j := range a.wins {
		if base < 0 || recs[base+j].Window != &a.wins[j] {
			faults = append(faults, fmt.Sprintf("record %d is not the arena's slot %d of the current chunk", base+j, j))
			break
		}
	}
	return faults
}

// TestPipelineHistoryOwnsItsRecords: history is independent of the
// caller's storage. A caller that reuses one window, as Replay and
// serve do, must find every score record as its window was at the
// call, however the window was overwritten since.
func TestPipelineHistoryOwnsItsRecords(t *testing.T) {
	det := &fakeDetect{scored: true}
	p := NewPipeline(PipelineConfig{Detect: det})
	var caller *telemetry.Window
	want := feedReused(3*arenaChunk+7, func(w *telemetry.Window) {
		caller = w
		p.OnWindow(w)
	})
	for i, seen := range det.seen {
		if seen != caller {
			t.Fatalf("window %d: the detector saw %p, not the caller's %p", i, seen, caller)
		}
	}
	for _, f := range historyFaults(&p.hist, p.Scores, want) {
		t.Error(f)
	}
}

// TestHistoryFaultsCatchPlantedBugs shows historyFaults trips on a
// record that aliases the caller's rows, and on the two arena bugs that
// leave every value right at first sight: port rows cut as slab[:n],
// whose capacity runs into the next rows, and a chunk grown in place by
// append instead of replaced when full.
func TestHistoryFaultsCatchPlantedBugs(t *testing.T) {
	planted := map[string]func(a *scoreArena, w *telemetry.Window) *telemetry.Window{
		"rows shared with the caller": func(a *scoreArena, w *telemetry.Window) *telemetry.Window {
			rec := a.keep(w)
			rec.PortBytes, rec.AggPortBytes = w.PortBytes, w.AggPortBytes
			return rec
		},
		"uncapped row": func(a *scoreArena, w *telemetry.Window) *telemetry.Window {
			rec := a.keep(w)
			// Re-cut both rows from the arena's slab, without the cap
			// limit.
			cut := func(src []int64) []int64 {
				if len(src) == 0 {
					return nil
				}
				if len(a.slab) < len(src) {
					a.slab = make([]int64, arenaChunk*len(src))
				}
				row := a.slab[:len(src)]
				copy(row, src)
				a.slab = a.slab[len(src):]
				return row
			}
			rec.PortBytes, rec.AggPortBytes = cut(w.PortBytes), cut(w.AggPortBytes)
			return rec
		},
		"chunk grown in place": func(a *scoreArena, w *telemetry.Window) *telemetry.Window {
			if a.wins == nil {
				a.wins = make([]telemetry.Window, 0, arenaChunk)
			}
			a.wins = append(a.wins, telemetry.Window{})
			rec := &a.wins[len(a.wins)-1]
			w.CompactInto(rec, make([]int64, len(w.PortBytes)+len(w.AggPortBytes)))
			return rec
		},
	}
	for name, keep := range planted {
		t.Run(name, func(t *testing.T) {
			a := &scoreArena{}
			var recs []WindowScore
			want := feedReused(3*arenaChunk+7, func(w *telemetry.Window) {
				recs = append(recs, WindowScore{Window: keep(a, w)})
			})
			if faults := historyFaults(a, recs, want); len(faults) == 0 {
				t.Fatal("planted bug not caught")
			} else {
				t.Log(faults[0])
			}
		})
	}
}

// quietDetect scores every window 0 and raises nothing, allocating
// nothing.
type quietDetect struct{}

func (quietDetect) Evaluate(*telemetry.Window) (float64, bool, []detect.Alert) { return 0, true, nil }

// TestPipelineOnWindowAllocs is the window-close allocation budget: the
// serve path (NoHistory) allocates nothing, and a history costs only
// its arena's chunks and slabs and the growth of Scores — well under
// one allocation per window.
func TestPipelineOnWindowAllocs(t *testing.T) {
	w := win(1, 1, 10)
	w.PortBytes, w.AggPortBytes = make([]int64, 16), make([]int64, 16)
	serve := NewPipeline(PipelineConfig{Detect: quietDetect{}, NoHistory: true})
	if avg := testing.AllocsPerRun(1000, func() { serve.OnOwnedWindow(w) }); avg != 0 {
		t.Errorf("NoHistory window close: %v allocs/window, want 0", avg)
	}
	hist := NewPipeline(PipelineConfig{Detect: quietDetect{}})
	if avg := testing.AllocsPerRun(4*arenaChunk*8, func() { hist.OnWindow(w) }); avg > 0.05 {
		t.Errorf("history window close: %v allocs/window, want ≤ 0.05", avg)
	}
}

// testNet is the smallest three-level fabric: 2 pods of 2 leaves × 2
// spines, one core per spine ordinal — both monitored tiers present.
func testNet(t *testing.T) *fabric.Network {
	t.Helper()
	topo, err := topology.NewClos3(topology.Clos3Config{Pods: 2, LeavesPerPod: 2, SpinesPerPod: 2, CoresPerGroup: 1})
	if err != nil {
		t.Fatal(err)
	}
	net, err := fabric.New(fabric.Config{Topo: topo, Engine: sim.NewEngine()})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestPlaneRoutesWindowsPerJob: a closed window reaches the pipeline
// keyed by its switch tier and its job, and nobody else's.
func TestPlaneRoutesWindowsPerJob(t *testing.T) {
	net := testNet(t)
	pipes := map[Key]*Pipeline{
		{topology.Leaf, 1}:  NewPipeline(PipelineConfig{Detect: &fakeDetect{}}),
		{topology.Leaf, 2}:  NewPipeline(PipelineConfig{Detect: &fakeDetect{}}),
		{topology.Spine, 1}: NewPipeline(PipelineConfig{Detect: &fakeDetect{}}),
	}
	plane := NewPlane(net, pipes)

	// Drive the shared tap directly, on the first leaf (uplinks from
	// port 1) and the first spine (core port 2): interleaved packets
	// from three jobs. Job 7 has no pipeline at all, job 2 none at the
	// spine tier.
	monitors := plane.collector.Monitors
	leaf, spine := monitors[0], monitors[len(net.Topology().Leaves())]
	for _, job := range []uint16{1, 2, 7} {
		p := &fabric.Packet{
			Src: 0, Dst: 0, Size: 1000, Kind: fabric.Data,
			Tag: fabric.FlowTag{Sentinel: true, Job: job, Iter: 1},
		}
		leaf.OnPacket(10, 1, p)
		spine.OnPacket(10, 2, p)
	}
	plane.Flush(50)

	for key, pipe := range pipes {
		if pipe.Windows != 1 {
			t.Errorf("%s tier, job %d: %d windows, want 1", key.Tier, key.Job, pipe.Windows)
		}
		if got := pipe.Scores[0].Window; got.SwitchKind != key.Tier || got.Job != key.Job {
			t.Errorf("%s tier, job %d: got a %s window of job %d", key.Tier, key.Job, got.SwitchKind, got.Job)
		}
	}
	if plane.UnroutedWindows() != 3 {
		t.Errorf("unrouted windows = %d, want 3 (job 7 at both tiers, job 2 at the spine tier)", plane.UnroutedWindows())
	}
}

func TestPlaneValidation(t *testing.T) {
	net := testNet(t)
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	mustPanic("nil pipeline", func() {
		NewPlane(net, map[Key]*Pipeline{{topology.Leaf, 1}: nil})
	})
	mustPanic("missing Detect", func() {
		NewPipeline(PipelineConfig{})
	})
}
