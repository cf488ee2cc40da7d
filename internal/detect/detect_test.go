package detect

import (
	"math"
	"testing"

	"flowpulse/internal/telemetry"
	"flowpulse/internal/topology"
)

// stubPred is a fixed prediction table.
type stubPred struct {
	ports [][]float64
	ready []bool
}

func (s *stubPred) Name() string                  { return "stub" }
func (s *stubPred) Ready(lo int) bool             { return s.ready[lo] }
func (s *stubPred) PortLoad(lo int) []float64     { return s.ports[lo] }
func (s *stubPred) SenderLoad(lo int) [][]float64 { return nil }

func testTopo(t *testing.T) *topology.Topology {
	t.Helper()
	topo, err := topology.NewFatTree(topology.FatTreeConfig{Leaves: 2, Spines: 4})
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func window(lo int, iter uint32, ports []int64) *telemetry.Window {
	return &telemetry.Window{LeafOrdinal: lo, Iter: iter, PortBytes: ports, ClosedAt: 1000}
}

func TestDetectorFlagsDeficitAndSurplus(t *testing.T) {
	topo := testTopo(t)
	pred := &stubPred{ports: [][]float64{{1e6, 1e6, 1e6, 1e6}}, ready: []bool{true}}
	d := New(topo, pred, Config{Threshold: 0.01})

	// Port 1 down 2%, port 3 up 5%, others within threshold.
	alerts := d.Check(window(0, 7, []int64{1_000_000, 980_000, 1_005_000, 1_050_000}))
	if len(alerts) != 2 {
		t.Fatalf("alerts = %v", alerts)
	}
	if alerts[0].Uplink != 1 || math.Abs(alerts[0].Deviation+0.02) > 1e-9 {
		t.Fatalf("first alert: %+v", alerts[0])
	}
	if alerts[1].Uplink != 3 || math.Abs(alerts[1].Deviation-0.05) > 1e-9 {
		t.Fatalf("second alert: %+v", alerts[1])
	}
	if alerts[0].Iter != 7 || alerts[0].At != 1000 {
		t.Fatalf("alert metadata: %+v", alerts[0])
	}
	st := d.Stats()
	if st.WindowsChecked != 1 || st.Alerts != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestDetectorCleanWindowSilent(t *testing.T) {
	topo := testTopo(t)
	pred := &stubPred{ports: [][]float64{{1e6, 1e6, 1e6, 1e6}}, ready: []bool{true}}
	d := New(topo, pred, Config{Threshold: 0.01})
	// All within 1%.
	if alerts := d.Check(window(0, 1, []int64{995_000, 1_004_000, 1_000_000, 999_999})); alerts != nil {
		t.Fatalf("false alerts: %v", alerts)
	}
}

func TestDetectorExactThresholdNotCrossed(t *testing.T) {
	topo := testTopo(t)
	pred := &stubPred{ports: [][]float64{{1e6}}, ready: []bool{true}}
	d := New(topo, pred, Config{Threshold: 0.01})
	// Exactly 1% is NOT beyond the threshold.
	if alerts := d.Check(window(0, 1, []int64{990_000})); alerts != nil {
		t.Fatalf("boundary crossed: %v", alerts)
	}
	if alerts := d.Check(window(0, 2, []int64{989_999})); len(alerts) != 1 {
		t.Fatal("just beyond boundary not flagged")
	}
}

func TestDetectorNotReadySkips(t *testing.T) {
	topo := testTopo(t)
	pred := &stubPred{ports: [][]float64{nil}, ready: []bool{false}}
	d := New(topo, pred, Config{})
	if alerts := d.Check(window(0, 1, []int64{123})); alerts != nil {
		t.Fatal("unready predictor produced alerts")
	}
	if d.Stats().WindowsSkipped != 1 {
		t.Fatal("skip not counted")
	}
}

func TestDetectorGhostTraffic(t *testing.T) {
	topo := testTopo(t)
	pred := &stubPred{ports: [][]float64{{0, 1e6}}, ready: []bool{true}}
	d := New(topo, pred, Config{Threshold: 0.01})
	// Port 0 expects nothing but carries a megabyte: +Inf deviation.
	alerts := d.Check(window(0, 1, []int64{1_000_000, 1_000_000}))
	if len(alerts) != 1 || !math.IsInf(alerts[0].Deviation, 1) {
		t.Fatalf("ghost traffic: %v", alerts)
	}
	// Port 0 expecting nothing and carrying nothing is fine.
	if alerts := d.Check(window(0, 2, []int64{0, 1_000_000})); alerts != nil {
		t.Fatalf("empty idle port alerted: %v", alerts)
	}
}

func TestScoreIsMaxAbsDeviation(t *testing.T) {
	topo := testTopo(t)
	pred := &stubPred{ports: [][]float64{{1e6, 1e6, 1e6, 1e6}}, ready: []bool{true}}
	d := New(topo, pred, Config{})
	score, ok := d.Score(window(0, 1, []int64{970_000, 1_010_000, 1_000_000, 1_000_000}))
	if !ok || math.Abs(score-0.03) > 1e-9 {
		t.Fatalf("score = %v ok=%v, want 0.03", score, ok)
	}
	pred.ready[0] = false
	if _, ok := d.Score(window(0, 1, []int64{1})); ok {
		t.Fatal("score ok despite unready predictor")
	}
}

func TestDeviationHelper(t *testing.T) {
	if dev, ok := Deviation(98, 100, 1); !ok || math.Abs(dev+0.02) > 1e-12 {
		t.Fatalf("basic deviation wrong: %v %v", dev, ok)
	}
	if _, ok := Deviation(0.5, 0.2, 10); ok {
		t.Fatal("sub-floor prediction should be not-ok for tiny observed")
	}
	if dev, ok := Deviation(100, 0.2, 10); !ok || !math.IsInf(dev, 1) {
		t.Fatal("ghost traffic should be +Inf")
	}
}

// TestEvaluateIsScoreAndCheckInOnePass pins the one pass against its two
// views on clean, deviating, ghost-port, CE-discounted, fully discounted
// and unready windows: the same score bits, the same alerts, and one
// count per window however many views looked at it.
func TestEvaluateIsScoreAndCheckInOnePass(t *testing.T) {
	topo := testTopo(t)
	pred := &stubPred{ports: [][]float64{{1e6, 1e6, 1e6, 0}, {1e6, 1e6, 1e6, 1e6}}, ready: []bool{true, false}}
	d := New(topo, pred, Config{Threshold: 0.01, CEDiscount: 2})
	wins := []*telemetry.Window{
		window(0, 1, []int64{1_000_000, 999_000, 1_001_000, 0}),
		window(0, 2, []int64{900_000, 1_000_000, 1_100_000, 0}),
		window(0, 3, []int64{1_000_000, 1_000_000, 1_000_000, 50_000}), // ghost port: +Inf
		ceWindow([]int64{960_000, 1_000_000, 1_040_000, 0}, 750_000),
		ceWindow([]int64{500_000, 1_000_000, 1_000_000, 0}, 2_000_000), // scale 0
		window(1, 4, []int64{1, 2, 3, 4}),                              // model not ready
	}
	var wantChecked, wantSkipped, wantAlerts uint64
	for i, w := range wins {
		score, ok := d.Score(w)
		if before := d.Stats(); before.WindowsChecked != wantChecked || before.WindowsSkipped != wantSkipped {
			t.Fatalf("window %d: Score counted the window: %+v", i, before)
		}
		gotScore, gotOK, alerts := d.Evaluate(w)
		if gotOK != ok || math.Float64bits(gotScore) != math.Float64bits(score) {
			t.Errorf("window %d: Evaluate scored %v/%v, Score %v/%v", i, gotScore, gotOK, score, ok)
		}
		if ok {
			wantChecked++
		} else {
			wantSkipped++
		}
		wantAlerts += uint64(len(alerts))
		var worst float64
		for _, a := range alerts {
			worst = math.Max(worst, math.Abs(a.Deviation))
		}
		if len(alerts) > 0 && worst != gotScore {
			t.Errorf("window %d: score %v is not the worst alert's |deviation| %v", i, gotScore, worst)
		}
		if st := d.Stats(); st.WindowsChecked != wantChecked || st.WindowsSkipped != wantSkipped || st.Alerts != wantAlerts {
			t.Fatalf("window %d: stats %+v, want checked=%d skipped=%d alerts=%d", i, st, wantChecked, wantSkipped, wantAlerts)
		}
	}
	if wantAlerts == 0 || wantSkipped != 1 {
		t.Fatalf("the windows above should alert and skip once: alerts=%d skipped=%d", wantAlerts, wantSkipped)
	}
	// Check is the same pass, counted.
	if got := d.Check(wins[1]); len(got) != 2 || got[0].Uplink != 0 || got[1].Uplink != 2 {
		t.Fatalf("Check alerts: %+v", got)
	}
	if st := d.Stats(); st.WindowsChecked != wantChecked+1 || st.Alerts != wantAlerts+2 {
		t.Fatalf("Check did not count once: %+v", st)
	}
}

func TestAlertString(t *testing.T) {
	a := Alert{LeafOrdinal: 3, Uplink: 5, Iter: 9, Predicted: 1000, Observed: 900, Deviation: -0.1}
	if s := a.String(); s == "" {
		t.Fatal("empty alert string")
	}
}

func ceWindow(ports []int64, ce int64) *telemetry.Window {
	w := window(0, 1, ports)
	w.CEBytes = ce
	return w
}

func TestCEDiscountScalesDeviation(t *testing.T) {
	topo := testTopo(t)
	pred := &stubPred{ports: [][]float64{{1e6, 1e6, 1e6, 1e6}}, ready: []bool{true}}
	d := New(topo, pred, Config{Threshold: 0.01, CEDiscount: 2})

	// Quarter of the bytes marked: scale = 1 − 2·0.25 = 0.5. A 4%
	// deficit survives at 2% effective; a 1.5% deficit is absorbed.
	ports := []int64{960_000, 1_000_000, 1_000_000, 1_000_000}
	alerts := d.Check(ceWindow(ports, sum64(ports)/4))
	if len(alerts) != 1 || math.Abs(alerts[0].Deviation+0.02) > 1e-9 {
		t.Fatalf("quarter-marked 4%% deficit: %+v", alerts)
	}
	mild := []int64{985_000, 1_000_000, 1_000_000, 1_000_000}
	if alerts := d.Check(ceWindow(mild, sum64(mild)/4)); alerts != nil {
		t.Fatalf("quarter-marked 1.5%% deficit should be absorbed: %v", alerts)
	}

	// Half marked at strength 2: fully congestion-attributed, Check is
	// silent and Score reports a clean zero for ANY deviation.
	heavy := []int64{500_000, 1_000_000, 1_000_000, 1_000_000}
	if alerts := d.Check(ceWindow(heavy, sum64(heavy)/2)); alerts != nil {
		t.Fatalf("fully attributed window alerted: %v", alerts)
	}
	if score, ok := d.Score(ceWindow(heavy, sum64(heavy)/2)); !ok || score != 0 {
		t.Fatalf("fully attributed score = %v ok=%v, want 0", score, ok)
	}

	// Score scales the max |deviation| by the same multiplier.
	if score, ok := d.Score(ceWindow(ports, sum64(ports)/4)); !ok || math.Abs(score-0.02) > 1e-9 {
		t.Fatalf("quarter-marked score = %v ok=%v, want 0.02", score, ok)
	}
}

func TestCEDiscountGhostPortNoNaN(t *testing.T) {
	// A ghost port (+Inf deviation) inside a fully marked window: the
	// zero scale must short-circuit, not produce 0·Inf = NaN — NaN
	// fails every threshold compare and would fire a bogus alert.
	topo := testTopo(t)
	pred := &stubPred{ports: [][]float64{{0, 1e6}}, ready: []bool{true}}
	d := New(topo, pred, Config{Threshold: 0.01, CEDiscount: 2})
	w := ceWindow([]int64{1_000_000, 1_000_000}, 2_000_000)
	if alerts := d.Check(w); alerts != nil {
		t.Fatalf("NaN leak: %v", alerts)
	}
	if score, ok := d.Score(w); !ok || score != 0 {
		t.Fatalf("score = %v ok=%v", score, ok)
	}
}

func TestCEDiscountDisabledAndUnmarked(t *testing.T) {
	topo := testTopo(t)
	pred := &stubPred{ports: [][]float64{{1e6}}, ready: []bool{true}}
	// Discount off: marks are ignored entirely.
	d := New(topo, pred, Config{Threshold: 0.01})
	if alerts := d.Check(ceWindow([]int64{960_000}, 960_000)); len(alerts) != 1 {
		t.Fatal("zero discount must not suppress")
	}
	// Discount on, no marks: full deviation passes through.
	d2 := New(topo, pred, Config{Threshold: 0.01, CEDiscount: 2})
	alerts := d2.Check(ceWindow([]int64{960_000}, 0))
	if len(alerts) != 1 || math.Abs(alerts[0].Deviation+0.04) > 1e-9 {
		t.Fatalf("unmarked window scaled: %+v", alerts)
	}
	// Straggler marks can push CEBytes past Total; frac clamps at 1 and
	// the window is attributed, not inverted into a negative scale.
	if alerts := d2.Check(ceWindow([]int64{960_000}, 2_000_000)); alerts != nil {
		t.Fatalf("over-full CE fraction alerted: %v", alerts)
	}
}

func sum64(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}
