package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRatesPerfectSeparation(t *testing.T) {
	samples := []Sample{
		{0.001, false}, {0.002, false}, {0.003, false},
		{0.02, true}, {0.03, true},
	}
	fpr, fnr := RatesAt(samples, 0.01)
	if fpr != 0 || fnr != 0 {
		t.Fatalf("fpr=%v fnr=%v, want 0,0", fpr, fnr)
	}
}

func TestRatesMixed(t *testing.T) {
	samples := []Sample{
		{0.02, false}, {0.005, false}, // one FP at θ=0.01
		{0.005, true}, {0.02, true}, // one FN
	}
	fpr, fnr := RatesAt(samples, 0.01)
	if fpr != 0.5 || fnr != 0.5 {
		t.Fatalf("fpr=%v fnr=%v, want 0.5,0.5", fpr, fnr)
	}
}

func TestRatesBoundaryIsNegative(t *testing.T) {
	// Score exactly at the threshold does NOT fire (score > threshold).
	samples := []Sample{{0.01, true}}
	_, fnr := RatesAt(samples, 0.01)
	if fnr != 1 {
		t.Fatalf("boundary score fired: fnr=%v", fnr)
	}
}

func TestRatesMissingClass(t *testing.T) {
	fpr, fnr := RatesAt([]Sample{{0.5, true}}, 0.1)
	if fpr != 0 || fnr != 0 {
		t.Fatalf("missing negative class: fpr=%v fnr=%v", fpr, fnr)
	}
	fpr, fnr = RatesAt(nil, 0.1)
	if fpr != 0 || fnr != 0 {
		t.Fatal("empty samples must be 0,0")
	}
}

func TestROCMonotoneThresholds(t *testing.T) {
	samples := []Sample{
		{0.002, false}, {0.004, false}, {0.008, false},
		{0.006, true}, {0.012, true}, {0.02, true},
	}
	ths := []float64{0.001, 0.005, 0.01, 0.05}
	pts := ROC(samples, ths)
	if len(pts) != 4 {
		t.Fatalf("points = %d", len(pts))
	}
	// FPR must be non-increasing in threshold; FNR non-decreasing.
	for i := 1; i < len(pts); i++ {
		if pts[i].FPR > pts[i-1].FPR {
			t.Fatal("FPR increased with threshold")
		}
		if pts[i].FNR < pts[i-1].FNR {
			t.Fatal("FNR decreased with threshold")
		}
	}
	for _, p := range pts {
		if math.Abs(p.TPR-(1-p.FNR)) > 1e-12 {
			t.Fatal("TPR != 1-FNR")
		}
	}
}

func TestAUCPerfectAndRandom(t *testing.T) {
	perfect := []Sample{{0.001, false}, {0.002, false}, {0.9, true}, {0.8, true}}
	ths := []float64{0.0005, 0.0015, 0.0025, 0.01, 0.1, 0.5, 0.85, 0.95}
	auc := AUC(ROC(perfect, ths))
	if auc < 0.99 {
		t.Fatalf("perfect classifier AUC = %v", auc)
	}
}

func TestPerfectThresholds(t *testing.T) {
	samples := []Sample{{0.004, false}, {0.006, false}, {0.014, true}, {0.02, true}}
	ths := []float64{0.002, 0.005, 0.008, 0.012, 0.016}
	got := PerfectThresholds(samples, ths)
	want := []float64{0.008, 0.012}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("perfect thresholds = %v, want %v", got, want)
	}
	if PerfectThresholds([]Sample{{0.5, false}, {0.4, true}}, ths) != nil {
		t.Fatal("inseparable samples reported a perfect threshold")
	}
}

func TestROCEmptySamples(t *testing.T) {
	pts := ROC(nil, []float64{0.01, 0.05})
	if len(pts) != 2 {
		t.Fatalf("points = %d, want one per threshold", len(pts))
	}
	for _, p := range pts {
		if p.FPR != 0 || p.FNR != 0 || p.TPR != 1 {
			t.Fatalf("empty-sample point not degenerate-clean: %+v", p)
		}
	}
	if pts := ROC([]Sample{{0.5, true}}, nil); len(pts) != 0 {
		t.Fatalf("no thresholds produced points: %v", pts)
	}
}

func TestRatesSingleClass(t *testing.T) {
	// All-negative: FNR has an empty denominator and must report 0,
	// while FPR is still meaningful.
	neg := []Sample{{0.02, false}, {0.005, false}, {0.03, false}}
	fpr, fnr := RatesAt(neg, 0.01)
	if fnr != 0 {
		t.Fatalf("all-negative fnr = %v, want 0", fnr)
	}
	if want := 2.0 / 3.0; math.Abs(fpr-want) > 1e-12 {
		t.Fatalf("all-negative fpr = %v, want %v", fpr, want)
	}
	// All-positive: the mirror case.
	pos := []Sample{{0.02, true}, {0.005, true}}
	fpr, fnr = RatesAt(pos, 0.01)
	if fpr != 0 {
		t.Fatalf("all-positive fpr = %v, want 0", fpr)
	}
	if fnr != 0.5 {
		t.Fatalf("all-positive fnr = %v, want 0.5", fnr)
	}
}

func TestRatesDuplicateScoresAtBoundary(t *testing.T) {
	// Several samples share the exact threshold score: detection is
	// strict (score > threshold), so every one of them stays silent
	// regardless of class.
	samples := []Sample{
		{0.01, true}, {0.01, true}, {0.01, false}, {0.01, false},
		{0.02, true}, {0.005, false},
	}
	fpr, fnr := RatesAt(samples, 0.01)
	if fpr != 0 {
		t.Fatalf("boundary negatives fired: fpr = %v", fpr)
	}
	if want := 2.0 / 3.0; math.Abs(fnr-want) > 1e-12 {
		t.Fatalf("fnr = %v, want %v (both boundary positives missed)", fnr, want)
	}
	// Nudging the threshold just below the tied score flips all four
	// tied samples at once.
	fpr, fnr = RatesAt(samples, 0.0099)
	if want := 2.0 / 3.0; math.Abs(fpr-want) > 1e-12 {
		t.Fatalf("fpr = %v, want %v (both tied negatives fire)", fpr, want)
	}
	if fnr != 0 {
		t.Fatalf("fnr = %v, want 0", fnr)
	}
}

// Property: FPR and FNR are always within [0,1] and AUC within [0,1].
func TestRatesBoundedProperty(t *testing.T) {
	f := func(scores []float64, mask uint64, th float64) bool {
		if len(scores) > 64 {
			scores = scores[:64]
		}
		samples := make([]Sample, len(scores))
		for i, sc := range scores {
			samples[i] = Sample{Score: math.Abs(sc), Positive: mask>>uint(i)&1 == 1}
		}
		fpr, fnr := RatesAt(samples, math.Abs(th))
		if fpr < 0 || fpr > 1 || fnr < 0 || fnr > 1 {
			return false
		}
		auc := AUC(ROC(samples, []float64{0.01, 0.1, 1}))
		return auc >= 0 && auc <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
