// Package metrics computes the evaluation statistics of §6: ROC
// curves over detection thresholds (Fig 5a), false-positive and
// false-negative rates (Fig 5b/5c), and the goodput timeline of the
// resilience experiments.
package metrics

import "sort"

// Sample is one classifier observation: the detector's score for one
// iteration (max absolute port deviation) and whether a fault was
// actually present.
type Sample struct {
	Score    float64
	Positive bool
}

// ROCPoint is the classifier's operating point at one threshold.
type ROCPoint struct {
	Threshold float64
	// TPR is the true-positive rate (1 − FNR).
	TPR float64
	// FPR is the false-positive rate.
	FPR float64
	// FNR is the false-negative rate.
	FNR float64
}

// RatesAt evaluates the classifier "score > threshold ⇒ fault" on the
// samples. Faultless sample sets return FPR; faulty ones FNR; both are
// 0 when the corresponding class is absent.
func RatesAt(samples []Sample, threshold float64) (fpr, fnr float64) {
	var pos, neg, fp, fn int
	for _, s := range samples {
		if s.Positive {
			pos++
			if !(s.Score > threshold) {
				fn++
			}
		} else {
			neg++
			if s.Score > threshold {
				fp++
			}
		}
	}
	if neg > 0 {
		fpr = float64(fp) / float64(neg)
	}
	if pos > 0 {
		fnr = float64(fn) / float64(pos)
	}
	return fpr, fnr
}

// ROC evaluates the classifier at each threshold, returning points in
// threshold order.
func ROC(samples []Sample, thresholds []float64) []ROCPoint {
	points := make([]ROCPoint, 0, len(thresholds))
	for _, th := range thresholds {
		fpr, fnr := RatesAt(samples, th)
		points = append(points, ROCPoint{Threshold: th, FPR: fpr, FNR: fnr, TPR: 1 - fnr})
	}
	return points
}

// DefaultThresholds is the threshold sweep of the ROC analysis:
// 0.1% … 5%.
func DefaultThresholds() []float64 {
	return []float64{0.001, 0.002, 0.003, 0.005, 0.0075, 0.01, 0.015, 0.02, 0.03, 0.05}
}

// AUC integrates the ROC curve (trapezoidal over FPR-sorted points).
// A perfect classifier scores 1, a random one 0.5.
func AUC(points []ROCPoint) float64 {
	pts := append([]ROCPoint(nil), points...)
	// Anchor the curve at (0,0) and (1,1).
	pts = append(pts, ROCPoint{FPR: 0, TPR: 0}, ROCPoint{FPR: 1, TPR: 1})
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].FPR != pts[j].FPR {
			return pts[i].FPR < pts[j].FPR
		}
		return pts[i].TPR < pts[j].TPR
	})
	var auc float64
	for i := 1; i < len(pts); i++ {
		dx := pts[i].FPR - pts[i-1].FPR
		auc += dx * (pts[i].TPR + pts[i-1].TPR) / 2
	}
	return auc
}

// PerfectThresholds returns the sub-range of thresholds at which the
// classifier is perfect (FPR = FNR = 0), or nil. Fig 5a's claim is
// that 1% lies in this range for drop rates ≥ 1.5%.
func PerfectThresholds(samples []Sample, thresholds []float64) []float64 {
	var out []float64
	for _, th := range thresholds {
		fpr, fnr := RatesAt(samples, th)
		if fpr == 0 && fnr == 0 {
			out = append(out, th)
		}
	}
	return out
}
