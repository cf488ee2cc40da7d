package predict

import (
	"math"

	"flowpulse/internal/telemetry"
)

// LearnedConfig tunes the learned baseline model.
type LearnedConfig struct {
	// Warmup is how many initial windows per leaf form the baseline.
	// Defaults to 3.
	Warmup int
	// RebaselineAfter is how many consecutive "healthier" windows
	// trigger baseline replacement. Defaults to 3.
	RebaselineAfter int
}

const (
	// cvImprovement is the relative drop in the coefficient of variation
	// (across ports) that counts as "healthier": the spread must shrink by
	// a quarter.
	cvImprovement = 0.25
	// totalTolerance bounds the relative difference in total volume for a
	// window to be rebaseline-eligible (a different collective size is a
	// workload change, not a healed fault).
	totalTolerance = 0.05
)

func (c *LearnedConfig) setDefaults() {
	if c.Warmup == 0 {
		c.Warmup = 3
	}
	if c.RebaselineAfter == 0 {
		c.RebaselineAfter = 3
	}
}

// Learned is §5.2's measurement-based model: the expected load on each
// port is simply the average of the first Warmup iterations. Its
// caveat — and Fig. 3's subject — is a transient fault present during
// warm-up: when the fault heals, load re-balances more evenly, and the
// model replaces its baseline with the healthier measurement instead
// of flagging the recovery as a fault forever.
type Learned struct {
	cfg   LearnedConfig
	leafs []learnedLeaf

	// Rebaselines counts baseline replacements (Fig 3 telemetry).
	Rebaselines int
	// ForcedRebaselines counts external Rebaseline() calls (the
	// remediation loop's re-baseline after quarantine/re-admission).
	ForcedRebaselines int
}

type learnedLeaf struct {
	ready   bool
	ports   []float64
	senders [][]float64
	baseCV  float64
	baseTot float64

	warmup []*telemetry.Window

	// Candidate healthier windows seen in a row.
	healthier []*telemetry.Window
}

// NewLearned builds an empty model for nLeaves leaves; feed it every
// closed window via Observe.
func NewLearned(nLeaves int, cfg LearnedConfig) *Learned {
	cfg.setDefaults()
	return &Learned{cfg: cfg, leafs: make([]learnedLeaf, nLeaves)}
}

// Observe ingests one closed window. The caller must deliver windows
// in iteration order per leaf.
func (l *Learned) Observe(w *telemetry.Window) {
	st := &l.leafs[w.LeafOrdinal]
	if !st.ready {
		st.warmup = append(st.warmup, w.Clone())
		if len(st.warmup) >= l.cfg.Warmup {
			l.adopt(st, st.warmup)
			st.warmup = nil
		}
		return
	}

	cv, tot := portCV(w.PortBytes)
	healthier := cv < st.baseCV*(1-cvImprovement) &&
		math.Abs(tot-st.baseTot) <= totalTolerance*st.baseTot
	if !healthier {
		st.healthier = st.healthier[:0]
		return
	}
	st.healthier = append(st.healthier, w.Clone())
	if len(st.healthier) >= l.cfg.RebaselineAfter {
		l.adopt(st, st.healthier)
		st.healthier = nil
		l.Rebaselines++
	}
}

// adopt replaces a leaf's baseline with the element-wise mean of the
// given windows.
func (l *Learned) adopt(st *learnedLeaf, ws []*telemetry.Window) {
	n := len(ws)
	st.ports = make([]float64, len(ws[0].PortBytes))
	st.senders = make([][]float64, len(ws[0].SenderBytes))
	for u := range st.senders {
		st.senders[u] = make([]float64, len(ws[0].SenderBytes[u]))
	}
	for _, w := range ws {
		for u, b := range w.PortBytes {
			st.ports[u] += float64(b) / float64(n)
		}
		for u := range w.SenderBytes {
			for s, b := range w.SenderBytes[u] {
				st.senders[u][s] += float64(b) / float64(n)
			}
		}
	}
	st.baseCV, st.baseTot = portCVF(st.ports)
	st.ready = true
}

func portCV(bytes []int64) (cv, total float64) {
	f := make([]float64, len(bytes))
	for i, b := range bytes {
		f[i] = float64(b)
	}
	return portCVF(f)
}

// portCVF returns the coefficient of variation across ports and the
// total volume.
func portCVF(f []float64) (cv, total float64) {
	if len(f) == 0 {
		return 0, 0
	}
	for _, v := range f {
		total += v
	}
	mean := total / float64(len(f))
	if mean == 0 {
		return 0, 0
	}
	var ss float64
	for _, v := range f {
		d := v - mean
		ss += d * d
	}
	return math.Sqrt(ss/float64(len(f))) / mean, total
}

// Rebaseline implements Rebaseliner: it discards every leaf's baseline
// and returns the model to warm-up, so the next Warmup windows —
// measured under the *new* routing state — become the baseline. While
// warming up the model reports not-Ready and the detector skips its
// windows, which is exactly the hysteresis the remediation loop wants:
// no alerts fire off windows that straddle a quarantine.
func (l *Learned) Rebaseline() {
	for i := range l.leafs {
		l.leafs[i] = learnedLeaf{}
	}
	l.ForcedRebaselines++
}

// Name implements Predictor.
func (l *Learned) Name() string { return "learned" }

// Ready implements Predictor.
func (l *Learned) Ready(leafOrdinal int) bool { return l.leafs[leafOrdinal].ready }

// PortLoad implements Predictor.
func (l *Learned) PortLoad(leafOrdinal int) []float64 { return l.leafs[leafOrdinal].ports }

// SenderLoad implements Predictor.
func (l *Learned) SenderLoad(leafOrdinal int) [][]float64 { return l.leafs[leafOrdinal].senders }
