// Package detect implements §5.3's fault identification: at the close
// of every iteration window, each leaf switch compares the observed
// per-port volume with the load model's prediction and declares a
// fault when the relative discrepancy exceeds a threshold (1% in the
// paper).
package detect

import (
	"fmt"
	"math"

	"flowpulse/internal/predict"
	"flowpulse/internal/sim"
	"flowpulse/internal/telemetry"
	"flowpulse/internal/topology"
)

// Config tunes the detector.
type Config struct {
	// Threshold is the relative deviation that declares a fault.
	// Defaults to 0.01 (the paper's 1%).
	Threshold float64
	// MinPredicted ignores ports whose prediction is below this many
	// bytes — a port no model expects traffic on cannot produce a
	// meaningful relative deviation. Observed traffic above
	// MinPredicted on such a port still alerts (ghost traffic).
	// Defaults to 4160 (one default-MTU packet).
	MinPredicted float64
	// AggregateSymmetry switches the comparison basis from the job's
	// own per-port bytes (against the load model) to the window's
	// aggregate all-jobs counts (Window.AggPortBytes) against the
	// model's per-port shape scaled to the aggregate total. When
	// several jobs share a leaf's uplinks, adaptive spraying balances
	// only the union of their packets — each job's own shares comb
	// unpredictably across ports — so the shared monitoring plane (§7
	// "Parallel Jobs") detects on the aggregate, where the paper's
	// per-port symmetry still holds. The load model keeps supplying
	// the shape (routing-aware, e.g. a remotely quarantined trunk
	// zeroing an ingress port here), readiness, and the localization
	// references. A uniform all-ports degradation is invisible to this
	// basis; it is not a localizable single-link fault.
	AggregateSymmetry bool
	// CEDiscount attributes deviations in congestion-marked windows to
	// the congestion the fabric itself vouches for: each port deviation
	// is multiplied by max(0, 1 − CEDiscount·ceFrac), where ceFrac is
	// the fraction of the window's tagged bytes that carried the ECN
	// congestion-experienced codepoint. A window whose bytes were
	// (almost) all marked had its volume shaped by queue build-up and
	// PFC pauses, not loss — its deviation is explained away entirely —
	// while silent faults drop without marking (ceFrac ≈ 0) and keep
	// their full deviation. With the default strength 2, windows with
	// at least half their bytes marked are fully suppressed. Zero
	// disables (the default).
	CEDiscount float64
}

// Validate is the one validity rule for a detector setting, applied
// before defaulting wherever a value arrives from outside (a run file, a
// flag, a recorded header): Threshold, MinPredicted and CEDiscount must
// each be finite and ≥ 0, zero taking the default. A negative threshold
// would pass every boundary.
func (c Config) Validate() error {
	names := [...]string{"threshold", "minPredicted", "ceDiscount"}
	for i, v := range [...]float64{c.Threshold, c.MinPredicted, c.CEDiscount} {
		if !(v >= 0) || math.IsInf(v, 1) {
			return fmt.Errorf("detect: %s %v must be finite and ≥ 0", names[i], v)
		}
	}
	return nil
}

func (c *Config) setDefaults() {
	if c.Threshold == 0 {
		c.Threshold = 0.01
	}
	if c.MinPredicted == 0 {
		c.MinPredicted = 4160
	}
}

// Alert is one port's deviation beyond the threshold.
type Alert struct {
	// Leaf, LeafOrdinal and Level identify the reporting switch: its
	// id, its ordinal within its tier, and that tier (zero value: leaf),
	// copied from the window — so, like telemetry.Window's, the first
	// two are named for the leaf tier and hold a spine's id and spine
	// ordinal when Level is topology.Spine.
	Leaf        topology.SwitchID
	LeafOrdinal int
	Level       topology.SwitchKind
	// Uplink is the deviating ingress port (uplink index).
	Uplink int
	// Job and Iter identify the measured collective iteration.
	Job  uint16
	Iter uint32
	// Predicted and Observed are wire-byte volumes for the window.
	Predicted, Observed float64
	// Deviation is the signed relative deviation
	// (Observed−Predicted)/Predicted; ±Inf when Predicted ≈ 0.
	Deviation float64
	// At is the window close time.
	At sim.Time
}

// String formats the alert for operator logs.
func (a Alert) String() string {
	return fmt.Sprintf("%s %d uplink %d iter %d: observed %.0fB vs predicted %.0fB (%+.2f%%)",
		a.Level, a.LeafOrdinal, a.Uplink, a.Iter, a.Observed, a.Predicted, 100*a.Deviation)
}

// Stats counts detector activity.
type Stats struct {
	// WindowsChecked counts windows with an available prediction.
	WindowsChecked uint64
	// WindowsSkipped counts windows dropped because the predictor was
	// not ready (learned-model warm-up).
	WindowsSkipped uint64
	// Alerts counts threshold crossings.
	Alerts uint64
}

// Detector checks telemetry windows against a load model. One
// Detector serves all leaves (state is per call; the comparison is
// in-switch and coordination-free, exactly as each leaf would run it).
type Detector struct {
	cfg    Config
	pred   predict.Predictor
	topo   *topology.Topology
	stats  Stats
	faults *predict.FaultSet
}

// New builds a detector over a prediction model.
func New(topo *topology.Topology, pred predict.Predictor, cfg Config) *Detector {
	cfg.setDefaults()
	return &Detector{cfg: cfg, pred: pred, topo: topo}
}

// Threshold returns the active detection threshold.
func (d *Detector) Threshold() float64 { return d.cfg.Threshold }

// Config returns the effective (defaulted) configuration.
func (d *Detector) Config() Config { return d.cfg }

// Stats returns a snapshot of detector counters.
func (d *Detector) Stats() Stats { return d.stats }

// SetKnownFaults attaches the control plane's known-fault set: leaf
// ports whose uplink is in the set are skipped by Evaluate. A
// quarantined link legitimately carries nothing, so alerting on its
// port (ghost traffic from the window straddling the quarantine, then
// a permanent 100% deficit) would be noise, not detection.
func (d *Detector) SetKnownFaults(fs *predict.FaultSet) { d.faults = fs }

// portQuarantined reports whether a window's uplink port sits on a
// known-faulty link. Only leaf windows are mapped (spine windows — the
// §7 extension — use a different port layout).
func (d *Detector) portQuarantined(w *telemetry.Window, u int) bool {
	if d.faults == nil || d.faults.Len() == 0 || w.SwitchKind != topology.Leaf {
		return false
	}
	p := u + len(d.topo.HostsOf(w.Leaf))
	return d.faults.Has(d.topo.Switch(w.Leaf).Ports[p].Link)
}

// portLoadFor resolves the model's expectation for one window,
// preferring the iteration-exact prediction when the model offers one
// (predict.IterPredictor — the simulation model's reference windows).
func (d *Detector) portLoadFor(w *telemetry.Window) []float64 {
	if ip, ok := d.pred.(predict.IterPredictor); ok {
		return ip.PortLoadAt(w.LeafOrdinal, w.Iter)
	}
	return d.pred.PortLoad(w.LeafOrdinal)
}

// basis resolves the observation vector and per-port expectation for
// one window: the job's own counts against the load model, or — in
// AggregateSymmetry mode — the all-jobs aggregate counts against the
// model's per-port SHAPE scaled to the aggregate total. The shape
// (rather than a flat cross-port mean) matters after remediation: a
// quarantined trunk elsewhere in the fabric legitimately zeroes some
// ingress ports here (the re-baselined model knows, a uniform mean
// does not). Quarantined ports are excluded from the scaling sums —
// they carry nothing, so including them would depress every healthy
// port's expectation.
func (d *Detector) basis(w *telemetry.Window) (obs []int64, pred []float64) {
	if d.cfg.AggregateSymmetry && len(w.AggPortBytes) == len(w.PortBytes) {
		shape := d.portLoadFor(w)
		var obsSum int64
		var shapeSum float64
		for u := range w.AggPortBytes {
			if d.portQuarantined(w, u) {
				continue
			}
			obsSum += w.AggPortBytes[u]
			shapeSum += shape[u]
		}
		pred = make([]float64, len(w.AggPortBytes))
		if shapeSum > 0 {
			scale := float64(obsSum) / shapeSum
			for u := range pred {
				pred[u] = shape[u] * scale
			}
		}
		return w.AggPortBytes, pred
	}
	return w.PortBytes, d.portLoadFor(w)
}

// ceScale returns the deviation multiplier for one window under the
// CEDiscount mitigation: max(0, 1 − CEDiscount·(CEBytes/Total)). The
// marked fraction is the share of the window the fabric certifies was
// shaped by congestion; the remainder keeps its full evidentiary
// weight. Windows without marks — every window on a fabric without
// ECN — scale by 1, keeping the detector byte-identical with the
// discount unset.
func (d *Detector) ceScale(w *telemetry.Window) float64 {
	if d.cfg.CEDiscount <= 0 || w.CEBytes == 0 {
		return 1
	}
	total := w.Total()
	if total <= 0 {
		return 1
	}
	frac := float64(w.CEBytes) / float64(total)
	if frac > 1 {
		frac = 1
	}
	if s := 1 - d.cfg.CEDiscount*frac; s > 0 {
		return s
	}
	return 0
}

// evaluate is the one pass over a closed window: every unquarantined
// port's relative deviation from the model, CE-discounted. score is the
// maximum absolute deviation across ports — the statistic the ROC
// analysis thresholds (Fig 5a) — and alerts holds the ports beyond the
// threshold, in ascending uplink order. ok is false while the model is
// not ready for the leaf.
func (d *Detector) evaluate(w *telemetry.Window) (score float64, ok bool, alerts []Alert) {
	if !d.pred.Ready(w.LeafOrdinal) {
		return 0, false, nil
	}
	obsPorts, pred := d.basis(w)
	scale := d.ceScale(w)
	if scale == 0 {
		// Fully congestion-attributed window (and 0·±Inf on a ghost
		// port would be NaN, not suppression).
		return 0, true, nil
	}
	for u, obs := range obsPorts {
		if d.portQuarantined(w, u) {
			continue
		}
		dev, valid := Deviation(float64(obs), pred[u], d.cfg.MinPredicted)
		if !valid {
			continue
		}
		dev *= scale
		abs := math.Abs(dev)
		if abs > score {
			score = abs
		}
		if abs <= d.cfg.Threshold {
			continue
		}
		alerts = append(alerts, Alert{
			Leaf:        w.Leaf,
			LeafOrdinal: w.LeafOrdinal,
			Level:       w.SwitchKind,
			Uplink:      u,
			Job:         w.Job,
			Iter:        w.Iter,
			Predicted:   pred[u],
			Observed:    float64(obs),
			Deviation:   dev,
			At:          w.ClosedAt,
		})
	}
	return score, true, alerts
}

// Evaluate scores one closed window against the model and returns its
// alerts (see evaluate), counting the window in Stats. It is what a
// pipeline calls, once per window.
func (d *Detector) Evaluate(w *telemetry.Window) (score float64, ok bool, alerts []Alert) {
	score, ok, alerts = d.evaluate(w)
	if ok {
		d.stats.WindowsChecked++
	} else {
		d.stats.WindowsSkipped++
	}
	d.stats.Alerts += uint64(len(alerts))
	return score, ok, alerts
}

// Check is Evaluate's alerts alone (nil if the window is clean or the
// model is not ready).
func (d *Detector) Check(w *telemetry.Window) []Alert {
	_, _, alerts := d.Evaluate(w)
	return alerts
}

// Score is the window's score alone, uncounted: ok is false when the
// model is not ready for the leaf.
func (d *Detector) Score(w *telemetry.Window) (score float64, ok bool) {
	score, ok, _ = d.evaluate(w)
	return score, ok
}

// Deviation computes the signed relative deviation of observed from
// predicted. When predicted is below minPredicted the relative measure
// is meaningless: the port is unexpectedly loaded only if observed
// itself exceeds minPredicted (deviation +Inf); otherwise ok is false.
func Deviation(observed, predicted, minPredicted float64) (dev float64, ok bool) {
	if predicted < minPredicted {
		if observed > minPredicted {
			return math.Inf(1), true
		}
		return 0, false
	}
	return (observed - predicted) / predicted, true
}
