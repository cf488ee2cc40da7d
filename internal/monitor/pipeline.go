package monitor

import (
	"flowpulse/internal/predict"
	"flowpulse/internal/telemetry"
)

// PipelineConfig assembles one job's analysis pipeline.
type PipelineConfig struct {
	// Pred is the job's load model (consulted for readiness and
	// per-sender references during localization).
	Pred predict.Predictor
	// Detect scores windows and raises alerts. Required.
	Detect DetectStage
	// Localize attributes alerts to links. Optional: without it,
	// events carry an empty verdict.
	Localize LocalizeStage
	// Remediate, when set, receives every localized detection and a
	// tick per window close. Shared across pipelines on a Plane.
	Remediate RemediateStage
	// Observer, when set, sees every window after detection (the
	// learned model's input).
	Observer WindowObserver
	// OnEvent receives every localized detection as it happens.
	OnEvent func(e Event)
	// OnWindow receives every closed window after scoring but before
	// the observer sees it.
	OnWindow func(ws WindowScore)
	// NoHistory drops per-window retention: Scores and Events stay
	// empty (and windows are not cloned), so memory stays flat however
	// long the pipeline runs. Long-running consumers (flowpulse-serve)
	// set it and take detections through OnEvent instead;
	// IterationScores is unavailable with it. Callbacks must not retain
	// the window past the call.
	NoHistory bool
}

// Pipeline is one job's window-analysis chain. It is fed closed
// telemetry windows (from a Plane's shared tap, or a single-job
// collector) and accumulates scores and events.
type Pipeline struct {
	cfg PipelineConfig

	// Events accumulates every detection with its localization.
	Events []Event
	// Windows counts closed windows processed.
	Windows int
	// Scores holds (per closed window, in arrival order) the max
	// absolute deviation and the window itself — the ROC analysis
	// input.
	Scores []WindowScore
}

// NewPipeline builds a pipeline. Detect is required.
func NewPipeline(cfg PipelineConfig) *Pipeline {
	if cfg.Detect == nil {
		panic("monitor: PipelineConfig.Detect is required")
	}
	return &Pipeline{cfg: cfg}
}

// OnWindow is the window-close path: score, detect, localize, then let
// the observer (learned model) see the window and the remediator tick.
// The window is cloned before anything retains it; callers may reuse
// its storage after the call.
func (p *Pipeline) OnWindow(w *telemetry.Window) {
	if p.cfg.NoHistory {
		// Nothing retains the window, so nothing needs the clone.
		p.OnOwnedWindow(w)
		return
	}
	p.process(w.Clone())
}

// OnOwnedWindow is OnWindow for callers that own (and reuse) the
// window's storage: the pipeline neither clones nor retains it, so the
// hot ingestion path stays allocation-free. Only valid with NoHistory
// set; stages and callbacks see the caller's storage and must be done
// with it when they return.
func (p *Pipeline) OnOwnedWindow(w *telemetry.Window) {
	if !p.cfg.NoHistory {
		panic("monitor: OnOwnedWindow without PipelineConfig.NoHistory")
	}
	p.process(w)
}

func (p *Pipeline) process(wc *telemetry.Window) {
	p.Windows++
	score, ok, alerts := p.cfg.Detect.Evaluate(wc)
	ws := WindowScore{Window: wc, Score: score, Scored: ok}
	if !p.cfg.NoHistory {
		p.Scores = append(p.Scores, ws)
	}
	if p.cfg.OnWindow != nil {
		p.cfg.OnWindow(ws)
	}

	// The sender reference is snapshotted once per window, before any
	// alert reaches the remediator: all of a window's alerts share the
	// window's (leaf, iter), and a remediation triggered by an earlier
	// alert may re-baseline the model mid-loop — later alerts in the
	// same window must still be localized against the reference the
	// detector scored them with. (This is also what makes offline trace
	// replay bit-identical: the recorded per-window prediction is
	// exactly this snapshot.)
	var senders [][]float64
	haveSenders := false
	if len(alerts) > 0 && p.cfg.Localize != nil && p.cfg.Pred != nil && p.cfg.Pred.Ready(wc.LeafOrdinal) {
		senders = p.cfg.Pred.SenderLoad(wc.LeafOrdinal)
		if ip, ok := p.cfg.Pred.(predict.IterPredictor); ok {
			senders = ip.SenderLoadAt(wc.LeafOrdinal, wc.Iter)
		}
		haveSenders = true
	}
	for _, a := range alerts {
		e := Event{Alert: a}
		if haveSenders {
			e.Verdict = p.cfg.Localize.Localize(a, wc, senders)
		}
		if !p.cfg.NoHistory {
			p.Events = append(p.Events, e)
		}
		if p.cfg.OnEvent != nil {
			p.cfg.OnEvent(e)
		}
		if p.cfg.Remediate != nil {
			p.cfg.Remediate.Observe(e.Alert, e.Verdict)
		}
	}

	if p.cfg.Observer != nil {
		p.cfg.Observer.Observe(wc)
	}
	if p.cfg.Remediate != nil {
		p.cfg.Remediate.Tick(wc.ClosedAt)
	}
}

// IterationScores aggregates window scores per iteration across all
// leaves: the system-level statistic "was any port on any leaf
// deviant during iteration k" (the classifier the evaluation rates).
func (p *Pipeline) IterationScores() map[uint32]float64 {
	out := map[uint32]float64{}
	for _, ws := range p.Scores {
		if !ws.Scored {
			continue
		}
		if ws.Score > out[ws.Window.Iter] {
			out[ws.Window.Iter] = ws.Score
		}
	}
	return out
}
