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
	// the observer sees it. Its WindowScore carries the caller's window,
	// not the history record.
	OnWindow func(ws WindowScore)
	// NoHistory drops per-window retention: Scores and Events stay
	// empty, so memory stays flat however long the pipeline runs.
	// Long-running consumers (flowpulse-serve) set it and take
	// detections through OnEvent instead; IterationScores is
	// unavailable with it. With or without it, stages and callbacks see
	// the caller's window and must not retain it past the call.
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
	// absolute deviation and a compact record of the window: its key
	// fields and port rows, without the sender matrix (see
	// WindowScore). It is the ROC analysis input.
	Scores []WindowScore

	hist scoreArena
}

// scoreArena owns the windows a history-keeping pipeline retains:
// compact copies (telemetry.Window.CompactInto) stored in fixed-size
// chunks, their port rows cut from int64 slabs. A full chunk or slab is
// replaced, never grown in place, so a record never moves once Scores
// points at it; a retired chunk lives as long as those pointers.
type scoreArena struct {
	wins []telemetry.Window // current chunk, cap arenaChunk
	slab []int64            // unused tail of the current slab
}

// arenaChunk is how many records one chunk holds; a new slab is sized
// for as many records like the one that needed it.
const arenaChunk = 128

// keep stores a compact copy of w and returns it.
func (a *scoreArena) keep(w *telemetry.Window) *telemetry.Window {
	if len(a.wins) == cap(a.wins) {
		a.wins = make([]telemetry.Window, 0, arenaChunk)
	}
	if n := len(w.PortBytes) + len(w.AggPortBytes); len(a.slab) < n {
		a.slab = make([]int64, arenaChunk*n)
	}
	a.wins = a.wins[:len(a.wins)+1]
	rec := &a.wins[len(a.wins)-1]
	a.slab = w.CompactInto(rec, a.slab)
	return rec
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
// Every stage and callback sees the caller's window, synchronously; the
// history keeps its own compact record, so callers may reuse the
// window's storage as soon as the call returns.
func (p *Pipeline) OnWindow(w *telemetry.Window) {
	p.Windows++
	score, ok, alerts := p.cfg.Detect.Evaluate(w)
	ws := WindowScore{Window: w, Score: score, Scored: ok}
	if !p.cfg.NoHistory {
		p.Scores = append(p.Scores, WindowScore{Window: p.hist.keep(w), Score: score, Scored: ok})
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
	if len(alerts) > 0 && p.cfg.Localize != nil && p.cfg.Pred != nil && p.cfg.Pred.Ready(w.LeafOrdinal) {
		senders = p.cfg.Pred.SenderLoad(w.LeafOrdinal)
		if ip, ok := p.cfg.Pred.(predict.IterPredictor); ok {
			senders = ip.SenderLoadAt(w.LeafOrdinal, w.Iter)
		}
		haveSenders = true
	}
	for _, a := range alerts {
		e := Event{Alert: a}
		if haveSenders {
			e.Verdict = p.cfg.Localize.Localize(a, w, senders)
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
		p.cfg.Observer.Observe(w)
	}
	if p.cfg.Remediate != nil {
		p.cfg.Remediate.Tick(w.ClosedAt)
	}
}

// OnOwnedWindow is OnWindow for a caller that reuses the window's
// storage for every record (bench/'s per-layer probes): only valid with
// NoHistory set, so nothing is retained and the hot path stays
// allocation-free.
func (p *Pipeline) OnOwnedWindow(w *telemetry.Window) {
	if !p.cfg.NoHistory {
		panic("monitor: OnOwnedWindow without PipelineConfig.NoHistory")
	}
	p.OnWindow(w)
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
