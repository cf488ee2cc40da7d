// Package monitor is the job-facing half of the FlowPulse monitoring
// plane: the per-job analysis pipeline (Predictor → Detector →
// Localizer → Remediator) behind explicit stage interfaces, and the
// Plane that fans one shared per-switch telemetry tap out to many such
// pipelines — one per concurrent training job (§7 "Parallel Jobs").
//
// The split mirrors a production deployment: telemetry is a fabric
// service (one tap per switch, owned by the operator), while each
// job's pipeline is job-scoped state (its own load model, detector
// baseline, and event log). Remediation is fabric-scoped again — one
// arbiter, because a quarantine reroutes everyone's traffic — so the
// Plane shares a single RemediateStage across pipelines.
package monitor

import (
	"flowpulse/internal/detect"
	"flowpulse/internal/localize"
	"flowpulse/internal/sim"
	"flowpulse/internal/telemetry"
)

// Event is one detection, optionally localized.
type Event struct {
	Alert   detect.Alert
	Verdict localize.Verdict
}

// WindowScore pairs a window with its detector score. In
// Pipeline.Scores the window is the pipeline's compact record: key
// fields, PortBytes and AggPortBytes, no SenderBytes. The OnWindow
// callback gets the caller's full window instead, for the call only.
type WindowScore struct {
	Window *telemetry.Window
	Score  float64
	// Scored is false while the model is warming up.
	Scored bool
}

// DetectStage scores closed windows against a load model and emits
// per-port alerts. *detect.Detector implements it.
type DetectStage interface {
	// Evaluate returns the window's max |relative deviation| (scored is
	// false while the model warms up) and one alert per deviating port.
	Evaluate(w *telemetry.Window) (score float64, scored bool, alerts []detect.Alert)
}

// LocalizeStage attributes one alert to suspect links using the
// per-sender byte matrix (Fig. 4). *localize.Localizer implements it.
type LocalizeStage interface {
	Localize(a detect.Alert, w *telemetry.Window, senderPred [][]float64) localize.Verdict
}

// RemediateStage closes the loop on localized detections.
// *remediate.Remediator implements it.
type RemediateStage interface {
	// Observe feeds one localized detection into confirmation.
	Observe(a detect.Alert, v localize.Verdict)
	// Tick advances probing/re-admission; called at every window close.
	Tick(now sim.Time)
}

// WindowObserver is a stage that learns from closed windows after
// detection ran on them (the learned model's re-baselining input).
// *predict.Learned implements it.
type WindowObserver interface {
	Observe(w *telemetry.Window)
}
