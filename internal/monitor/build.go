package monitor

import (
	"flowpulse/internal/detect"
	"flowpulse/internal/localize"
	"flowpulse/internal/predict"
	"flowpulse/internal/topology"
)

// Spec is everything one job's detect → localize (→ remediate)
// pipeline for one switch tier is assembled from. Where its windows
// come from — a switch tap or a decoded .fpt record — is the caller's
// business and the only thing that differs between the live system,
// offline replay and flowpulse-serve.
type Spec struct {
	Topo *topology.Topology
	// Pred is the job's load model. A model that also learns from
	// closed windows (WindowObserver) is fed them after detection.
	Pred predict.Predictor
	// Detect tunes the detector (zero fields take its defaults).
	Detect detect.Config
	// Faults is the fabric-scoped known-fault set shared by every
	// pipeline on one fabric; nil when nothing ever quarantines.
	Faults *predict.FaultSet
	// Remediate, OnEvent, OnWindow and NoHistory are passed through to
	// PipelineConfig.
	Remediate RemediateStage
	OnEvent   func(e Event)
	OnWindow  func(ws WindowScore)
	NoHistory bool
}

// Build assembles one pipeline and returns it with its detector (whose
// effective configuration and counters callers report). It is the one
// place a detector, its known-fault set, a localizer at the detector's
// threshold and a Pipeline are wired together.
//
// The localizer is wired on two-level fabrics only: Fig. 4 infers the
// faulty link from which sender leaves reach a port through which
// spine, a one-hop geometry that a third tier breaks (several
// core→spine→leaf paths lead to one port). Three-level pipelines
// therefore report alerts with an empty verdict, at both tiers.
func Build(s Spec) (*Pipeline, *detect.Detector) {
	det := detect.New(s.Topo, s.Pred, s.Detect)
	det.SetKnownFaults(s.Faults)
	obs, _ := s.Pred.(WindowObserver)
	var loc LocalizeStage
	if s.Topo.Levels == 2 {
		loc = localize.New(s.Topo, det.Threshold(), 0)
	}
	return NewPipeline(PipelineConfig{
		Pred:      s.Pred,
		Detect:    det,
		Localize:  loc,
		Remediate: s.Remediate,
		Observer:  obs,
		OnEvent:   s.OnEvent,
		OnWindow:  s.OnWindow,
		NoHistory: s.NoHistory,
	}), det
}
