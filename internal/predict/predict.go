// Package predict implements §5.2's per-link load models: the
// analytical d/(s−f) model over the collective's demand matrix and the
// switches' routing state, the simulation-based model (averaging a
// reference run of the fault-free-except-known-faults network), and
// the learned model (baseline from the first training iterations, with
// transient-fault re-baselining, Fig. 3).
//
// All predictors answer the same question a leaf switch asks at the
// end of each iteration window: how many tagged bytes should each of
// my spine-facing ingress ports have seen?
package predict

import "flowpulse/internal/topology"

// Predictor estimates per-uplink ingress volume for one collective
// iteration at each leaf.
type Predictor interface {
	// Name identifies the prediction method.
	Name() string
	// Ready reports whether predictions for the leaf are available
	// (the learned model needs warm-up iterations first).
	Ready(leafOrdinal int) bool
	// PortLoad returns the expected wire bytes per uplink ingress port
	// (uplink index = spine ordinal × trunk + trunk index).
	PortLoad(leafOrdinal int) []float64
	// SenderLoad returns the expected wire bytes per uplink ingress
	// port, broken down by the sender's leaf ordinal — the reference
	// the localizer compares against (Fig. 4).
	SenderLoad(leafOrdinal int) [][]float64
}

// IterPredictor is implemented by predictors whose expectation is
// specific to an iteration, not stationary across the job. The
// simulation model is one: adaptive spray can settle into different
// (equally balanced) per-spine splits on different iterations, so the
// cross-iteration average is a prediction no single iteration matches;
// the reference run, being iteration-indexed, resolves each one
// exactly. Consumers fall back to PortLoad/SenderLoad when the
// predictor does not implement this.
type IterPredictor interface {
	// PortLoadAt is PortLoad for one specific iteration.
	PortLoadAt(leafOrdinal int, iter uint32) []float64
	// SenderLoadAt is SenderLoad for one specific iteration.
	SenderLoadAt(leafOrdinal int, iter uint32) [][]float64
}

// WireSizer converts payload bytes to wire bytes (headers included).
// *transport.Stack implements it.
type WireSizer interface {
	WireBytesFor(bytes int) int64
}

// FIBView exposes the routing state the analytical model reads: the
// spray candidate set per (source leaf, destination leaf) and the
// administrative state of links. *fabric.Network implements it.
type FIBView interface {
	LeafUplinkCandidates(leaf, dstLeaf topology.SwitchID) []int
	LinkAdminUp(link topology.LinkID) bool
}

// Rebaseliner is implemented by predictors that can rebuild their
// baseline after the known-fault set or the routing state changes —
// the re-baseline half of the detect→quarantine→re-baseline loop. The
// simulation model deliberately does not implement it: its reference
// windows were recorded under the old routing state and cannot be
// refreshed without a new reference run.
type Rebaseliner interface {
	Rebaseline()
}

// FaultSet is the predictors' mutable known-fault set: links the
// control plane has confirmed faulty and removed from service. It
// exists separately from the FIB's administrative state so that a
// model can be told about a fault at the same instant the quarantine
// is issued — there is never a window where the model still divides
// load by the old spine count. Callers must invoke Rebaseline on the
// affected predictors after mutating the set.
//
// The zero value is unusable; use NewFaultSet. Not safe for concurrent
// use (all access happens on the engine goroutine, like the fabric).
type FaultSet struct {
	links map[topology.LinkID]bool
}

// NewFaultSet returns an empty known-fault set.
func NewFaultSet() *FaultSet { return &FaultSet{links: map[topology.LinkID]bool{}} }

// Add marks a link known-faulty. Reports whether the set changed.
func (s *FaultSet) Add(l topology.LinkID) bool {
	if s.links[l] {
		return false
	}
	s.links[l] = true
	return true
}

// Remove clears a link from the set. Reports whether the set changed.
func (s *FaultSet) Remove(l topology.LinkID) bool {
	if !s.links[l] {
		return false
	}
	delete(s.links, l)
	return true
}

// Has reports whether a link is known-faulty.
func (s *FaultSet) Has(l topology.LinkID) bool { return s != nil && s.links[l] }

// Len returns the number of known-faulty links.
func (s *FaultSet) Len() int { return len(s.links) }
