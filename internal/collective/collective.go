// Package collective implements the communication patterns of
// data-parallel training (§2): pipelined Ring-AllReduce (the paper's
// evaluation workload), its two halves ReduceScatter and AllGather,
// and AllToAll (the §7 expert-parallelism extension).
//
// Every collective exposes its demand matrix — exactly the
// application-level knowledge §5.2's analytical predictor consumes —
// and carries per-chunk float64 checksums end to end so tests can
// verify reduction semantics, not just byte delivery.
package collective

import (
	"fmt"

	"flowpulse/internal/fabric"
	"flowpulse/internal/sim"
	"flowpulse/internal/topology"
	"flowpulse/internal/transport"
)

// DemandMatrix is the per-iteration traffic demand of a collective:
// payload bytes from each rank to each rank.
type DemandMatrix struct {
	// Hosts maps ranks to hosts.
	Hosts []topology.HostID
	// Bytes[i][j] is the payload rank i sends rank j per iteration.
	Bytes [][]int64
	// Msgs[i][j] lists the individual transport message sizes that
	// make up Bytes[i][j]. Predictors need the breakdown because wire
	// overhead is per packet and the last packet of every message may
	// be partial.
	Msgs [][][]int64
}

// RunContext supplies a collective iteration with its environment.
type RunContext struct {
	// Stack is the transport to send over.
	Stack *transport.Stack
	// Tag marks every data packet of this iteration (§5.1: sentinel +
	// job + iteration).
	Tag fabric.FlowTag
	// Priority is the fabric class; measured collectives run High.
	Priority fabric.Priority
	// StartOffsets delays each rank's first send — per-iteration
	// compute jitter and stragglers (§4). Nil means no jitter.
	StartOffsets []sim.Duration
	// Values are each rank's input checksums, one per chunk. Nil
	// disables value tracking.
	Values [][]float64
	// OnComplete fires once every rank has received its final message
	// of the iteration.
	OnComplete func(now sim.Time, result *Result)
}

// Result reports a finished iteration.
type Result struct {
	// FinishedAt is the completion time of the slowest rank.
	FinishedAt sim.Time
	// Values holds each rank's output checksums (nil when value
	// tracking is off).
	Values [][]float64
	// MessagesSent counts transport messages used.
	MessagesSent int
}

// scheduleStart schedules a rank's first send, off from now, on the
// engine that owns its host. The collective is driven from the control
// domain; across domains fabric.Network.After may round an offset
// shorter than the group lookahead up to the window boundary — by at
// most one lookahead, deterministically.
func (ctx *RunContext) scheduleStart(h topology.HostID, off sim.Duration, fn sim.Handler) {
	net := ctx.Stack.Network()
	net.After(0, net.DomainOf(h), off, fn)
}

// finish hands a per-rank completion event from the domain owning host
// h to the control domain, where the collective's shared
// remaining-counter lives (fabric.Network.Call: inline within a domain,
// drained in canonical order at the window barrier across them, so the
// counter decrements in the same order for every worker count).
func (ctx *RunContext) finish(h topology.HostID, fn sim.Handler) {
	net := ctx.Stack.Network()
	net.Call(net.DomainOf(h), 0, fn)
}

// Collective is a repeatable communication pattern.
type Collective interface {
	// Name identifies the pattern.
	Name() string
	// Demand returns the per-iteration demand matrix.
	Demand() *DemandMatrix
	// Run executes one iteration.
	Run(ctx *RunContext)
}

// Replannable is a collective that can rebuild itself over a new rank
// order or membership — the workload half of closed-loop remediation:
// after a quarantine degrades part of the fabric, the resilience
// re-planner derives a new group (re-ranked around the degraded leaf,
// or excluding unreachable hosts) and the collective re-extracts its
// demand matrix from it.
type Replannable interface {
	Collective
	// Replan returns a new collective of the same pattern and message
	// size over the given group. The receiver is not modified — an
	// in-flight iteration keeps its plan; the workload driver swaps at
	// the next iteration barrier.
	Replan(group []topology.HostID) Collective
}

// chunkSizes splits bytes into n chunks, the first bytes%n chunks one
// byte larger, never returning a zero-size chunk.
func chunkSizes(bytes int64, n int) ([]int64, error) {
	if bytes < int64(n) {
		return nil, fmt.Errorf("collective: %d bytes cannot be split into %d non-empty chunks", bytes, n)
	}
	base, extra := bytes/int64(n), bytes%int64(n)
	out := make([]int64, n)
	for i := range out {
		out[i] = base
		if int64(i) < extra {
			out[i]++
		}
	}
	return out, nil
}

func validateGroup(hosts []topology.HostID) error {
	if len(hosts) < 2 {
		return fmt.Errorf("collective: need at least 2 ranks, got %d", len(hosts))
	}
	seen := map[topology.HostID]bool{}
	for _, h := range hosts {
		if seen[h] {
			return fmt.Errorf("collective: host %d appears twice in the group", h)
		}
		seen[h] = true
	}
	return nil
}
