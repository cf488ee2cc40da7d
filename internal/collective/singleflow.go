package collective

import (
	"fmt"

	"flowpulse/internal/sim"
	"flowpulse/internal/topology"
	"flowpulse/internal/transport"
)

// SingleFlow is a degenerate "collective": one bulk message from Src
// to Dst per iteration. Fig 2 uses it to compare the analytical
// model's per-port prediction against the simulator for an isolated
// flow.
type SingleFlow struct {
	Src, Dst topology.HostID
	Bytes    int64
}

// Name implements Collective.
func (s *SingleFlow) Name() string { return "single-flow" }

// Demand implements Collective.
func (s *SingleFlow) Demand() *DemandMatrix {
	d := &DemandMatrix{
		Hosts: []topology.HostID{s.Src, s.Dst},
		Bytes: [][]int64{{0, s.Bytes}, {0, 0}},
		Msgs:  [][][]int64{{nil, {s.Bytes}}, {nil, nil}},
	}
	return d
}

// Run implements Collective.
func (s *SingleFlow) Run(ctx *RunContext) {
	if s.Bytes <= 0 {
		panic(fmt.Sprintf("collective: single flow of %d bytes", s.Bytes))
	}
	var off sim.Duration
	if ctx.StartOffsets != nil {
		off = ctx.StartOffsets[0]
	}
	ctx.scheduleStart(s.Src, off, func(sim.Time) {
		ctx.Stack.Send(&transport.Message{
			Src:      s.Src,
			Dst:      s.Dst,
			Bytes:    int(s.Bytes),
			Priority: ctx.Priority,
			Tag:      ctx.Tag,
			OnDelivered: func(now sim.Time, _ *transport.Message) {
				ctx.finish(s.Dst, func(now sim.Time) {
					if ctx.OnComplete != nil {
						ctx.OnComplete(now, &Result{FinishedAt: now, MessagesSent: 1})
					}
				})
			},
		})
	})
}
