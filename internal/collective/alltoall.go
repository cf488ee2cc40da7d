package collective

import (
	"fmt"

	"flowpulse/internal/sim"
	"flowpulse/internal/topology"
	"flowpulse/internal/transport"
)

// AllToAll is the personalized exchange used by expert parallelism
// (§7 "Beyond reduction collectives"): every rank sends a distinct
// block to every other rank. It is scheduled in N-1 shifted rounds
// (round t: rank i sends to rank (i+t) mod N), the standard
// congestion-avoiding permutation schedule; rounds are pipelined per
// rank, the next starting when the previous round's block has been
// delivered to this rank.
type AllToAll struct {
	// Group lists the participating hosts.
	Group []topology.HostID
	// BytesPerPair is the payload each rank sends each other rank.
	BytesPerPair int64
}

// Name implements Collective.
func (a *AllToAll) Name() string { return "all-to-all" }

// Demand implements Collective.
func (a *AllToAll) Demand() *DemandMatrix {
	n := len(a.Group)
	d := &DemandMatrix{
		Hosts: append([]topology.HostID(nil), a.Group...),
		Bytes: make([][]int64, n),
		Msgs:  make([][][]int64, n),
	}
	for i := range d.Bytes {
		d.Bytes[i] = make([]int64, n)
		d.Msgs[i] = make([][]int64, n)
		for j := range d.Bytes[i] {
			if i != j {
				d.Bytes[i][j] = a.BytesPerPair
				d.Msgs[i][j] = []int64{a.BytesPerPair}
			}
		}
	}
	return d
}

// Run implements Collective.
func (a *AllToAll) Run(ctx *RunContext) {
	if err := validateGroup(a.Group); err != nil {
		panic(err)
	}
	if a.BytesPerPair <= 0 {
		panic(fmt.Sprintf("collective: all-to-all with %d bytes per pair", a.BytesPerPair))
	}
	n := len(a.Group)

	var vals [][]float64
	if ctx.Values != nil {
		if len(ctx.Values) != n {
			panic(fmt.Sprintf("collective: %d value rows for %d ranks", len(ctx.Values), n))
		}
		// vals[dst][src] collects the block src sent dst; a rank's own
		// block stays in place.
		vals = make([][]float64, n)
		for i := range vals {
			vals[i] = make([]float64, n)
			vals[i][i] = ctx.Values[i][i]
		}
	}

	st := &a2aState{ctx: ctx, a: a, vals: vals, remaining: n * (n - 1)}
	st.done = func(now sim.Time) {
		st.remaining--
		if st.remaining == 0 && ctx.OnComplete != nil {
			ctx.OnComplete(now, &Result{FinishedAt: now, Values: st.vals, MessagesSent: n * (n - 1)})
		}
	}
	for rank := 0; rank < n; rank++ {
		rank := rank
		var off sim.Duration
		if ctx.StartOffsets != nil {
			off = ctx.StartOffsets[rank]
		}
		ctx.scheduleStart(a.Group[rank], off, func(sim.Time) { st.send(rank, 1) })
	}
}

type a2aState struct {
	ctx       *RunContext
	a         *AllToAll
	vals      [][]float64
	remaining int
	done      sim.Handler
}

func (st *a2aState) send(rank, round int) {
	n := len(st.a.Group)
	dst := (rank + round) % n
	var value float64
	if st.ctx.Values != nil {
		value = st.ctx.Values[rank][dst]
	}
	st.ctx.Stack.Send(&transport.Message{
		Src:      st.a.Group[rank],
		Dst:      st.a.Group[dst],
		Bytes:    int(st.a.BytesPerPair),
		Priority: st.ctx.Priority,
		Tag:      st.ctx.Tag,
		Value:    value,
		OnDelivered: func(now sim.Time, m *transport.Message) {
			st.onRecv(now, dst, rank, round, m.Value)
		},
	})
}

func (st *a2aState) onRecv(now sim.Time, rank, from, round int, value float64) {
	if st.vals != nil {
		st.vals[rank][from] = value
	}
	if round+1 < len(st.a.Group) {
		st.send(rank, round+1)
	}
	// Shared counter — only the control domain may decrement it.
	st.ctx.finish(st.a.Group[rank], st.done)
}
