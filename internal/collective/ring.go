package collective

import (
	"fmt"

	"flowpulse/internal/sim"
	"flowpulse/internal/topology"
	"flowpulse/internal/transport"
)

// RingAllReduce is the pipelined ring implementation of AllReduce used
// by NCCL-style libraries (§2): N-1 reduce-scatter steps followed by
// N-1 all-gather steps over a virtual ring, moving 2·D·(N-1)/N bytes
// per rank per iteration. Each leaf hosts a single ring neighbor pair,
// which is the single-non-local-sender-per-leaf property FlowPulse's
// jitter tolerance relies on (§5.1).
type RingAllReduce struct {
	// Group lists the participating hosts; rank i talks to rank
	// (i+1) mod N. Ring order is the slice order.
	Group []topology.HostID
	// BytesPerRank is D, the gradient bytes each rank contributes.
	BytesPerRank int64
}

// Name implements Collective.
func (r *RingAllReduce) Name() string { return "ring-allreduce" }

// Steps returns the number of pipeline steps per iteration.
func (r *RingAllReduce) Steps() int { return 2 * (len(r.Group) - 1) }

// Demand implements Collective.
func (r *RingAllReduce) Demand() *DemandMatrix {
	return ringDemand(r.Group, r.BytesPerRank, r.Steps(), ringChunkAllReduce)
}

// Run implements Collective.
func (r *RingAllReduce) Run(ctx *RunContext) {
	runRing(ctx, r.Group, r.BytesPerRank, r.Steps(), ringChunkAllReduce, len(r.Group)-1)
}

// Replan implements Replannable: the same D over a new ring order (or
// a smaller surviving membership in degraded mode — the dropped ranks'
// chunks are re-split across the survivors, so the reduction still
// covers the full D bytes, proxied by the remaining ring).
func (r *RingAllReduce) Replan(group []topology.HostID) Collective {
	return &RingAllReduce{Group: append([]topology.HostID(nil), group...), BytesPerRank: r.BytesPerRank}
}

// ReduceScatter is the first half of the ring: after N-1 steps rank i
// owns the fully reduced chunk (i+1) mod N. On 32 nodes this is the
// paper's "31-stage" collective.
type ReduceScatter struct {
	Group        []topology.HostID
	BytesPerRank int64
}

// Name implements Collective.
func (r *ReduceScatter) Name() string { return "reduce-scatter" }

// Steps returns the number of pipeline steps per iteration.
func (r *ReduceScatter) Steps() int { return len(r.Group) - 1 }

// Demand implements Collective.
func (r *ReduceScatter) Demand() *DemandMatrix {
	return ringDemand(r.Group, r.BytesPerRank, r.Steps(), ringChunkAllReduce)
}

// Run implements Collective.
func (r *ReduceScatter) Run(ctx *RunContext) {
	runRing(ctx, r.Group, r.BytesPerRank, r.Steps(), ringChunkAllReduce, len(r.Group)-1)
}

// AllGather is the second half of the ring: rank i starts owning chunk
// i and after N-1 forwarding steps every rank holds every chunk.
type AllGather struct {
	Group        []topology.HostID
	BytesPerRank int64
}

// Name implements Collective.
func (a *AllGather) Name() string { return "all-gather" }

// Steps returns the number of pipeline steps per iteration.
func (a *AllGather) Steps() int { return len(a.Group) - 1 }

// Demand implements Collective.
func (a *AllGather) Demand() *DemandMatrix {
	return ringDemand(a.Group, a.BytesPerRank, a.Steps(), ringChunkAllGather)
}

// Run implements Collective.
func (a *AllGather) Run(ctx *RunContext) {
	runRing(ctx, a.Group, a.BytesPerRank, a.Steps(), ringChunkAllGather, 0)
}

// ringChunkAllReduce gives the chunk rank i forwards at step t of an
// AllReduce (or its reduce-scatter prefix): during reduce-scatter
// (t < N-1) rank i sends chunk (i-t) mod N; during all-gather it sends
// chunk (i+1-(t-(N-1))) mod N — in both phases, exactly the chunk it
// received (and, in phase one, reduced) at step t-1.
func ringChunkAllReduce(n, rank, step int) int {
	if step < n-1 {
		return ((rank-step)%n + n) % n
	}
	tp := step - (n - 1)
	return ((rank+1-tp)%n + n) % n
}

// ringChunkAllGather gives the chunk rank i forwards at step t of a
// standalone AllGather: its own chunk first, then whatever arrived.
func ringChunkAllGather(n, rank, step int) int {
	return ((rank-step)%n + n) % n
}

func ringDemand(group []topology.HostID, bytes int64, steps int, chunkAt func(n, rank, step int) int) *DemandMatrix {
	n := len(group)
	chunks, err := chunkSizes(bytes, n)
	if err != nil {
		panic(err)
	}
	d := &DemandMatrix{
		Hosts: append([]topology.HostID(nil), group...),
		Bytes: make([][]int64, n),
		Msgs:  make([][][]int64, n),
	}
	for i := range d.Bytes {
		d.Bytes[i] = make([]int64, n)
		d.Msgs[i] = make([][]int64, n)
	}
	for rank := 0; rank < n; rank++ {
		succ := (rank + 1) % n
		for step := 0; step < steps; step++ {
			sz := chunks[chunkAt(n, rank, step)]
			d.Bytes[rank][succ] += sz
			d.Msgs[rank][succ] = append(d.Msgs[rank][succ], sz)
		}
	}
	return d
}

// runRing drives one pipelined ring iteration. reduceSteps is how many
// initial steps accumulate values (the rest overwrite, all-gather
// style).
func runRing(ctx *RunContext, group []topology.HostID, bytes int64, steps int,
	chunkAt func(n, rank, step int) int, reduceSteps int) {
	if err := validateGroup(group); err != nil {
		panic(err)
	}
	n := len(group)
	chunks, err := chunkSizes(bytes, n)
	if err != nil {
		panic(err)
	}

	var vals [][]float64
	if ctx.Values != nil {
		if len(ctx.Values) != n {
			panic(fmt.Sprintf("collective: %d value rows for %d ranks", len(ctx.Values), n))
		}
		vals = make([][]float64, n)
		for i := range vals {
			if len(ctx.Values[i]) != n {
				panic(fmt.Sprintf("collective: rank %d has %d chunk values, want %d", i, len(ctx.Values[i]), n))
			}
			vals[i] = append([]float64(nil), ctx.Values[i]...)
		}
	}

	total := n * steps
	run := &ringState{
		ctx: ctx, group: group, chunks: chunks, chunkAt: chunkAt,
		steps: steps, reduceSteps: reduceSteps, vals: vals, remaining: total, totalMsgs: total,
	}
	run.done = func(now sim.Time) {
		run.remaining--
		if run.remaining == 0 && ctx.OnComplete != nil {
			ctx.OnComplete(now, &Result{FinishedAt: now, Values: run.vals, MessagesSent: run.totalMsgs})
		}
	}
	for rank := 0; rank < n; rank++ {
		rank := rank
		start := func(sim.Time) { run.send(rank, 0) }
		var off sim.Duration
		if ctx.StartOffsets != nil {
			off = ctx.StartOffsets[rank]
		}
		ctx.scheduleStart(group[rank], off, start)
	}
}

type ringState struct {
	ctx         *RunContext
	group       []topology.HostID
	chunks      []int64
	chunkAt     func(n, rank, step int) int
	steps       int
	reduceSteps int
	vals        [][]float64
	remaining   int
	totalMsgs   int
	done        sim.Handler
}

func (rs *ringState) send(rank, step int) {
	n := len(rs.group)
	succ := (rank + 1) % n
	chunk := rs.chunkAt(n, rank, step)
	var value float64
	if rs.vals != nil {
		value = rs.vals[rank][chunk]
	}
	m := &transport.Message{
		Src:      rs.group[rank],
		Dst:      rs.group[succ],
		Bytes:    int(rs.chunks[chunk]),
		Priority: rs.ctx.Priority,
		Tag:      rs.ctx.Tag,
		Value:    value,
		OnDelivered: func(now sim.Time, m *transport.Message) {
			rs.onRecv(now, succ, step, chunk, m.Value)
		},
	}
	rs.ctx.Stack.Send(m)
}

func (rs *ringState) onRecv(now sim.Time, rank, step, chunk int, value float64) {
	if rs.vals != nil {
		if step < rs.reduceSteps {
			rs.vals[rank][chunk] += value
		} else {
			rs.vals[rank][chunk] = value
		}
	}
	if step+1 < rs.steps {
		rs.send(rank, step+1)
	}
	// The remaining-counter is shared by every rank; in sharded runs it
	// must only ever be touched from the control domain.
	rs.ctx.finish(rs.group[rank], rs.done)
}
