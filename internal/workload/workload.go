// Package workload drives training traffic over the simulated fabric:
// iterating collectives with compute gaps and per-rank start jitter
// (the stragglers of §4), low-priority background flows (§5.1), and
// multiple concurrent jobs sharing the network (§7 "Parallel Jobs").
package workload

import (
	"fmt"

	"flowpulse/internal/collective"
	"flowpulse/internal/fabric"
	"flowpulse/internal/metrics"
	"flowpulse/internal/sim"
	"flowpulse/internal/topology"
	"flowpulse/internal/transport"
)

// JobConfig describes one training job.
type JobConfig struct {
	// Job is the id carried in every tagged packet.
	Job uint16
	// Collective is the per-iteration communication pattern.
	Collective collective.Collective
	// Iterations is how many training iterations to run.
	Iterations int
	// JitterMax is the per-rank, per-iteration uniform start delay —
	// zero disables jitter.
	JitterMax sim.Duration
	// StragglerOffsets adds a fixed per-rank start delay on top of the
	// jitter — the topology-asymmetric straggler: ranks on one leaf
	// consistently late skew the temporal symmetry the detector leans
	// on without any network fault. Nil disables; shorter slices pad
	// with zero.
	StragglerOffsets []sim.Duration
	// Priority is the traffic class; the measured collective runs
	// High (the default).
	Priority fabric.Priority
	// Sentinel tags packets for FlowPulse measurement. Defaults true
	// via StartJob.
	Sentinel bool
	// TrackValues enables reduction-checksum bookkeeping.
	TrackValues bool
	// Seed feeds the jitter stream.
	Seed uint64
	// Goodput, when non-nil, receives one sample per completed
	// iteration (iteration number, completion time, duration) — the
	// training-throughput timeline the resilience experiments score.
	Goodput *metrics.GoodputTimeline

	// OnIteration fires after each completed iteration.
	OnIteration func(now sim.Time, iter uint32, res *collective.Result)
	// OnDone fires after the last iteration.
	OnDone func(now sim.Time)
}

// computeGap separates an iteration's completion from the next
// iteration's start (forward/backward pass time).
const computeGap = 20 * sim.Microsecond

// Job is a running training job.
type Job struct {
	cfg   JobConfig
	stack *transport.Stack
	eng   *sim.Engine
	rng   *sim.RNG

	iter      uint32
	remaining int
	values    [][]float64
	pending   collective.Collective

	// CompletedIterations counts finished iterations.
	CompletedIterations int
	// LastIterationTime is the wall-clock duration of the most recent
	// iteration (completion minus start).
	LastIterationTime sim.Duration

	started sim.Time
}

// StartJob begins running a job. Iterations are sequential: iteration
// k+1 starts ComputeGap after k completes, exactly the bulk-synchronous
// pattern whose repetition creates temporal symmetry (§4).
func StartJob(stack *transport.Stack, cfg JobConfig) *Job {
	if cfg.Collective == nil || cfg.Iterations <= 0 {
		panic("workload: job needs a collective and a positive iteration count")
	}
	j := &Job{
		cfg:       cfg,
		stack:     stack,
		eng:       stackEngine(stack),
		rng:       sim.NewRNG(cfg.Seed, fmt.Sprintf("jitter/job%d", cfg.Job)),
		iter:      1,
		remaining: cfg.Iterations,
	}
	if cfg.TrackValues {
		n := j.ranks()
		j.values = make([][]float64, n)
		for i := range j.values {
			j.values[i] = make([]float64, n)
			for c := range j.values[i] {
				j.values[i][c] = float64(i*1000 + c)
			}
		}
	}
	j.startIteration()
	return j
}

func stackEngine(s *transport.Stack) *sim.Engine { return s.Engine() }

func (j *Job) ranks() int {
	return len(j.cfg.Collective.Demand().Hosts)
}

// Collective returns the plan currently driving iterations.
func (j *Job) Collective() collective.Collective { return j.cfg.Collective }

// Replan swaps the job onto a new collective at the next iteration
// barrier: the in-flight iteration completes under its original plan
// (its transport messages are already scheduled), and every subsequent
// iteration runs the new one. A second Replan before the barrier
// simply replaces the pending plan.
func (j *Job) Replan(c collective.Collective) {
	if c == nil {
		panic("workload: Replan needs a collective")
	}
	j.pending = c
}

// adoptPending installs a pending re-plan at the iteration barrier.
// Value tracking is per-plan (chunk ownership follows the group), so
// checksum bookkeeping restarts from the new membership.
func (j *Job) adoptPending() {
	if j.pending == nil {
		return
	}
	j.cfg.Collective = j.pending
	j.pending = nil
	if j.values != nil {
		n := j.ranks()
		j.values = make([][]float64, n)
		for i := range j.values {
			j.values[i] = make([]float64, n)
			for c := range j.values[i] {
				j.values[i][c] = float64(i*1000 + c)
			}
		}
	}
}

func (j *Job) startIteration() {
	j.adoptPending()
	j.started = j.eng.Now()
	n := j.ranks()
	var offsets []sim.Duration
	if j.cfg.JitterMax > 0 || j.cfg.StragglerOffsets != nil {
		offsets = make([]sim.Duration, n)
		if j.cfg.JitterMax > 0 {
			for i := range offsets {
				offsets[i] = j.rng.UniformDuration(j.cfg.JitterMax)
			}
		}
		for i, d := range j.cfg.StragglerOffsets {
			if i >= n {
				break
			}
			offsets[i] += d
		}
	}
	iter := j.iter
	j.cfg.Collective.Run(&collective.RunContext{
		Stack:        j.stack,
		Tag:          fabric.FlowTag{Sentinel: j.cfg.Sentinel, Job: j.cfg.Job, Iter: iter},
		Priority:     j.cfg.Priority,
		StartOffsets: offsets,
		Values:       j.values,
		OnComplete: func(now sim.Time, res *collective.Result) {
			j.onIterationDone(now, iter, res)
		},
	})
}

func (j *Job) onIterationDone(now sim.Time, iter uint32, res *collective.Result) {
	j.CompletedIterations++
	j.LastIterationTime = now.Sub(j.started)
	if j.cfg.Goodput != nil {
		j.cfg.Goodput.Add(iter, int64(now), int64(j.LastIterationTime))
	}
	if res.Values != nil {
		j.values = res.Values
	}
	if j.cfg.OnIteration != nil {
		j.cfg.OnIteration(now, iter, res)
	}
	j.remaining--
	if j.remaining == 0 {
		if j.cfg.OnDone != nil {
			j.cfg.OnDone(now)
		}
		return
	}
	j.iter++
	j.eng.After(computeGap, func(sim.Time) { j.startIteration() })
}

// BackgroundConfig describes low-priority filler traffic.
type BackgroundConfig struct {
	// Hosts are the endpoints to pick src/dst pairs from.
	Hosts []topology.HostID
	// MessageBytes is the payload per background message. Defaults to
	// 64 KiB.
	MessageBytes int
	// MeanGap is the mean exponential inter-arrival time of messages
	// (per generator). Defaults to 10 µs.
	MeanGap sim.Duration
	// Until stops generation at this simulated time.
	Until sim.Time
	// Seed feeds the generator's stream.
	Seed uint64
}

// Background is a running background-traffic generator.
type Background struct {
	cfg   BackgroundConfig
	stack *transport.Stack
	eng   *sim.Engine
	rng   *sim.RNG

	// MessagesSent counts generated messages.
	MessagesSent int
	stopped      bool
}

// StartBackground launches a Poisson-ish generator of Low-priority
// messages between random host pairs. It stops at cfg.Until or when
// Stop is called.
func StartBackground(stack *transport.Stack, cfg BackgroundConfig) *Background {
	if len(cfg.Hosts) < 2 {
		panic("workload: background traffic needs at least 2 hosts")
	}
	if cfg.MessageBytes == 0 {
		cfg.MessageBytes = 64 << 10
	}
	if cfg.MeanGap == 0 {
		cfg.MeanGap = 10 * sim.Microsecond
	}
	b := &Background{
		cfg:   cfg,
		stack: stack,
		eng:   stackEngine(stack),
		rng:   sim.NewRNG(cfg.Seed, "background"),
	}
	b.scheduleNext()
	return b
}

// Stop halts generation.
func (b *Background) Stop() { b.stopped = true }

func (b *Background) scheduleNext() {
	gap := b.rng.Exponential(b.cfg.MeanGap)
	b.eng.After(gap, func(now sim.Time) {
		if b.stopped || (b.cfg.Until > 0 && now >= b.cfg.Until) {
			return
		}
		b.sendOne()
		b.scheduleNext()
	})
}

func (b *Background) sendOne() {
	src := b.cfg.Hosts[b.rng.PickN(len(b.cfg.Hosts))]
	dst := src
	for dst == src {
		dst = b.cfg.Hosts[b.rng.PickN(len(b.cfg.Hosts))]
	}
	m := &transport.Message{
		Src:      src,
		Dst:      dst,
		Bytes:    b.cfg.MessageBytes,
		Priority: fabric.Low,
	}
	sendFromControl(b.stack, m)
	b.MessagesSent++
}
