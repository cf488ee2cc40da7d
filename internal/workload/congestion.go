package workload

import (
	"flowpulse/internal/fabric"
	"flowpulse/internal/sim"
	"flowpulse/internal/topology"
	"flowpulse/internal/transport"
)

// IncastConfig describes an N→1 burst generator: every burst, Fanout
// sources fire one message each at a victim host in the same instant —
// the synchronized-reader pattern (distributed storage, parameter
// servers) that piles up in the victim leaf's downlink queue and mimics
// loss without any fault.
type IncastConfig struct {
	// Sources are the candidate senders.
	Sources []topology.HostID
	// Victims are the burst targets (typically the hosts of one leaf);
	// each burst picks one at random.
	Victims []topology.HostID
	// MessageBytes is the payload per source per burst. Defaults to
	// 128 KiB.
	MessageBytes int
	// MeanGap is the mean exponential gap between bursts. Defaults to
	// 100 µs.
	MeanGap sim.Duration
	// Fanout is how many sources fire per burst. Defaults to all.
	Fanout int
	// Priority is the traffic class. Defaults to Low (the ISSUE's
	// incast is background-tenant traffic, not the measured job).
	Priority fabric.Priority
	// Until stops generation at this simulated time.
	Until sim.Time
	// Seed feeds the generator's stream.
	Seed uint64
	// OnBurst, when set, observes every burst instant (statistics and
	// experiment hook).
	OnBurst func(now sim.Time)
}

// Incast is a running incast-storm generator.
type Incast struct {
	cfg   IncastConfig
	stack *transport.Stack
	eng   *sim.Engine
	rng   *sim.RNG

	// BurstsSent and MessagesSent count generated traffic.
	BurstsSent, MessagesSent int
	stopped                  bool
}

// StartIncast launches the generator. It stops at cfg.Until or when
// Stop is called.
func StartIncast(stack *transport.Stack, cfg IncastConfig) *Incast {
	if len(cfg.Sources) < 1 || len(cfg.Victims) < 1 {
		panic("workload: incast needs at least one source and one victim")
	}
	if cfg.MessageBytes == 0 {
		cfg.MessageBytes = 128 << 10
	}
	if cfg.MeanGap == 0 {
		cfg.MeanGap = 100 * sim.Microsecond
	}
	if cfg.Fanout <= 0 || cfg.Fanout > len(cfg.Sources) {
		cfg.Fanout = len(cfg.Sources)
	}
	if cfg.Priority == 0 {
		cfg.Priority = fabric.Low
	}
	in := &Incast{
		cfg:   cfg,
		stack: stack,
		eng:   stackEngine(stack),
		rng:   sim.NewRNG(cfg.Seed, "incast"),
	}
	in.scheduleNext()
	return in
}

// Stop halts generation. Already-scheduled engine events drain as
// no-ops, so Pending reaches zero without cancellation surgery.
func (in *Incast) Stop() { in.stopped = true }

func (in *Incast) scheduleNext() {
	gap := in.rng.Exponential(in.cfg.MeanGap)
	in.eng.After(gap, func(now sim.Time) {
		if in.stopped || (in.cfg.Until > 0 && now >= in.cfg.Until) {
			return
		}
		in.burst()
		if in.cfg.OnBurst != nil {
			in.cfg.OnBurst(now)
		}
		in.scheduleNext()
	})
}

// burst fires Fanout sources at one victim in the same instant. The
// sender window starts at a random index so the burst membership
// rotates without per-burst shuffling allocations.
func (in *Incast) burst() {
	victim := in.cfg.Victims[in.rng.PickN(len(in.cfg.Victims))]
	start := in.rng.PickN(len(in.cfg.Sources))
	fired := 0
	for k := 0; k < len(in.cfg.Sources) && fired < in.cfg.Fanout; k++ {
		src := in.cfg.Sources[(start+k)%len(in.cfg.Sources)]
		if src == victim {
			continue
		}
		sendFromControl(in.stack, &transport.Message{
			Src:      src,
			Dst:      victim,
			Bytes:    in.cfg.MessageBytes,
			Priority: in.cfg.Priority,
		})
		in.MessagesSent++
		fired++
	}
	in.BurstsSent++
}

// StormConfig describes a bursty on/off heavy-flow generator: a
// multi-tenant neighbor that alternates between saturating one random
// pair and going quiet. It runs at High priority — sharing the
// measured class is precisely what perturbs the detector's per-port
// load model (Low-priority storms cannot shift High's spray decisions;
// see the fabric's per-class load estimator).
type StormConfig struct {
	// Hosts are the endpoints to pick burst pairs from.
	Hosts []topology.HostID
	// MessageBytes is the payload per message. Defaults to 256 KiB.
	MessageBytes int
	// OnMean and OffMean are the mean exponential burst and quiet
	// lengths. Defaults: 50 µs on, 150 µs off (25% duty cycle).
	OnMean, OffMean sim.Duration
	// MeanGap is the mean message gap inside a burst. Defaults to 5 µs.
	MeanGap sim.Duration
	// Until stops generation at this simulated time.
	Until sim.Time
	// Seed feeds the generator's stream.
	Seed uint64
}

// Storm is a running on/off storm generator.
type Storm struct {
	cfg   StormConfig
	stack *transport.Stack
	eng   *sim.Engine
	rng   *sim.RNG

	// Bursts and MessagesSent count generated traffic; OnTime
	// accumulates total burst time (the duty-cycle numerator).
	Bursts, MessagesSent int
	OnTime               sim.Duration

	src, dst topology.HostID
	burstEnd sim.Time
	stopped  bool
}

// StartStorm launches the generator. It stops at cfg.Until or when
// Stop is called (mid-burst included).
func StartStorm(stack *transport.Stack, cfg StormConfig) *Storm {
	if len(cfg.Hosts) < 2 {
		panic("workload: storm traffic needs at least 2 hosts")
	}
	if cfg.MessageBytes == 0 {
		cfg.MessageBytes = 256 << 10
	}
	if cfg.OnMean == 0 {
		cfg.OnMean = 50 * sim.Microsecond
	}
	if cfg.OffMean == 0 {
		cfg.OffMean = 150 * sim.Microsecond
	}
	if cfg.MeanGap == 0 {
		cfg.MeanGap = 5 * sim.Microsecond
	}
	st := &Storm{
		cfg:   cfg,
		stack: stack,
		eng:   stackEngine(stack),
		rng:   sim.NewRNG(cfg.Seed, "storm"),
	}
	st.scheduleBurst()
	return st
}

// Stop halts generation, mid-burst included.
func (st *Storm) Stop() { st.stopped = true }

// scheduleBurst waits out an off-phase, then opens a burst.
func (st *Storm) scheduleBurst() {
	gap := st.rng.Exponential(st.cfg.OffMean)
	st.eng.After(gap, func(now sim.Time) {
		if st.stopped || (st.cfg.Until > 0 && now >= st.cfg.Until) {
			return
		}
		st.src = st.cfg.Hosts[st.rng.PickN(len(st.cfg.Hosts))]
		st.dst = st.src
		for st.dst == st.src {
			st.dst = st.cfg.Hosts[st.rng.PickN(len(st.cfg.Hosts))]
		}
		on := st.rng.Exponential(st.cfg.OnMean)
		st.burstEnd = now.Add(on)
		st.OnTime += on
		st.Bursts++
		st.pump(now)
	})
}

// pump emits messages through the burst, then rolls into the next
// off-phase.
func (st *Storm) pump(now sim.Time) {
	if st.stopped || (st.cfg.Until > 0 && now >= st.cfg.Until) {
		return
	}
	if now >= st.burstEnd {
		st.scheduleBurst()
		return
	}
	sendFromControl(st.stack, &transport.Message{
		Src:      st.src,
		Dst:      st.dst,
		Bytes:    st.cfg.MessageBytes,
		Priority: fabric.High,
	})
	st.MessagesSent++
	st.eng.After(st.rng.Exponential(st.cfg.MeanGap), st.pump)
}

// sendFromControl injects a message from a generator. The generator
// (and its RNG) lives on the control engine, but the stack may only be
// entered from the domain owning the source host: the hand-off is
// fabric.Network.Call's — inline within a domain, a post that lands at
// the next window boundary across them, at most one lookahead late and
// equally so for every worker count.
func sendFromControl(stack *transport.Stack, m *transport.Message) {
	net := stack.Network()
	net.Call(0, net.DomainOf(m.Src), func(sim.Time) { stack.Send(m) })
}
