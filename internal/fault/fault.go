// Package fault implements the link-fault processes FlowPulse must
// detect (§6 "To inject new faults, we configure a single leaf-spine
// link to drop packets at a set rate") and the pre-existing fault
// population (§1/§6: disconnected links awaiting a maintenance
// window).
//
// Models are per-traversal packet-loss processes attached to one
// direction of a link by the fabric. They are deliberately silent: the
// fabric's counters never see a model's drops (that is what makes the
// fault "silent"), only FlowPulse's volume deviation can.
package fault

import (
	"fmt"
	"math"

	"flowpulse/internal/sim"
)

// Verdict is a fault model's decision for one packet traversal.
type Verdict uint8

const (
	// Deliver lets the packet through unharmed.
	Deliver Verdict = iota
	// Drop silently discards the packet.
	Drop
)

// Model is a packet-loss process on one direction of one link. Apply
// is consulted once per packet traversal. Implementations must be
// deterministic given their RNG stream.
type Model interface {
	// Apply decides the fate of a packet of the given size crossing
	// the link at the given time.
	Apply(now sim.Time, sizeBytes int) Verdict
	// String describes the model for logs and experiment records.
	String() string
}

// BernoulliDrop drops each packet independently with a fixed
// probability — the paper's primary injected fault ("drop packets at a
// set rate").
type BernoulliDrop struct {
	Rate float64
	RNG  *sim.RNG
}

// NewBernoulliDrop returns a drop process with the given rate, drawing
// from the given stream.
func NewBernoulliDrop(rate float64, rng *sim.RNG) *BernoulliDrop {
	if rate < 0 || rate > 1 {
		panic(fmt.Sprintf("fault: drop rate %v out of [0,1]", rate))
	}
	return &BernoulliDrop{Rate: rate, RNG: rng}
}

// Apply implements Model.
func (b *BernoulliDrop) Apply(sim.Time, int) Verdict {
	if b.RNG.Bernoulli(b.Rate) {
		return Drop
	}
	return Deliver
}

func (b *BernoulliDrop) String() string { return fmt.Sprintf("bernoulli(%.4g)", b.Rate) }

// BlackHole drops every packet — the transient routing black hole of a
// corrupted FIB entry (§1), as seen from the affected path.
type BlackHole struct{}

// Apply implements Model.
func (BlackHole) Apply(sim.Time, int) Verdict { return Drop }

func (BlackHole) String() string { return "blackhole" }

// BitError drops a packet if any of its bits is corrupted beyond FEC,
// modeling an elevated bit-error-rate transceiver (§7 "Fault Types":
// corrupted packets are dropped in switches when the error cannot be
// corrected). The per-packet drop probability is 1-(1-BER)^(8*size),
// so large packets — exactly the large flows the paper notes are
// disproportionately affected [44] — are hit harder than small probes.
type BitError struct {
	BER float64
	RNG *sim.RNG
}

// NewBitError returns a bit-error process with the given bit error
// rate.
func NewBitError(ber float64, rng *sim.RNG) *BitError {
	if ber < 0 || ber > 1 {
		panic(fmt.Sprintf("fault: BER %v out of [0,1]", ber))
	}
	return &BitError{BER: ber, RNG: rng}
}

// DropProbability returns the packet-loss probability for a packet of
// the given size under this BER.
func (b *BitError) DropProbability(sizeBytes int) float64 {
	bits := float64(8 * sizeBytes)
	return 1 - math.Pow(1-b.BER, bits)
}

// Apply implements Model.
func (b *BitError) Apply(_ sim.Time, sizeBytes int) Verdict {
	if b.RNG.Bernoulli(b.DropProbability(sizeBytes)) {
		return Drop
	}
	return Deliver
}

func (b *BitError) String() string { return fmt.Sprintf("biterror(%.3g)", b.BER) }

// GilbertElliott is a two-state Markov loss process modeling bursty
// gray faults: a mostly-clean Good state and a lossy Bad state, with
// per-packet state transitions.
type GilbertElliott struct {
	// PGoodToBad and PBadToGood are per-packet transition
	// probabilities.
	PGoodToBad, PBadToGood float64
	// LossGood and LossBad are per-packet loss probabilities in each
	// state.
	LossGood, LossBad float64
	RNG               *sim.RNG

	bad bool
}

// NewGilbertElliott returns a bursty loss process starting in the Good
// state.
func NewGilbertElliott(pGB, pBG, lossGood, lossBad float64, rng *sim.RNG) *GilbertElliott {
	for _, p := range []float64{pGB, pBG, lossGood, lossBad} {
		if p < 0 || p > 1 {
			panic(fmt.Sprintf("fault: Gilbert-Elliott probability %v out of [0,1]", p))
		}
	}
	return &GilbertElliott{PGoodToBad: pGB, PBadToGood: pBG, LossGood: lossGood, LossBad: lossBad, RNG: rng}
}

// SteadyStateLoss returns the long-run average loss rate of the
// process.
func (g *GilbertElliott) SteadyStateLoss() float64 {
	den := g.PGoodToBad + g.PBadToGood
	if den == 0 {
		return g.LossGood
	}
	pBad := g.PGoodToBad / den
	return (1-pBad)*g.LossGood + pBad*g.LossBad
}

// Apply implements Model.
func (g *GilbertElliott) Apply(sim.Time, int) Verdict {
	if g.bad {
		if g.RNG.Bernoulli(g.PBadToGood) {
			g.bad = false
		}
	} else {
		if g.RNG.Bernoulli(g.PGoodToBad) {
			g.bad = true
		}
	}
	loss := g.LossGood
	if g.bad {
		loss = g.LossBad
	}
	if g.RNG.Bernoulli(loss) {
		return Drop
	}
	return Deliver
}

func (g *GilbertElliott) String() string {
	return fmt.Sprintf("gilbert-elliott(ss=%.3g)", g.SteadyStateLoss())
}

// LinkFlap is a periodically flapping link: a square wave that drops
// every packet while the link is down and delivers while it is up. It
// is the adversary of naive closed-loop remediation ("The Ghost in the
// Datacenter"): each down phase looks like a hard fault, each up phase
// looks like a clean link, and a controller without damping would
// quarantine and re-admit it forever.
type LinkFlap struct {
	// Period is the full flap cycle length.
	Period sim.Duration
	// DownFor is the leading portion of each cycle spent down
	// (drop-everything). The duty cycle is DownFor/Period.
	DownFor sim.Duration
	// Phase shifts the cycle start; at now == Phase a cycle begins
	// (down first).
	Phase sim.Duration
	// Inner, when set, decides packet fates during the down portion
	// instead of dropping everything — an intermittently *degraded*
	// link (flaky optics) rather than an intermittently dead one.
	Inner Model
}

// NewLinkFlap returns a flapping process with the given cycle.
func NewLinkFlap(period, downFor, phase sim.Duration) *LinkFlap {
	if period <= 0 || downFor < 0 || downFor > period {
		panic(fmt.Sprintf("fault: flap cycle downFor %v out of (0, period %v]", downFor, period))
	}
	return &LinkFlap{Period: period, DownFor: downFor, Phase: phase}
}

// Down reports whether the link is in the drop phase at the given time.
// Before the first cycle starts the link is up.
func (f *LinkFlap) Down(now sim.Time) bool {
	since := sim.Duration(now) - f.Phase
	if since < 0 {
		return false
	}
	return since%f.Period < f.DownFor
}

// Apply implements Model.
func (f *LinkFlap) Apply(now sim.Time, size int) Verdict {
	if !f.Down(now) {
		return Deliver
	}
	if f.Inner != nil {
		return f.Inner.Apply(now, size)
	}
	return Drop
}

func (f *LinkFlap) String() string {
	return fmt.Sprintf("linkflap(period=%v duty=%.2f)", f.Period, float64(f.DownFor)/float64(f.Period))
}
