// Package sim provides the discrete-event simulation substrate used by
// every other FlowPulse package: a picosecond-resolution clock, an
// event scheduler over FIFO lanes and a 4-ary heap, and deterministic
// named random-number streams.
//
// Time is kept in integer picoseconds so that serialization delays of
// high-speed links (e.g. 400 Gb/s, where a 4 KiB frame takes 81.92 ns)
// are represented exactly. Systematic rounding of per-packet delays
// would otherwise bias the per-port volume measurements that FlowPulse
// compares against its load model.
package sim

import (
	"fmt"
	mathbits "math/bits"
)

// Time is a point in simulated time, in picoseconds since the start of
// the simulation.
type Time int64

// Duration is a span of simulated time, in picoseconds.
type Duration int64

// Common durations.
const (
	Picosecond  Duration = 1
	Nanosecond           = 1000 * Picosecond
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Never is a sentinel Time later than any reachable simulation time.
const Never Time = 1<<63 - 1

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// String formats the time with an adaptive unit.
func (t Time) String() string { return Duration(t).String() }

// String formats the duration with an adaptive unit.
func (d Duration) String() string {
	switch {
	case d < 0:
		return "-" + (-d).String()
	case d < Nanosecond:
		return fmt.Sprintf("%dps", int64(d))
	case d < Microsecond:
		return fmt.Sprintf("%.3gns", float64(d)/float64(Nanosecond))
	case d < Millisecond:
		return fmt.Sprintf("%.4gus", float64(d)/float64(Microsecond))
	case d < Second:
		return fmt.Sprintf("%.4gms", float64(d)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.4gs", float64(d)/float64(Second))
	}
}

// SerializationDelay returns the time to serialize size bytes onto a
// link of rate bits per second. It panics if rateBPS is not positive.
func SerializationDelay(sizeBytes int, rateBPS int64) Duration {
	if rateBPS <= 0 {
		panic("sim: non-positive link rate")
	}
	nbits := uint64(sizeBytes) * 8
	// bits * 1e12 / rate with a 128-bit intermediate: a 4 MiB frame's
	// bit count times 1e12 overflows int64.
	hi, lo := mathbits.Mul64(nbits, uint64(Second))
	q, _ := mathbits.Div64(hi, lo, uint64(rateBPS))
	return Duration(q)
}
