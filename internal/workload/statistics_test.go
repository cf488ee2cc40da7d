package workload

import (
	"math"
	"testing"

	"flowpulse/internal/fabric"
	"flowpulse/internal/sim"
	"flowpulse/internal/topology"
	"flowpulse/internal/transport"
)

// Statistical regression tests for the adversarial-traffic generators
// and the DCQCN reaction point, in the style of the fault package's
// loss-process tests: fixed seeds make every run deterministic, and
// the bounds are far outside what a correct implementation lands on.

// ecnRig is a rig whose fabric marks aggressively and whose transport
// reacts — the full ECN/DCQCN loop on a small fat tree.
func ecnRig(t *testing.T, leaves, spines int, seed uint64) *rig {
	t.Helper()
	topo, err := topology.NewFatTree(topology.FatTreeConfig{Leaves: leaves, Spines: spines})
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	net := fabric.MustNew(fabric.Config{
		Topo: topo, Engine: eng, Seed: seed,
		ECN: fabric.ECNConfig{Enabled: true, KMinBytes: 8 << 10, KMaxBytes: 32 << 10},
	})
	stack := transport.NewStack(net, transport.Config{DCQCN: true})
	return &rig{topo: topo, eng: eng, net: net, stack: stack}
}

func TestIncastInterArrivalExponential(t *testing.T) {
	// Burst gaps are drawn exponentially; chi-square the observed gap
	// histogram against the exponential law. A generator that fires at
	// the right mean rate but in a regular cadence fails here while
	// passing any count-based test.
	r := newRig(t, 4, 2, 21)
	const mean = 100 * sim.Microsecond
	var times []sim.Time
	in := StartIncast(r.stack, IncastConfig{
		Sources:      groupOf(r.topo)[1:],
		Victims:      groupOf(r.topo)[:1],
		MessageBytes: 16 << 10,
		MeanGap:      mean,
		Until:        sim.Time(400 * sim.Millisecond),
		Seed:         21,
		OnBurst:      func(now sim.Time) { times = append(times, now) },
	})
	r.eng.Run()
	if in.BurstsSent < 3000 {
		t.Fatalf("only %d bursts; too few for the histogram", in.BurstsSent)
	}
	// 10 equal-probability exponential bins plus the implicit tail:
	// bin k covers [F⁻¹(k/11), F⁻¹((k+1)/11)).
	const bins = 11
	counts := make([]int, bins)
	for i := 1; i < len(times); i++ {
		gap := float64(times[i].Sub(times[i-1])) / float64(mean)
		k := int(float64(bins) * (1 - math.Exp(-gap)))
		if k >= bins {
			k = bins - 1
		}
		counts[k]++
	}
	n := float64(len(times) - 1)
	exp := n / bins
	var chi2 float64
	for _, c := range counts {
		dev := float64(c) - exp
		chi2 += dev * dev / exp
	}
	// df = 10: χ² ∈ [1.48, 29.59] covers 99.8% two-sided.
	if chi2 < 1.478 || chi2 > 29.588 {
		t.Errorf("inter-burst gap χ² = %.2f outside [1.48, 29.59] (counts %v)", chi2, counts)
	}
}

func TestIncastBurstAccounting(t *testing.T) {
	// Every burst fires exactly Fanout messages, never at the victim.
	r := newRig(t, 4, 2, 22)
	hosts := groupOf(r.topo)
	in := StartIncast(r.stack, IncastConfig{
		Sources:      hosts, // victim included: burst must skip it
		Victims:      hosts[:1],
		MessageBytes: 8 << 10,
		MeanGap:      50 * sim.Microsecond,
		Fanout:       2,
		Until:        sim.Time(5 * sim.Millisecond),
		Seed:         22,
	})
	r.eng.Run()
	if in.BurstsSent == 0 {
		t.Fatal("no bursts")
	}
	if in.MessagesSent != 2*in.BurstsSent {
		t.Errorf("messages %d != fanout 2 × bursts %d", in.MessagesSent, in.BurstsSent)
	}
}

func TestStormDutyCycleTolerance(t *testing.T) {
	// The on/off generator's duty cycle is OnMean/(OnMean+OffMean);
	// OnTime accumulates the drawn burst lengths. 25% nominal, and a
	// 400 ms run averages ~500 on/off pairs — a loose ±40% relative
	// band catches an inverted or unscaled phase draw while never
	// flaking on seed luck.
	r := newRig(t, 4, 2, 23)
	const until = 400 * sim.Millisecond
	st := StartStorm(r.stack, StormConfig{
		Hosts:        groupOf(r.topo),
		MessageBytes: 16 << 10,
		OnMean:       50 * sim.Microsecond,
		OffMean:      150 * sim.Microsecond,
		MeanGap:      5 * sim.Microsecond,
		Until:        sim.Time(until),
		Seed:         23,
	})
	r.eng.Run()
	if st.Bursts < 1000 {
		t.Fatalf("only %d bursts", st.Bursts)
	}
	duty := float64(st.OnTime) / float64(until)
	if duty < 0.15 || duty > 0.35 {
		t.Errorf("duty cycle %.3f outside [0.15, 0.35] (want ≈0.25)", duty)
	}
	// The drawn burst length is exponential with mean OnMean.
	meanOn := float64(st.OnTime) / float64(st.Bursts) / float64(50*sim.Microsecond)
	if meanOn < 0.85 || meanOn > 1.15 {
		t.Errorf("mean burst length %.3f × OnMean outside [0.85, 1.15]", meanOn)
	}
}

func TestDCQCNRateRecoveryShape(t *testing.T) {
	// Saturate one victim with an in-class incast on a mark-happy
	// fabric, then stop the load and sample one pair's paced rate: the
	// loop must have cut below line during congestion, recover
	// monotonically while idle, and end back at line rate.
	r := ecnRig(t, 4, 2, 24)
	hosts := groupOf(r.topo)
	victim := hosts[0]
	in := StartIncast(r.stack, IncastConfig{
		Sources:      hosts[1:],
		Victims:      hosts[:1],
		MessageBytes: 64 << 10,
		MeanGap:      20 * sim.Microsecond,
		Priority:     fabric.High,
		Until:        sim.Time(2 * sim.Millisecond),
		Seed:         24,
	})
	line := float64(r.topo.Link(r.topo.Host(hosts[1]).Link).RateBPS)

	var cutRate float64 = line
	var samples []float64
	var sample func(now sim.Time)
	sample = func(now sim.Time) {
		rate := r.stack.PairRateBPS(hosts[1], victim)
		if now < sim.Time(2*sim.Millisecond) {
			if rate < cutRate {
				cutRate = rate
			}
		} else {
			samples = append(samples, rate)
		}
		if now < sim.Time(4*sim.Millisecond) {
			r.eng.After(25*sim.Microsecond, sample)
		}
	}
	r.eng.After(25*sim.Microsecond, sample)
	r.eng.Run()

	if in.BurstsSent == 0 {
		t.Fatal("no bursts")
	}
	if r.stack.Stats().RateCuts == 0 {
		t.Fatal("congestion never cut a rate: the ECN→ACK-echo→DCQCN loop is broken")
	}
	if cutRate >= 0.9*line {
		t.Errorf("paced rate never dropped below 90%% of line during congestion (min %.0f of %.0f)", cutRate, line)
	}
	// Idle recovery: monotone non-decreasing, ending at line rate.
	for i := 1; i < len(samples); i++ {
		if samples[i] < samples[i-1]-1 {
			t.Fatalf("recovery not monotone: sample %d %.0f < %.0f", i, samples[i], samples[i-1])
		}
	}
	if got := samples[len(samples)-1]; got < 0.999*line {
		t.Errorf("pair ended at %.0f bps, want line %.0f", got, line)
	}
}
