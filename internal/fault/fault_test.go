package fault

import (
	"math"
	"testing"
	"testing/quick"

	"flowpulse/internal/sim"
)

func TestBlackHoleDropsEverything(t *testing.T) {
	var m BlackHole
	for i := 0; i < 100; i++ {
		if m.Apply(sim.Time(i), 64) != Drop {
			t.Fatal("BlackHole delivered a packet")
		}
	}
}

func TestBernoulliDropRate(t *testing.T) {
	for _, rate := range []float64{0.008, 0.015, 0.05, 0.5} {
		m := NewBernoulliDrop(rate, sim.NewRNG(3, "drop"))
		const n = 100000
		drops := 0
		for i := 0; i < n; i++ {
			if m.Apply(0, 4096) == Drop {
				drops++
			}
		}
		got := float64(drops) / n
		// 5-sigma binomial bound.
		tol := 5 * math.Sqrt(rate*(1-rate)/n)
		if math.Abs(got-rate) > tol {
			t.Errorf("rate %v: empirical %v (tol %v)", rate, got, tol)
		}
	}
}

func TestBernoulliDropValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for rate > 1")
		}
	}()
	NewBernoulliDrop(1.5, sim.NewRNG(1, "x"))
}

// TestGilbertElliottLongRunLoss checks the empirical loss rate of the
// two-state Markov process against the analytic steady-state value.
// Samples are correlated (the chain mixes over ≈ 1/pGB + 1/pBG
// packets), so the binomial bound uses an effective sample size
// deflated by the mixing time.
func TestGilbertElliottLongRunLoss(t *testing.T) {
	const (
		pGB, pBG          = 0.01, 0.1
		lossGood, lossBad = 0.001, 0.3
		n                 = 2_000_000
	)
	g := NewGilbertElliott(pGB, pBG, lossGood, lossBad, sim.NewRNG(7, "ge"))
	want := g.SteadyStateLoss()

	drops := 0
	for i := 0; i < n; i++ {
		if g.Apply(sim.Time(i), 4096) == Drop {
			drops++
		}
	}
	got := float64(drops) / n

	neff := n / (1/pGB + 1/pBG)
	tol := 6 * math.Sqrt(want*(1-want)/neff)
	if math.Abs(got-want) > tol {
		t.Errorf("long-run loss %v, analytic %v (tol %v)", got, want, tol)
	}
}

// TestGilbertElliottBurstLength checks the mean Bad-state sojourn
// against the analytic geometric mean 1/pBG.
func TestGilbertElliottBurstLength(t *testing.T) {
	const (
		pGB, pBG = 0.01, 0.1
		n        = 2_000_000
	)
	g := NewGilbertElliott(pGB, pBG, 0, 1, sim.NewRNG(11, "ge-burst"))
	want := 1 / pBG

	var bursts, total int
	run := 0
	for i := 0; i < n; i++ {
		g.Apply(sim.Time(i), 4096)
		if g.bad {
			run++
		} else if run > 0 {
			bursts++
			total += run
			run = 0
		}
	}
	if bursts < 1000 {
		t.Fatalf("only %d bursts observed; test underpowered", bursts)
	}
	got := float64(total) / float64(bursts)
	// Geometric sojourns: std ≈ sqrt(1-p)/p ≈ mean for small p.
	tol := 6 * (math.Sqrt(1-pBG) / pBG) / math.Sqrt(float64(bursts))
	if math.Abs(got-want) > tol {
		t.Errorf("mean burst length %v, analytic %v (tol %v, %d bursts)", got, want, tol, bursts)
	}
}

func TestLinkFlapDutyCycle(t *testing.T) {
	f := NewLinkFlap(100*sim.Microsecond, 35*sim.Microsecond, 7*sim.Microsecond)
	// Empirical duty cycle from uniform random sample times over many
	// periods: binomial confidence bound around the analytic value.
	rng := sim.NewRNG(13, "flap")
	const n = 200_000
	span := 1000 * 100 * sim.Microsecond
	down := 0
	for i := 0; i < n; i++ {
		at := sim.Time(7*sim.Microsecond) + sim.Time(rng.UniformDuration(span))
		if f.Apply(at, 256) == Drop {
			down++
		}
	}
	got := float64(down) / n
	tol := 5 * math.Sqrt(0.35*0.65/n)
	if math.Abs(got-0.35) > tol {
		t.Errorf("empirical duty cycle %v, want 0.35 (tol %v)", got, tol)
	}
}

func TestLinkFlapEdges(t *testing.T) {
	f := NewLinkFlap(100, 30, 50)
	cases := []struct {
		at   sim.Time
		want Verdict
	}{
		{0, Deliver},  // before the first cycle: up
		{49, Deliver}, // still before phase
		{50, Drop},    // cycle start: down
		{79, Drop},    // last down instant
		{80, Deliver}, // up portion
		{149, Deliver},
		{150, Drop}, // second cycle
	}
	for _, c := range cases {
		if got := f.Apply(c.at, 64); got != c.want {
			t.Errorf("LinkFlap at %v: got %v, want %v", c.at, got, c.want)
		}
	}
}

func TestLinkFlapInnerModel(t *testing.T) {
	// A flap with an inner model degrades instead of dying: during the
	// down phase the inner process decides, outside it everything
	// delivers.
	f := NewLinkFlap(100, 50, 0)
	f.Inner = NewBernoulliDrop(0.5, sim.NewRNG(17, "flap-inner"))
	const n = 100000
	downDrops, downTotal := 0, 0
	for i := 0; i < n; i++ {
		at := sim.Time(i % 100)
		v := f.Apply(at, 256)
		if !f.Down(at) {
			if v != Deliver {
				t.Fatal("up phase dropped with inner model")
			}
			continue
		}
		downTotal++
		if v == Drop {
			downDrops++
		}
	}
	got := float64(downDrops) / float64(downTotal)
	tol := 5 * math.Sqrt(0.5*0.5/float64(downTotal))
	if math.Abs(got-0.5) > tol {
		t.Errorf("down-phase loss %v, want 0.5 (tol %v)", got, tol)
	}
}

func TestLinkFlapValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for downFor > period")
		}
	}()
	NewLinkFlap(100, 200, 0)
}

func TestBitErrorDropProbability(t *testing.T) {
	b := NewBitError(1e-6, sim.NewRNG(5, "ber"))
	// 4096-byte packet: 32768 bits; p = 1-(1-1e-6)^32768 ≈ 0.0322.
	p := b.DropProbability(4096)
	if math.Abs(p-0.03222) > 0.001 {
		t.Fatalf("DropProbability(4096) = %v", p)
	}
	// Larger packets must be more likely to drop (the paper's point
	// about probes vs large flows).
	if b.DropProbability(64) >= b.DropProbability(4096) {
		t.Fatal("small packet drop probability not lower than large packet's")
	}
}

func TestBitErrorEmpirical(t *testing.T) {
	b := NewBitError(1e-6, sim.NewRNG(6, "ber2"))
	const n = 50000
	drops := 0
	for i := 0; i < n; i++ {
		if b.Apply(0, 4096) == Drop {
			drops++
		}
	}
	got := float64(drops) / n
	want := b.DropProbability(4096)
	if math.Abs(got-want) > 5*math.Sqrt(want*(1-want)/n) {
		t.Fatalf("empirical %v, want %v", got, want)
	}
}

func TestGilbertElliottSteadyState(t *testing.T) {
	g := NewGilbertElliott(0.01, 0.1, 0.001, 0.3, sim.NewRNG(7, "ge"))
	want := g.SteadyStateLoss()
	const n = 500000
	drops := 0
	for i := 0; i < n; i++ {
		if g.Apply(0, 4096) == Drop {
			drops++
		}
	}
	got := float64(drops) / n
	if math.Abs(got-want) > 0.15*want {
		t.Fatalf("steady-state loss: empirical %v, analytic %v", got, want)
	}
}

func TestGilbertElliottBurstiness(t *testing.T) {
	// With sticky states, losses must cluster: the conditional loss
	// probability after a loss should exceed the marginal loss rate.
	g := NewGilbertElliott(0.005, 0.05, 0.0, 0.5, sim.NewRNG(8, "ge2"))
	const n = 300000
	losses := make([]bool, n)
	total := 0
	for i := range losses {
		losses[i] = g.Apply(0, 4096) == Drop
		if losses[i] {
			total++
		}
	}
	afterLoss, afterLossDrop := 0, 0
	for i := 1; i < n; i++ {
		if losses[i-1] {
			afterLoss++
			if losses[i] {
				afterLossDrop++
			}
		}
	}
	marginal := float64(total) / n
	conditional := float64(afterLossDrop) / float64(afterLoss)
	if conditional < 2*marginal {
		t.Fatalf("losses not bursty: conditional %v vs marginal %v", conditional, marginal)
	}
}

// Property: a Bernoulli model with rate 0 never drops and rate 1
// always drops, regardless of packet size or time.
func TestBernoulliEdgesProperty(t *testing.T) {
	zero := NewBernoulliDrop(0, sim.NewRNG(9, "z"))
	one := NewBernoulliDrop(1, sim.NewRNG(9, "o"))
	f := func(at int64, size uint16) bool {
		tm := sim.Time(at & 0x7fffffffffffffff)
		return zero.Apply(tm, int(size)) == Deliver && one.Apply(tm, int(size)) == Drop
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestModelStrings(t *testing.T) {
	models := []Model{
		BlackHole{},
		NewBernoulliDrop(0.015, sim.NewRNG(1, "a")),
		NewBitError(1e-7, sim.NewRNG(1, "b")),
		NewGilbertElliott(0.1, 0.1, 0, 0.5, sim.NewRNG(1, "c")),
	}
	for _, m := range models {
		if m.String() == "" {
			t.Errorf("%T has empty String()", m)
		}
	}
}
