package sim

import (
	"testing"
	"testing/quick"
)

func TestSerializationDelay(t *testing.T) {
	tests := []struct {
		name    string
		size    int
		rateBPS int64
		want    Duration
	}{
		{"4KiB at 400G", 4096, 400e9, Duration(4096 * 8 * 1e12 / 400e9)},
		{"64B at 400G", 64, 400e9, 1280},                 // 64*8 bits / 400e9 = 1.28ns
		{"1500B at 100G", 1500, 100e9, 120 * Nanosecond}, // 12000 bits / 100Gbps = 120ns
		{"one byte at 1bps", 1, 1, 8 * Second},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := SerializationDelay(tt.size, tt.rateBPS); got != tt.want {
				t.Errorf("SerializationDelay(%d, %d) = %v, want %v", tt.size, tt.rateBPS, got, tt.want)
			}
		})
	}
}

func TestSerializationDelayExactAt400G(t *testing.T) {
	// 400 Gb/s moves 50 bytes per nanosecond; 4096 bytes take exactly
	// 81.92 ns = 81920 ps. This exactness is why Time is in picoseconds.
	got := SerializationDelay(4096, 400e9)
	if got != 81920*Picosecond {
		t.Fatalf("4096B @ 400G = %v, want 81920ps", got)
	}
}

func TestSerializationDelayPanicsOnZeroRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on zero rate")
		}
	}()
	SerializationDelay(1, 0)
}

func TestTimeArithmetic(t *testing.T) {
	t0 := Time(100)
	if got := t0.Add(50); got != 150 {
		t.Errorf("Add: got %v", got)
	}
	if got := Time(150).Sub(t0); got != 50 {
		t.Errorf("Sub: got %v", got)
	}
}

func TestDurationString(t *testing.T) {
	tests := []struct {
		d    Duration
		want string
	}{
		{500, "500ps"},
		{2 * Nanosecond, "2ns"},
		{3 * Microsecond, "3us"},
		{4 * Millisecond, "4ms"},
		{5 * Second, "5s"},
		{-2 * Nanosecond, "-2ns"},
	}
	for _, tt := range tests {
		if got := tt.d.String(); got != tt.want {
			t.Errorf("(%d).String() = %q, want %q", int64(tt.d), got, tt.want)
		}
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42, "spray")
	b := NewRNG(42, "spray")
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same (seed, name) produced different streams")
		}
	}
}

func TestRNGStreamIndependence(t *testing.T) {
	a := NewRNG(42, "spray")
	b := NewRNG(42, "fault")
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with different names collided %d/64 times", same)
	}
}

func TestBernoulliEdges(t *testing.T) {
	r := NewRNG(1, "b")
	for i := 0; i < 50; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	r := NewRNG(7, "rate")
	const n = 200000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.015) {
			hits++
		}
	}
	rate := float64(hits) / n
	if rate < 0.013 || rate > 0.017 {
		t.Fatalf("Bernoulli(0.015) empirical rate = %v", rate)
	}
}

func TestJitterBounds(t *testing.T) {
	r := NewRNG(9, "jitter")
	f := func(lo, span uint32) bool {
		l := Duration(lo)
		h := l + Duration(span) + 1
		j := r.Jitter(l, h)
		return j >= l && j < h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if r.Jitter(5, 5) != 5 {
		t.Fatal("degenerate jitter interval must return lo")
	}
}

func TestUniformDuration(t *testing.T) {
	r := NewRNG(11, "u")
	if r.UniformDuration(0) != 0 || r.UniformDuration(-5) != 0 {
		t.Fatal("non-positive max must return 0")
	}
	for i := 0; i < 1000; i++ {
		d := r.UniformDuration(100)
		if d < 0 || d >= 100 {
			t.Fatalf("UniformDuration out of range: %v", d)
		}
	}
}

func TestExponentialMean(t *testing.T) {
	r := NewRNG(13, "exp")
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(r.Exponential(1000))
	}
	mean := sum / n
	if mean < 950 || mean > 1050 {
		t.Fatalf("Exponential(1000) empirical mean = %v", mean)
	}
	if r.Exponential(0) != 0 {
		t.Fatal("Exponential(0) must be 0")
	}
}
