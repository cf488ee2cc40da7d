package main

import "testing"

func TestDiffGatesOnAllocs(t *testing.T) {
	f := func(v float64) *float64 { return &v }
	for _, tc := range []struct {
		name     string
		old, cur float64
		want     int
	}{
		{"hot path gains an allocation", 0, 1, 1},
		{"64 to 65", 64, 65, 1},
		{"171 to 172", 171, 172, 1},
		{"unchanged", 38, 38, 0},
		{"fewer", 41193, 30245, 0},
		{"seed-mean wobble of a simulating row", 127374, 129663, 0},
		{"an allocation per packet on a simulating row", 41193, 1110206, 1},
		{"a rise past the slack on a simulating row", 27500, 28900, 1},
	} {
		old := snapshot{Benchmarks: []row{{Name: "BenchmarkX", Ns: f(100), Allocs: &tc.old}, {Name: "BenchmarkGone", Ns: f(1)}}}
		cur := snapshot{Benchmarks: []row{{Name: "BenchmarkX", Ns: f(90), Allocs: &tc.cur}, {Name: "BenchmarkAdded", Ns: f(1), Allocs: f(1e6)}}}
		if got := diff(old, cur); got != tc.want {
			t.Errorf("%s (%v -> %v allocs/op): exit status %d, want %d", tc.name, tc.old, tc.cur, got, tc.want)
		}
	}
}
