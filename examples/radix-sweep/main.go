// Radix sweep: the Figure-5(b) experiment as a library call. Higher
// switch radixes spread every flow across more spines, shrinking each
// port's share of the collective and making the same 0.8% fault harder
// to see against the measurement noise.
package main

import (
	"fmt"

	"flowpulse/internal/experiments"
)

func main() {
	res, err := experiments.Fig5b(experiments.Fig5bConfig{
		Grid:    experiments.Grid{DropRate: 0.008, BytesPerRank: 8 << 20, Trials: 2, Seed: 21},
		Radixes: []int{8, 16, 32},
	})
	if err != nil {
		panic(err)
	}
	fmt.Print(res.String())
	fmt.Println("\nreading: the per-port volume shrinks as 1/spines, so both the")
	fmt.Println("single-packet noise quantum and the fault's absolute byte deficit")
	fmt.Println("shrink with radix — higher radixes are more challenging (§6).")
}
