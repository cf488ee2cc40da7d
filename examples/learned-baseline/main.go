// Learned baseline: the Figure-3 story. A transient fault is already
// present when training starts, so the learned model's warm-up
// baseline absorbs the skewed load. When the fault heals, the observed
// distribution re-balances; FlowPulse notices the healthier state and
// replaces its baseline instead of alerting forever.
package main

import (
	"fmt"
	"sort"

	"flowpulse"
)

func main() {
	cluster, err := flowpulse.New(flowpulse.Scenario{
		Leaves:       16,
		Spines:       8,
		BytesPerRank: 16 << 20,
		Iterations:   14,
		Seed:         3,
	})
	if err != nil {
		panic(err)
	}
	monitor, err := cluster.Monitor(flowpulse.MonitorConfig{
		Predictor: flowpulse.Learned,
	})
	if err != nil {
		panic(err)
	}

	// A flapping transceiver drops 20% on leaf 4 / spine 3 from the
	// very first iteration — the warm-up measurements see a broken
	// network and learn it as "normal".
	transient := flowpulse.Link{LeafOrd: 4, SpineOrd: 3}
	cluster.BreakLink(transient, 0.2)

	err = cluster.Train(func(_ flowpulse.Duration, iter uint32) {
		if iter == 6 {
			cluster.HealLink(transient)
			fmt.Println("iteration 6: transient fault healed")
		}
	})
	if err != nil {
		panic(err)
	}

	fmt.Printf("\nre-baselines performed: %d\n", monitor.Rebaselines())
	fmt.Println("alerts (the healed network briefly looks anomalous, then the model adapts):")
	byIter := map[uint32]int{}
	for _, e := range monitor.Events() {
		byIter[e.Alert.Iter]++
	}
	iters := make([]int, 0, len(byIter))
	for it := range byIter {
		iters = append(iters, int(it))
	}
	sort.Ints(iters)
	for _, it := range iters {
		fmt.Printf("  iteration %2d: %d alert(s)\n", it, byIter[uint32(it)])
	}
	if pred := monitor.PortPrediction(4); pred != nil {
		fmt.Printf("\nfinal learned baseline for leaf 4 (port 3 was the faulty one):\n")
		for u, v := range pred {
			fmt.Printf("  uplink %d: %.0f bytes/iteration\n", u, v)
		}
	}
}
