// Quickstart: build the paper's evaluation cluster, train, break a
// link silently mid-run, and watch FlowPulse catch it within one
// iteration.
package main

import (
	"fmt"

	"flowpulse"
)

func main() {
	// The paper's setup: 32-leaf × 16-spine non-blocking fat tree, one
	// GPU host per leaf, Ring-AllReduce over all 32 hosts, adaptive
	// per-packet spraying, lossless 400 Gb/s Ethernet.
	cluster, err := flowpulse.New(flowpulse.Scenario{
		Leaves:       32,
		Spines:       16,
		BytesPerRank: 16 << 20, // 16 MiB of gradients per rank
		Iterations:   6,
		Seed:         42,
		// After iteration 3 a transceiver starts silently corrupting 1.5%
		// of packets on the link between leaf 11 and spine 5 — no counter
		// anywhere sees it.
		Faults: []flowpulse.FaultSpec{{Kind: flowpulse.FaultBernoulli, Leaf: 11, Spine: 5, Rate: 0.015, Onset: 3}},
	})
	if err != nil {
		panic(err)
	}

	// Deploy FlowPulse on every leaf switch: analytical load model,
	// the paper's 1% detection threshold.
	monitor, err := cluster.Monitor(flowpulse.MonitorConfig{
		Predictor: flowpulse.Analytical,
		Threshold: 0.01,
		OnEvent: func(e flowpulse.Event) {
			fmt.Printf("  ALERT %v\n", e.Alert)
			if e.Alert.Deviation < 0 {
				fmt.Printf("        %v\n", e.Verdict)
			}
		},
	})
	if err != nil {
		panic(err)
	}

	fmt.Println("training...")
	err = cluster.Train(func(now flowpulse.Duration, iter uint32) {
		fmt.Printf("iteration %d done at %v\n", iter, now)
		if iter == 3 {
			fmt.Println("  (silent fault injected: 1.5% drop on leaf 11 / spine 5)")
		}
	})
	if err != nil {
		panic(err)
	}

	fmt.Printf("\n%d measurement windows, %d alert(s), predictor %q\n",
		monitor.Windows(), len(monitor.Events()), monitor.PredictorName())
	ns := cluster.NetworkStats()
	fmt.Printf("packets: %d sent, %d silently dropped by the fault\n", ns.Sent, ns.FaultDropped)
}
