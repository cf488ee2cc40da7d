package flowpulse_test

import (
	"fmt"

	"flowpulse"
)

// Example demonstrates the end-to-end flow: build the paper's cluster
// (scaled down), deploy FlowPulse, silently break a link mid-training,
// and read the detections.
func Example() {
	cluster, err := flowpulse.New(flowpulse.Scenario{
		Leaves:       8,
		Spines:       4,
		BytesPerRank: 4 << 20,
		Iterations:   4,
		Seed:         42,
	})
	if err != nil {
		panic(err)
	}
	monitor, err := cluster.Monitor(flowpulse.MonitorConfig{})
	if err != nil {
		panic(err)
	}

	err = cluster.Train(func(_ flowpulse.Duration, iter uint32) {
		if iter == 2 {
			cluster.BreakLink(flowpulse.Link{LeafOrd: 3, SpineOrd: 1}, 0.05)
		}
	})
	if err != nil {
		panic(err)
	}

	deficits := 0
	for _, e := range monitor.Events() {
		if e.Alert.Deviation < 0 && e.Alert.LeafOrdinal == 3 && e.Alert.Uplink == 1 {
			deficits++
		}
	}
	fmt.Printf("windows measured: %d\n", monitor.Windows())
	fmt.Printf("faulty port flagged in %d of 2 fault iterations\n", deficits)
	// Output:
	// windows measured: 32
	// faulty port flagged in 2 of 2 fault iterations
}
