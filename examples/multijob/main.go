// Multi-job cluster (§7 "Parallel Jobs"): two independent training
// jobs share the fabric on disjoint leaf halves, with low-priority
// background flows on top. One Monitor call deploys one telemetry tap
// per switch and one analysis pipeline per job; a fault on a link only
// job 1 uses alerts in job 1's pipeline and leaves job 2's silent.
package main

import (
	"fmt"

	"flowpulse"
)

func main() {
	// 16 leaves: leaves 0-7 run job 1, leaves 8-15 run job 2 — a
	// separate ring with a different size and cadence.
	cluster, err := flowpulse.New(flowpulse.Scenario{
		Leaves:       16,
		Spines:       8,
		BytesPerRank: 8 << 20,
		Iterations:   6,
		Background:   4 * flowpulse.Microsecond, // plus unrelated datacenter chatter
		Seed:         11,
		Jobs: []flowpulse.JobSpec{
			{Job: 1, LeafFirst: 0, LeafCount: 8},
			{Job: 2, LeafFirst: 8, LeafCount: 8, BytesPerRank: 12 << 20, Iterations: 5},
		},
	})
	if err != nil {
		panic(err)
	}
	mon, err := cluster.Monitor(flowpulse.MonitorConfig{})
	if err != nil {
		panic(err)
	}

	// Break a link used by job 1 (leaf 3 hosts job-1 rank 3) after two
	// clean iterations.
	faulty := flowpulse.Link{LeafOrd: 3, SpineOrd: 2}
	err = cluster.TrainAll(func(_ flowpulse.Duration, job uint16, iter uint32) {
		fmt.Printf("job %d iteration %d complete\n", job, iter)
		if job == 1 && iter == 2 {
			cluster.BreakLink(faulty, 0.03)
			fmt.Println("  (3% silent fault injected on leaf 3 / spine 2)")
		}
	})
	if err != nil {
		panic(err)
	}

	fmt.Println()
	for _, j := range mon.Jobs() {
		fmt.Printf("job %d: %d windows measured, %d alerts\n", j.ID(), j.Windows(), len(j.Events()))
		for _, e := range j.Events() {
			fmt.Printf("  ALERT %v\n", e.Alert)
		}
	}
	if len(mon.Job(1).Events()) == 0 {
		fmt.Println("no alerts on job 1 — unexpected; the fault should have been caught")
	}
}
