// Localization: reproduce the Figure-4 inference interactively. An
// expert-parallel all-to-all workload puts traffic from many senders
// on every monitored port, so a receiving leaf can tell a fault on its
// own spine link (every sender depressed) from a fault on a remote
// sender's link (one sender depressed).
package main

import (
	"fmt"

	"flowpulse"
)

func run(title string, breakIt func(c *flowpulse.Cluster, l flowpulse.Link)) {
	fmt.Printf("=== %s ===\n", title)
	cluster, err := flowpulse.New(flowpulse.Scenario{
		Leaves:       16,
		Spines:       8,
		Collective:   flowpulse.AllToAll,
		BytesPerRank: 32 << 20,
		Iterations:   4,
		Seed:         7,
	})
	if err != nil {
		panic(err)
	}
	monitor, err := cluster.Monitor(flowpulse.MonitorConfig{})
	if err != nil {
		panic(err)
	}

	faulty := flowpulse.Link{LeafOrd: 5, SpineOrd: 2}
	breakIt(cluster, faulty)
	if err := cluster.Train(nil); err != nil {
		panic(err)
	}

	for _, e := range monitor.Events() {
		if e.Alert.Deviation >= 0 {
			continue // surpluses are retransmit spillover
		}
		fmt.Printf("alert:   %v\n", e.Alert)
		fmt.Printf("verdict: %v\n", e.Verdict)
	}
	fmt.Println()
}

func main() {
	// Case 1: the fault is on the DOWNSTREAM spine→leaf link of the
	// detecting leaf. Every sender's traffic through that port suffers
	// equally, so the verdict is local-link.
	run("downstream fault on leaf 5 / spine 2 (expect local-link)",
		func(c *flowpulse.Cluster, l flowpulse.Link) { c.BreakLink(l, 0.08) })

	// Case 2: the fault is UPSTREAM, on leaf 5's own uplink to spine 2.
	// Other leaves now see a deficit on their spine-2 ports, but only
	// in the bytes sent by leaf 5 — the verdict is remote-link, blaming
	// exactly the leaf5↔spine2 cable.
	run("upstream fault on leaf 5 / spine 2 (expect remote-link at other leaves)",
		func(c *flowpulse.Cluster, l flowpulse.Link) { c.BreakLinkUpstream(l, 0.15) })
}
