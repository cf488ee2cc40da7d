package topology

import (
	"fmt"

	"flowpulse/internal/sim"
)

// Partition maps a topology onto the simulation domains of a
// sim.Group. There are two, OneDomain and NewPartition's, and the rule
// of the second is fixed, not heuristic: every switch roots its own
// domain, every host joins its leaf's domain, and domain 0 is reserved
// for the control plane (workload orchestration, monitoring pipelines,
// remediation). Because the partition depends only on the topology —
// never on the worker count — the logical event schedule, and therefore
// every simulation observable, is identical however many OS threads
// execute it.
//
// Host–leaf links are internal to a domain, so the synchronization
// lookahead is bounded only by switch–switch propagation delays: the
// minimum such delay is the earliest a packet leaving one domain can
// possibly affect another.
type Partition struct {
	// DomainOfSwitch maps SwitchID -> domain (0 is control).
	DomainOfSwitch []int
	// DomainOfHost maps HostID -> its leaf's domain.
	DomainOfHost []int
	// NumDomains counts domains including the control domain.
	NumDomains int
	// Lookahead is the minimum cross-domain link latency: the safe
	// conservative synchronization window width.
	Lookahead sim.Duration
}

// OneDomain is the partition that leaves a topology whole: every
// switch and host in the control domain, nothing to synchronize (no
// Lookahead). The single-threaded run is this partition.
func OneDomain(t *Topology) *Partition {
	return &Partition{
		DomainOfSwitch: make([]int, len(t.Switches)),
		DomainOfHost:   make([]int, len(t.Hosts)),
		NumDomains:     1,
	}
}

// NewPartition computes the per-switch domain decomposition of a
// topology. It panics if any switch–switch link has zero propagation
// delay: such a link would make the conservative lookahead zero and
// parallel execution impossible.
func NewPartition(t *Topology) *Partition {
	p := &Partition{
		DomainOfSwitch: make([]int, len(t.Switches)),
		DomainOfHost:   make([]int, len(t.Hosts)),
		NumDomains:     len(t.Switches) + 1,
	}
	for i := range t.Switches {
		p.DomainOfSwitch[i] = i + 1
	}
	for h := range t.Hosts {
		p.DomainOfHost[h] = p.DomainOfSwitch[t.Hosts[h].Leaf]
	}

	min := sim.Duration(-1)
	for i := range t.Links {
		l := &t.Links[i]
		if l.A.Kind != SwitchEnd || l.B.Kind != SwitchEnd {
			continue // host–leaf: intra-domain, does not bound the window
		}
		if l.Propagation <= 0 {
			panic(fmt.Sprintf("topology: switch-switch link %d has zero propagation; cannot partition", l.ID))
		}
		if min < 0 || l.Propagation < min {
			min = l.Propagation
		}
	}
	if min < 0 {
		// No switch-switch links (single-switch fabric): no
		// worker-to-worker traffic exists, so any positive window
		// works; fall back to the smallest link latency or 1 µs.
		min = sim.Microsecond
		for i := range t.Links {
			if t.Links[i].Propagation > 0 && t.Links[i].Propagation < min {
				min = t.Links[i].Propagation
			}
		}
	}
	p.Lookahead = min
	return p
}
