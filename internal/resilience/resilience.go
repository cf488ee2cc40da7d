// Package resilience extends closed-loop remediation upward into the
// workload: where internal/remediate repairs the *fabric* (quarantine,
// probing, damping), this package repairs the *collective*. When a
// quarantine leaves a leaf with too little uplink capacity for the
// current ring schedule, the re-planner derives a new rank order —
// re-ranking the degraded leaf's ranks into one contiguous block so
// only two ring edges cross its uplinks, or, when the leaf has no
// uplinks left at all, a degraded-mode ring that excludes its hosts
// and proxies their chunks through the surviving ring — and the core
// system swaps the workload onto it at the next iteration barrier.
//
// The capacity test is deliberately physical. In a leaf–spine fabric a
// leaf whose ranks are already contiguous carries only two crossing
// ring edges (≈2D each way) over its uplinks while every host NIC
// carries ≈2D, so losing uplinks does not move the bottleneck until
// the very last one: contiguous leaves need no workload repair and get
// none. An interleaved (placement-oblivious) ring pushes every edge
// through the spines — H ranks mean ≈2·H·D crossing bytes — and there
// a lost uplink does gate the whole pipelined ring. That is the case
// the re-rank fixes, and the reason the planner keys on the surviving
// capacity fraction rather than on the quarantine count.
package resilience

import (
	"fmt"

	"flowpulse/internal/sim"
	"flowpulse/internal/topology"
)

// Config tunes the re-planner.
type Config struct {
	// RecoverTarget is the goodput fraction remediation alone must
	// preserve for the planner to stay idle: a quarantine that leaves
	// the victim leaf's schedule able to run at ≥ RecoverTarget of the
	// pre-fault rate needs no workload repair. Default 0.9 (the same
	// fraction the recovery metric scores against).
	RecoverTarget float64
}

// minRanks is the smallest ring degraded mode may leave.
const minRanks = 2

func (c *Config) setDefaults() {
	if c.RecoverTarget == 0 {
		c.RecoverTarget = 0.9
	}
}

// PlanKind classifies a re-plan.
type PlanKind uint8

const (
	// PlanRerank keeps every rank but reorders the ring so the
	// degraded leaf's ranks form one contiguous block (two crossing
	// edges instead of up to 2·H).
	PlanRerank PlanKind = iota
	// PlanDegrade drops the degraded leaf's hosts from the ring; their
	// chunks are re-split across the survivors, proxied by each
	// excluded rank's surviving ring successor.
	PlanDegrade
	// PlanRestore returns to the original schedule after re-admission.
	PlanRestore
)

// String names the plan kind.
func (k PlanKind) String() string {
	switch k {
	case PlanRerank:
		return "rerank"
	case PlanDegrade:
		return "degrade"
	case PlanRestore:
		return "restore"
	}
	return "unknown"
}

// Plan is one workload re-plan decision.
type Plan struct {
	// At is the decision time.
	At sim.Time
	// Kind is the remedy chosen.
	Kind PlanKind
	// Leaf is the leaf whose capacity change triggered the plan.
	Leaf topology.SwitchID
	// Group is the new ring order to run from the next iteration on.
	Group []topology.HostID
	// Excluded lists hosts dropped in degraded mode (nil otherwise).
	Excluded []topology.HostID
	// Proxies maps each excluded host to the surviving ring member
	// that carries its chunks (nil outside degraded mode).
	Proxies map[topology.HostID]topology.HostID
	// Detail is the operator-log line.
	Detail string
}

// leafState tracks one leaf's uplink capacity and active repair.
type leafState struct {
	uplinks int
	down    int
	repair  PlanKind
	active  bool
}

// Replanner derives workload re-plans from quarantine/re-admission
// events. It is deterministic: plans are a pure function of the event
// sequence, so a re-planned run still fingerprints identically across
// engine shard counts and against its recorded trace.
type Replanner struct {
	cfg      Config
	topo     *topology.Topology
	original []topology.HostID
	current  []topology.HostID

	linkLeaf map[topology.LinkID]topology.SwitchID
	leaves   map[topology.SwitchID]*leafState
	order    []topology.SwitchID // repair activation order, for determinism

	// Replans and Restores count emitted plans.
	Replans, Restores int
}

// New builds a re-planner for one job's ring group. Only leaf uplink
// links participate; quarantines elsewhere are ignored.
func New(topo *topology.Topology, group []topology.HostID, cfg Config) *Replanner {
	cfg.setDefaults()
	rp := &Replanner{
		cfg:      cfg,
		topo:     topo,
		original: append([]topology.HostID(nil), group...),
		current:  append([]topology.HostID(nil), group...),
		linkLeaf: map[topology.LinkID]topology.SwitchID{},
		leaves:   map[topology.SwitchID]*leafState{},
	}
	for _, leaf := range topo.Leaves() {
		sw := topo.Switch(leaf)
		hosts := len(topo.HostsOf(leaf))
		st := &leafState{uplinks: len(sw.Ports) - hosts}
		rp.leaves[leaf] = st
		for p := hosts; p < len(sw.Ports); p++ {
			rp.linkLeaf[sw.Ports[p].Link] = leaf
		}
	}
	return rp
}

// fraction is the leaf's surviving uplink capacity share.
func (st *leafState) fraction() float64 {
	if st.uplinks == 0 {
		return 0
	}
	return float64(st.uplinks-st.down) / float64(st.uplinks)
}

// NoteQuarantine folds one quarantined link into the capacity model
// and returns a re-plan when the workload needs repair (nil when
// remediation alone preserves the target goodput).
func (rp *Replanner) NoteQuarantine(now sim.Time, link topology.LinkID) *Plan {
	leaf, ok := rp.linkLeaf[link]
	if !ok {
		return nil
	}
	st := rp.leaves[leaf]
	st.down++
	if st.fraction() >= rp.cfg.RecoverTarget {
		return nil
	}
	want := PlanRerank
	if st.down >= st.uplinks {
		want = PlanDegrade
	}
	if st.active && st.repair == want {
		return nil // already repaired this way
	}
	st.repair, st.active = want, true
	rp.noteOrder(leaf)
	return rp.emit(now, leaf, want)
}

// NoteReadmit folds one re-admitted link back in and returns a restore
// plan when the leaf no longer needs its repair.
func (rp *Replanner) NoteReadmit(now sim.Time, link topology.LinkID) *Plan {
	leaf, ok := rp.linkLeaf[link]
	if !ok {
		return nil
	}
	st := rp.leaves[leaf]
	if st.down > 0 {
		st.down--
	}
	if !st.active {
		return nil
	}
	if st.fraction() < rp.cfg.RecoverTarget {
		// Still short on capacity; a degrade may relax to a rerank.
		want := PlanRerank
		if st.down >= st.uplinks {
			want = PlanDegrade
		}
		if want == st.repair {
			return nil
		}
		st.repair = want
		return rp.emit(now, leaf, want)
	}
	st.active = false
	rp.dropOrder(leaf)
	return rp.emit(now, leaf, PlanRestore)
}

func (rp *Replanner) noteOrder(leaf topology.SwitchID) {
	for _, l := range rp.order {
		if l == leaf {
			return
		}
	}
	rp.order = append(rp.order, leaf)
}

func (rp *Replanner) dropOrder(leaf topology.SwitchID) {
	for i, l := range rp.order {
		if l == leaf {
			rp.order = append(rp.order[:i], rp.order[i+1:]...)
			return
		}
	}
}

// emit rebuilds the group from the original order and every active
// repair (in activation order), and wraps the difference in a Plan.
func (rp *Replanner) emit(now sim.Time, leaf topology.SwitchID, kind PlanKind) *Plan {
	group := append([]topology.HostID(nil), rp.original...)
	var excluded []topology.HostID
	proxies := map[topology.HostID]topology.HostID{}
	for _, l := range rp.order {
		st := rp.leaves[l]
		if !st.active {
			continue
		}
		switch st.repair {
		case PlanDegrade:
			group, excluded, proxies = rp.exclude(group, l, excluded, proxies)
		case PlanRerank:
			group = rp.contiguize(group, l)
		}
	}
	if len(group) < minRanks || sameGroup(group, rp.current) {
		return nil // unrepairable or no-op: keep the current plan
	}
	rp.current = group
	p := &Plan{At: now, Kind: kind, Leaf: leaf, Group: group}
	lo := rp.topo.LeafOrdinal(leaf)
	switch kind {
	case PlanRestore:
		rp.Restores++
		p.Detail = fmt.Sprintf("leaf %d back to %.0f%% capacity: original %d-rank schedule restored",
			lo, 100*rp.leaves[leaf].fraction(), len(group))
	case PlanDegrade:
		rp.Replans++
		p.Excluded, p.Proxies = excluded, proxies
		p.Detail = fmt.Sprintf("leaf %d unreachable: degraded ring %d->%d ranks, chunks proxied by ring successors",
			lo, len(rp.original), len(group))
	default:
		rp.Replans++
		p.Detail = fmt.Sprintf("leaf %d at %.0f%% capacity: ranks re-ranked contiguous (2 crossing edges)",
			lo, 100*rp.leaves[leaf].fraction())
	}
	return p
}

// exclude drops leaf's hosts from the group, recording each excluded
// host's surviving cyclic successor as its chunk proxy.
func (rp *Replanner) exclude(group []topology.HostID, leaf topology.SwitchID,
	excluded []topology.HostID, proxies map[topology.HostID]topology.HostID) ([]topology.HostID, []topology.HostID, map[topology.HostID]topology.HostID) {
	n := len(group)
	kept := make([]topology.HostID, 0, n)
	for i, h := range group {
		if rp.topo.LeafOf(h) != leaf {
			kept = append(kept, h)
			continue
		}
		excluded = append(excluded, h)
		for step := 1; step < n; step++ {
			succ := group[(i+step)%n]
			if rp.topo.LeafOf(succ) != leaf {
				proxies[h] = succ
				break
			}
		}
	}
	return kept, excluded, proxies
}

// contiguize reorders the group so leaf's ranks form one block at the
// position of their first occurrence, preserving everyone's relative
// order — the minimal permutation that leaves the degraded leaf with
// two crossing ring edges.
func (rp *Replanner) contiguize(group []topology.HostID, leaf topology.SwitchID) []topology.HostID {
	mine := make([]topology.HostID, 0, len(group))
	rest := make([]topology.HostID, 0, len(group))
	first := -1
	for _, h := range group {
		if rp.topo.LeafOf(h) == leaf {
			if first < 0 {
				first = len(rest)
			}
			mine = append(mine, h)
		} else {
			rest = append(rest, h)
		}
	}
	if len(mine) <= 1 || first < 0 {
		return group
	}
	out := make([]topology.HostID, 0, len(group))
	out = append(out, rest[:first]...)
	out = append(out, mine...)
	out = append(out, rest[first:]...)
	return out
}

func sameGroup(a, b []topology.HostID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
