package resilience

import (
	"testing"

	"flowpulse/internal/collective"
	"flowpulse/internal/sim"
	"flowpulse/internal/topology"
)

// build returns a 4-leaf × 4-spine fat tree with 4 hosts per leaf and
// a fully interleaved (column-major) ring: every ring edge crosses
// leaves, the placement-oblivious worst case.
func build(t testing.TB) (*topology.Topology, []topology.HostID) {
	t.Helper()
	topo, err := topology.NewFatTree(topology.FatTreeConfig{Leaves: 4, Spines: 4, HostsPerLeaf: 4})
	if err != nil {
		t.Fatal(err)
	}
	var group []topology.HostID
	for ix := 0; ix < 4; ix++ {
		for leaf := 0; leaf < 4; leaf++ {
			group = append(group, topology.HostID(leaf*4+ix))
		}
	}
	return topo, group
}

// uplink returns the LinkID of the given leaf ordinal's n-th uplink.
func uplink(topo *topology.Topology, leafOrd, n int) topology.LinkID {
	leaf := topo.Leaves()[leafOrd]
	return topo.Switch(leaf).Ports[len(topo.HostsOf(leaf))+n].Link
}

func TestRerankMakesLeafContiguous(t *testing.T) {
	topo, group := build(t)
	rp := New(topo, group, Config{})
	victim := 1

	p := rp.NoteQuarantine(1000, uplink(topo, victim, 0))
	if p == nil {
		t.Fatal("losing 1 of 4 uplinks is 75% capacity < 90% target: must re-plan")
	}
	if p.Kind != PlanRerank || len(p.Group) != len(group) {
		t.Fatalf("want a full-membership rerank, got %+v", p)
	}
	// The victim's ranks must now be one contiguous block.
	leaf := topo.Leaves()[victim]
	first, last := -1, -1
	for i, h := range p.Group {
		if topo.LeafOf(h) == leaf {
			if first < 0 {
				first = i
			}
			last = i
		}
	}
	if last-first != 3 {
		t.Fatalf("victim ranks not contiguous in %v", p.Group)
	}
	if rp.Replans != 1 {
		t.Fatalf("Replans = %d", rp.Replans)
	}

	// A second uplink loss on the same leaf changes capacity but not
	// the remedy: no duplicate plan.
	if p2 := rp.NoteQuarantine(2000, uplink(topo, victim, 1)); p2 != nil {
		t.Fatalf("same remedy already in place, got %+v", p2)
	}
}

func TestCapacityAboveTargetNeedsNoPlan(t *testing.T) {
	topo, group := build(t)
	// With a 16-spine-like tolerance (target below the 3/4 surviving
	// fraction), remediation alone recovers: the planner stays idle.
	rp := New(topo, group, Config{RecoverTarget: 0.7})
	if p := rp.NoteQuarantine(1000, uplink(topo, 1, 0)); p != nil {
		t.Fatalf("surviving fraction 0.75 >= target 0.7, got %+v", p)
	}
	if rp.Replans != 0 {
		t.Fatalf("Replans = %d", rp.Replans)
	}
}

func TestContiguousLeafNeedsNoRerank(t *testing.T) {
	topo, _ := build(t)
	// Leaf-major group: every leaf's ranks are already contiguous, so
	// its uplinks carry only two crossing edges and are never the
	// bottleneck — a rerank would be a no-op and must not be emitted.
	var group []topology.HostID
	for h := 0; h < 16; h++ {
		group = append(group, topology.HostID(h))
	}
	rp := New(topo, group, Config{})
	if p := rp.NoteQuarantine(1000, uplink(topo, 1, 0)); p != nil {
		t.Fatalf("contiguous leaf: got %+v", p)
	}
}

func TestDegradeExcludesLeafWithProxies(t *testing.T) {
	topo, group := build(t)
	rp := New(topo, group, Config{})
	victim := 2
	leaf := topo.Leaves()[victim]

	var last *Plan
	for n := 0; n < 4; n++ {
		if p := rp.NoteQuarantine(sim.Time(1000+n), uplink(topo, victim, n)); p != nil {
			last = p
		}
	}
	if last == nil || last.Kind != PlanDegrade {
		t.Fatalf("all uplinks quarantined: want degrade, got %+v", last)
	}
	if len(last.Group) != 12 || len(last.Excluded) != 4 {
		t.Fatalf("degraded ring: %d ranks, %d excluded", len(last.Group), len(last.Excluded))
	}
	for _, h := range last.Group {
		if topo.LeafOf(h) == leaf {
			t.Fatalf("excluded leaf's host %d still in ring", h)
		}
	}
	for _, e := range last.Excluded {
		proxy, ok := last.Proxies[e]
		if !ok {
			t.Fatalf("excluded host %d has no proxy", e)
		}
		if topo.LeafOf(proxy) == leaf {
			t.Fatalf("host %d proxied by excluded-leaf host %d", e, proxy)
		}
	}
	// The degraded ring must still feed a valid collective.
	ring := &collective.RingAllReduce{Group: group, BytesPerRank: 1 << 20}
	if d := ring.Replan(last.Group).Demand(); len(d.Hosts) != 12 || d.Bytes[0][1] == 0 {
		t.Fatalf("replanned demand: %d ranks, %d bytes from rank 0 to its successor", len(d.Hosts), d.Bytes[0][1])
	}
}

func TestRestoreOnReadmit(t *testing.T) {
	topo, group := build(t)
	rp := New(topo, group, Config{})
	victim := 1
	if p := rp.NoteQuarantine(1000, uplink(topo, victim, 0)); p == nil {
		t.Fatal("expected rerank")
	}
	p := rp.NoteReadmit(2000, uplink(topo, victim, 0))
	if p == nil || p.Kind != PlanRestore {
		t.Fatalf("re-admission back to full capacity: want restore, got %+v", p)
	}
	if !sameGroup(p.Group, group) {
		t.Fatalf("restore must return the original order")
	}
	if rp.Restores != 1 {
		t.Fatalf("Restores = %d", rp.Restores)
	}
}

func TestNonUplinkQuarantineIgnored(t *testing.T) {
	topo, group := build(t)
	rp := New(topo, group, Config{})
	hostLink := topo.Host(0).Link
	if p := rp.NoteQuarantine(1000, hostLink); p != nil {
		t.Fatalf("host link is not a leaf uplink: got %+v", p)
	}
}

func TestMinRanksBlocksDegrade(t *testing.T) {
	topo, err := topology.NewFatTree(topology.FatTreeConfig{Leaves: 2, Spines: 2, HostsPerLeaf: 1})
	if err != nil {
		t.Fatal(err)
	}
	group := []topology.HostID{0, 1}
	rp := New(topo, group, Config{})
	// Excluding either leaf would leave a 1-rank "ring": refuse.
	if p := rp.NoteQuarantine(1000, uplink(topo, 0, 0)); p != nil {
		t.Fatalf("2-rank ring cannot degrade, got %+v", p)
	}
	if p := rp.NoteQuarantine(2000, uplink(topo, 0, 1)); p != nil {
		t.Fatalf("2-rank ring cannot degrade, got %+v", p)
	}
}
