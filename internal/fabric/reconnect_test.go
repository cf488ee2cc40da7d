package fabric

import (
	"reflect"
	"testing"

	"flowpulse/internal/fault"
	"flowpulse/internal/sim"
	"flowpulse/internal/topology"
)

// fibSnapshot deep-copies every dynamic candidate table plus the
// public spray-set view, so a disconnect/reconnect round trip can be
// compared byte-for-byte.
type fibSnapshot struct {
	leafUp, spineDown, spineUp, coreDown [][][]int32
	spraySets                            map[[2]topology.SwitchID][]int
	recomputes                           uint64
}

func snapshotFIB(n *Network) fibSnapshot {
	clone := func(t [][][]int32) [][][]int32 {
		out := make([][][]int32, len(t))
		for i := range t {
			out[i] = make([][]int32, len(t[i]))
			for j := range t[i] {
				out[i][j] = append([]int32(nil), t[i][j]...)
			}
		}
		return out
	}
	s := fibSnapshot{
		leafUp:    clone(n.fib.leafUp),
		spineDown: clone(n.fib.spineDown),
		spineUp:   clone(n.fib.spineUp),
		coreDown:  clone(n.fib.coreDown),
		spraySets: map[[2]topology.SwitchID][]int{},
	}
	for _, src := range n.topo.Leaves() {
		for _, dst := range n.topo.Leaves() {
			if src == dst {
				continue
			}
			s.spraySets[[2]topology.SwitchID{src, dst}] = n.LeafUplinkCandidates(src, dst)
		}
	}
	return s
}

func buildFatTree(t *testing.T, leaves, spines, trunk int) *Network {
	t.Helper()
	topo, err := topology.NewFatTree(topology.FatTreeConfig{
		Leaves: leaves, Spines: spines, HostsPerLeaf: 1, Trunk: trunk,
	})
	if err != nil {
		t.Fatal(err)
	}
	return MustNew(Config{Topo: topo, Engine: sim.NewEngine(), Seed: 9})
}

// TestReconnectRoundTrip proves admin-up is the exact inverse of
// admin-down: after the round trip the FIB candidate tables and
// every leaf's spray sets are byte-identical to the pre-disconnect
// state, and the disconnect really did change them in between.
func TestReconnectRoundTrip(t *testing.T) {
	for _, tc := range []struct{ leaves, spines, trunk int }{
		{8, 4, 1},
		{8, 4, 2}, // trunk groups: partial disconnect leaves siblings up
	} {
		n := buildFatTree(t, tc.leaves, tc.spines, tc.trunk)
		link := n.topo.TrunkLinks(n.topo.Leaves()[3], n.topo.Spines()[1])[0]

		before := snapshotFIB(n)

		n.SetLinkAdmin(link, false)
		if n.LinkAdminUp(link) {
			t.Fatal("link still admin-up after SetLinkAdmin(false)")
		}
		during := snapshotFIB(n)
		if reflect.DeepEqual(before.leafUp, during.leafUp) {
			t.Fatal("disconnect did not change the leaf FIB")
		}

		n.SetLinkAdmin(link, true)
		if !n.LinkAdminUp(link) {
			t.Fatal("link not admin-up after SetLinkAdmin(true)")
		}
		after := snapshotFIB(n)

		if !reflect.DeepEqual(before.leafUp, after.leafUp) ||
			!reflect.DeepEqual(before.spineDown, after.spineDown) ||
			!reflect.DeepEqual(before.spineUp, after.spineUp) ||
			!reflect.DeepEqual(before.coreDown, after.coreDown) {
			t.Fatalf("FIB tables differ after disconnect/reconnect round trip (%dx%d trunk %d)",
				tc.leaves, tc.spines, tc.trunk)
		}
		if !reflect.DeepEqual(before.spraySets, after.spraySets) {
			t.Fatalf("spray sets differ after round trip (%dx%d trunk %d)",
				tc.leaves, tc.spines, tc.trunk)
		}
	}
}

// TestFIBRecomputeCounter checks churn accounting: construction is not
// counted, redundant transitions are not counted, real transitions are.
func TestFIBRecomputeCounter(t *testing.T) {
	n := buildFatTree(t, 4, 2, 1)
	if got := n.FIBRecomputes(); got != 0 {
		t.Fatalf("FIBRecomputes after construction = %d, want 0", got)
	}
	link := n.topo.TrunkLinks(n.topo.Leaves()[0], n.topo.Spines()[0])[0]
	n.SetLinkAdmin(link, false)
	n.SetLinkAdmin(link, false) // idempotent: no extra churn
	n.SetLinkAdmin(link, true)
	n.SetLinkAdmin(link, true)
	if got := n.FIBRecomputes(); got != 2 {
		t.Fatalf("FIBRecomputes = %d, want 2", got)
	}
}

// TestProbeLink checks the OAM probe path: probes traverse admin-down
// links, consult the fault process, and report asynchronously after
// the wire delay.
func TestProbeLink(t *testing.T) {
	n := buildFatTree(t, 4, 2, 1)
	link := n.topo.TrunkLinks(n.topo.Leaves()[1], n.topo.Spines()[1])[0]
	n.SetLinkAdmin(link, false)

	var got []bool
	var at sim.Time
	n.ProbeLink(link, DirAtoB, 256, func(now sim.Time, delivered bool) {
		got = append(got, delivered)
		at = now
	})
	if len(got) != 0 {
		t.Fatal("probe result delivered synchronously")
	}
	n.Engine().Run()
	if len(got) != 1 || !got[0] {
		t.Fatalf("healthy admin-down link: probe results %v, want [true]", got)
	}
	if at == 0 {
		t.Fatal("probe result carries no timestamp")
	}

	// A black-holed direction eats every probe; the reverse direction
	// stays clean.
	n.InjectFault(link, DirAtoB, fault.BlackHole{})
	okA, okB := false, false
	n.ProbeLink(link, DirAtoB, 256, func(_ sim.Time, d bool) { okA = d })
	n.ProbeLink(link, DirBtoA, 256, func(_ sim.Time, d bool) { okB = d })
	n.Engine().Run()
	if okA || !okB {
		t.Fatalf("faulted probe results: AtoB delivered=%v (want false), BtoA delivered=%v (want true)", okA, okB)
	}

	st := n.Stats()
	if st.ProbesSent != 3 || st.ProbesLost != 1 {
		t.Fatalf("probe stats %d sent / %d lost, want 3/1", st.ProbesSent, st.ProbesLost)
	}
}
