package fabric

import (
	"testing"

	"flowpulse/internal/sim"
	"flowpulse/internal/topology"
)

// Table-driven edge-case fabrics: odd radixes, single-host leaves,
// trunked links, and small Clos configurations. Each case pushes a
// ring of traffic across every host pair boundary and checks full
// delivery plus per-link byte conservation — the same invariant the
// simulation fuzzer's oracle audits.
func TestEdgeCaseFabricsDeliverAndConserve(t *testing.T) {
	build := func(name string) (*topology.Topology, error) {
		switch name {
		case "fat tree odd spines":
			return topology.NewFatTree(topology.FatTreeConfig{Leaves: 5, Spines: 3})
		case "fat tree single spine":
			return topology.NewFatTree(topology.FatTreeConfig{Leaves: 4, Spines: 1})
		case "fat tree trunked":
			return topology.NewFatTree(topology.FatTreeConfig{Leaves: 4, Spines: 2, Trunk: 2})
		case "fat tree odd trunk multi-host":
			return topology.NewFatTree(topology.FatTreeConfig{Leaves: 3, Spines: 2, HostsPerLeaf: 2, Trunk: 3})
		case "clos3 single-leaf pods":
			return topology.NewClos3(topology.Clos3Config{Pods: 3, LeavesPerPod: 1, SpinesPerPod: 2, CoresPerGroup: 2})
		case "clos3 trunked spine links":
			return topology.NewClos3(topology.Clos3Config{Pods: 2, LeavesPerPod: 2, SpinesPerPod: 2, CoresPerGroup: 2, Trunk: 2})
		case "clos3 odd cores":
			return topology.NewClos3(topology.Clos3Config{Pods: 2, LeavesPerPod: 2, SpinesPerPod: 2, CoresPerGroup: 3})
		}
		panic("unknown case " + name)
	}
	cases := []string{
		"fat tree odd spines", "fat tree single spine", "fat tree trunked",
		"fat tree odd trunk multi-host", "clos3 single-leaf pods",
		"clos3 trunked spine links", "clos3 odd cores",
	}
	const perPair = 64
	for _, name := range cases {
		t.Run(name, func(t *testing.T) {
			topo, err := build(name)
			if err != nil {
				t.Fatal(err)
			}
			eng := sim.NewEngine()
			n := MustNew(Config{Topo: topo, Engine: eng, Seed: 7})
			hosts := len(topo.Hosts)
			got := make([]int, hosts)
			for h := 0; h < hosts; h++ {
				h := h
				n.SetReceiver(topology.HostID(h), func(sim.Time, *Packet) { got[h]++ })
			}
			// Ring traffic: host i -> host i+1 crosses every leaf (and,
			// in the Clos cases, pod) boundary.
			for h := 0; h < hosts; h++ {
				for i := 0; i < perPair; i++ {
					n.Send(SendSpec{
						Src: topology.HostID(h), Dst: topology.HostID((h + 1) % hosts),
						Size: 4096, Msg: uint64(i),
					})
				}
			}
			eng.Run()
			for h, c := range got {
				if c != perPair {
					t.Errorf("host %d received %d, want %d", h, c, perPair)
				}
			}
			st := n.Stats()
			if st.Sent != uint64(hosts*perPair) || st.Delivered != st.Sent {
				t.Errorf("stats: %+v", st)
			}
			if bad := n.AuditConservation(); len(bad) != 0 {
				t.Errorf("conservation audit: %v", bad)
			}
		})
	}
}

// Trunked leaf-spine links are a load-balancing surface of their own:
// the sprayer must use every member of every trunk group, not just
// member 0.
func TestTrunkMembersAllCarryTraffic(t *testing.T) {
	topo, err := topology.NewFatTree(topology.FatTreeConfig{Leaves: 2, Spines: 2, Trunk: 3})
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	n := MustNew(Config{Topo: topo, Engine: eng, Seed: 9})
	dstLeaf := topo.LeafOf(1)
	hostPorts := len(topo.HostsOf(dstLeaf))
	byTrunk := map[[2]int]int{} // (spine ordinal, trunk index) -> packets
	n.AddIngressHook(dstLeaf, func(_ sim.Time, port int, p *Packet) {
		if port >= hostPorts {
			so, k := topo.SpineOrdinalOfLeafPort(dstLeaf, port)
			byTrunk[[2]int{so, k}]++
		}
	})
	n.SetReceiver(1, func(sim.Time, *Packet) {})
	const total = 1200
	for i := 0; i < total; i++ {
		n.Send(SendSpec{Src: 0, Dst: 1, Size: 4096, Msg: uint64(i)})
	}
	eng.Run()
	sum := 0
	for so := 0; so < 2; so++ {
		for k := 0; k < 3; k++ {
			c := byTrunk[[2]int{so, k}]
			sum += c
			// Least-loaded spraying over 6 equivalent paths balances to
			// within a few percent of total/6.
			if want := total / 6; c < want*90/100 || c > want*110/100 {
				t.Errorf("spine %d trunk %d carried %d, want ~%d", so, k, c, want)
			}
		}
	}
	if sum != total {
		t.Fatalf("trunk arrivals sum %d, want %d", sum, total)
	}
}
