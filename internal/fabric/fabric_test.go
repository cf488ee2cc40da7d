package fabric

import (
	"testing"
	"testing/quick"

	"flowpulse/internal/fault"
	"flowpulse/internal/sim"
	"flowpulse/internal/spray"
	"flowpulse/internal/topology"
)

func newTestNet(t *testing.T, cfg topology.FatTreeConfig, seed uint64) (*Network, *sim.Engine) {
	t.Helper()
	topo, err := topology.NewFatTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	n, err := New(Config{Topo: topo, Engine: eng, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return n, eng
}

func TestSinglePacketDelivery(t *testing.T) {
	n, eng := newTestNet(t, topology.FatTreeConfig{Leaves: 4, Spines: 2}, 1)
	var got *Packet
	var at sim.Time
	n.SetReceiver(3, func(now sim.Time, p *Packet) {
		cp := *p
		got, at = &cp, now
	})
	n.Send(SendSpec{Src: 0, Dst: 3, Size: 4096, Priority: High, Kind: Data, Msg: 7, Seq: 9})
	eng.Run()
	if got == nil {
		t.Fatal("packet not delivered")
	}
	if got.Src != 0 || got.Dst != 3 || got.Msg != 7 || got.Seq != 9 {
		t.Fatalf("delivered packet fields wrong: %v", got)
	}
	// 4 serializations of 4096B at 400G (81.92ns each) + 4 propagation
	// delays of 200ns = 1127.68ns.
	want := sim.Time(4*81920 + 4*200*1000)
	if at != want {
		t.Fatalf("delivery at %v, want %v", at, want)
	}
	st := n.Stats()
	if st.Sent != 1 || st.Delivered != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestLocalDeliveryStaysUnderLeaf(t *testing.T) {
	n, eng := newTestNet(t, topology.FatTreeConfig{Leaves: 2, Spines: 2, HostsPerLeaf: 2}, 2)
	// Hosts 0 and 1 share leaf 0.
	delivered := false
	n.SetReceiver(1, func(sim.Time, *Packet) { delivered = true })
	// Watch every spine: no packet may appear there.
	for _, spine := range n.Topology().Spines() {
		spine := spine
		n.AddIngressHook(spine, func(_ sim.Time, port int, p *Packet) {
			t.Errorf("local packet reached spine %d port %d: %v", spine, port, p)
		})
	}
	n.Send(SendSpec{Src: 0, Dst: 1, Size: 4096})
	eng.Run()
	if !delivered {
		t.Fatal("local packet not delivered")
	}
}

func sendMany(n *Network, src, dst topology.HostID, count, size int) {
	for i := 0; i < count; i++ {
		n.Send(SendSpec{Src: src, Dst: dst, Size: size, Msg: uint64(i)})
	}
}

// spineArrivals counts, at the destination leaf, packets per uplink
// ingress port (one port per spine when Trunk == 1).
func spineArrivals(n *Network, dstLeaf topology.SwitchID) []int {
	topo := n.Topology()
	hostPorts := len(topo.HostsOf(dstLeaf))
	counts := make([]int, len(topo.Spines()))
	n.AddIngressHook(dstLeaf, func(_ sim.Time, port int, p *Packet) {
		if port >= hostPorts {
			so, _ := topo.SpineOrdinalOfLeafPort(dstLeaf, port)
			counts[so]++
		}
	})
	return counts
}

func TestSprayingSpreadsAcrossAllSpines(t *testing.T) {
	n, eng := newTestNet(t, topology.FatTreeConfig{Leaves: 4, Spines: 8}, 3)
	dstLeaf := n.Topology().LeafOf(3)
	counts := spineArrivals(n, dstLeaf)
	const total = 4000
	sendMany(n, 0, 3, total, 4096)
	eng.Run()
	sum := 0
	for so, c := range counts {
		if c == 0 {
			t.Errorf("spine %d received nothing", so)
		}
		sum += c
	}
	if sum != total {
		t.Fatalf("spine arrivals sum %d, want %d", sum, total)
	}
	// Least-loaded spraying over an otherwise idle fabric balances to
	// within a few packets.
	want := total / 8
	for so, c := range counts {
		if c < want*95/100 || c > want*105/100 {
			t.Errorf("spine %d got %d, want ~%d", so, c, want)
		}
	}
}

func TestFIBRoutesAroundAdminDownLink(t *testing.T) {
	n, eng := newTestNet(t, topology.FatTreeConfig{Leaves: 4, Spines: 4}, 4)
	topo := n.Topology()
	dstLeaf := topo.LeafOf(3)
	// Disconnect spine 1's link to the destination leaf.
	badSpine := topo.Spines()[1]
	link := topo.TrunkLinks(badSpine, dstLeaf)[0]
	n.SetLinkAdmin(link, false)

	counts := spineArrivals(n, dstLeaf)
	const total = 3000
	sendMany(n, 0, 3, total, 4096)
	eng.Run()
	if counts[1] != 0 {
		t.Fatalf("admin-down spine still received %d packets", counts[1])
	}
	for _, so := range []int{0, 2, 3} {
		if c := counts[so]; c < total/3*95/100 {
			t.Errorf("surviving spine %d got %d, want ~%d (d/(s-f) rebalance)", so, c, total/3)
		}
	}
	if st := n.Stats(); st.Delivered != total {
		t.Fatalf("delivered %d of %d despite rerouting", st.Delivered, total)
	}
}

func TestAdminDownSourceSideExcludesSpine(t *testing.T) {
	// A known fault on the SOURCE leaf's uplink must also remove that
	// spine from the spray set (the analytical model's f counts both).
	n, eng := newTestNet(t, topology.FatTreeConfig{Leaves: 4, Spines: 4}, 5)
	topo := n.Topology()
	srcLeaf := topo.LeafOf(0)
	badSpine := topo.Spines()[2]
	n.SetLinkAdmin(topo.TrunkLinks(srcLeaf, badSpine)[0], false)

	counts := spineArrivals(n, topo.LeafOf(3))
	sendMany(n, 0, 3, 2000, 4096)
	eng.Run()
	if counts[2] != 0 {
		t.Fatalf("spine with downed source-side link received %d packets", counts[2])
	}
	if st := n.Stats(); st.Delivered != 2000 {
		t.Fatalf("delivered %d, want 2000", st.Delivered)
	}
}

func TestSilentFaultDropsAtConfiguredRate(t *testing.T) {
	n, eng := newTestNet(t, topology.FatTreeConfig{Leaves: 4, Spines: 4}, 6)
	topo := n.Topology()
	dstLeaf := topo.LeafOf(3)
	badSpine := topo.Spines()[0]
	link := topo.TrunkLinks(badSpine, dstLeaf)[0]
	n.InjectFault(link, n.DirToward(link, dstLeaf), fault.NewBernoulliDrop(0.5, sim.NewRNG(6, "f")))

	const total = 8000
	sendMany(n, 0, 3, total, 4096)
	eng.Run()
	st := n.Stats()
	if st.Delivered+st.FaultDropped != total {
		t.Fatalf("conservation: delivered %d + dropped %d != %d", st.Delivered, st.FaultDropped, total)
	}
	// ~1/4 of traffic crosses the faulty spine; half of that drops.
	wantDrops := total / 8
	if st.FaultDropped < uint64(wantDrops*7/10) || st.FaultDropped > uint64(wantDrops*13/10) {
		t.Fatalf("fault drops = %d, want ~%d", st.FaultDropped, wantDrops)
	}
	ls := n.LinkStats(link, n.DirToward(link, dstLeaf))
	if ls.FaultDropped != st.FaultDropped {
		t.Fatalf("per-link drop counter %d != global %d", ls.FaultDropped, st.FaultDropped)
	}
}

func TestBlackHoleLink(t *testing.T) {
	n, eng := newTestNet(t, topology.FatTreeConfig{Leaves: 4, Spines: 4}, 7)
	topo := n.Topology()
	dstLeaf := topo.LeafOf(3)
	link := topo.TrunkLinks(topo.Spines()[0], dstLeaf)[0]
	n.InjectFault(link, n.DirToward(link, dstLeaf), fault.BlackHole{})

	counts := spineArrivals(n, dstLeaf)
	const total = 4000
	sendMany(n, 0, 3, total, 4096)
	eng.Run()
	if counts[0] != 0 {
		t.Fatalf("blackholed link delivered %d packets", counts[0])
	}
	st := n.Stats()
	// The FIB does NOT know about the silent blackhole, so ~1/4 of
	// packets still die there.
	if st.FaultDropped < total/4*8/10 {
		t.Fatalf("blackhole dropped only %d, expected ~%d", st.FaultDropped, total/4)
	}
}

func TestFaultDirectionality(t *testing.T) {
	n, eng := newTestNet(t, topology.FatTreeConfig{Leaves: 2, Spines: 1}, 8)
	topo := n.Topology()
	link := topo.TrunkLinks(topo.Spines()[0], topo.LeafOf(1))[0]
	// Fault only the direction toward leaf 1: traffic 1->0 (which uses
	// the same cable upstream) must be untouched.
	n.InjectFault(link, n.DirToward(link, topo.LeafOf(1)), fault.BlackHole{})

	got0, got1 := 0, 0
	n.SetReceiver(0, func(sim.Time, *Packet) { got0++ })
	n.SetReceiver(1, func(sim.Time, *Packet) { got1++ })
	sendMany(n, 0, 1, 100, 4096)
	sendMany(n, 1, 0, 100, 4096)
	eng.Run()
	if got1 != 0 {
		t.Errorf("downstream-faulted direction delivered %d", got1)
	}
	if got0 != 100 {
		t.Errorf("reverse direction delivered %d, want 100", got0)
	}
}

func TestUnreachableDestinationCountsRouteDropped(t *testing.T) {
	n, eng := newTestNet(t, topology.FatTreeConfig{Leaves: 2, Spines: 2}, 9)
	topo := n.Topology()
	// Disconnect every spine from leaf 1.
	for _, spine := range topo.Spines() {
		n.SetLinkAdmin(topo.TrunkLinks(spine, topo.LeafOf(1))[0], false)
	}
	sendMany(n, 0, 1, 50, 4096)
	eng.Run()
	st := n.Stats()
	if st.RouteDropped != 50 {
		t.Fatalf("RouteDropped = %d, want 50", st.RouteDropped)
	}
}

func TestHighPriorityOvertakesLow(t *testing.T) {
	n, eng := newTestNet(t, topology.FatTreeConfig{Leaves: 2, Spines: 1}, 10)
	var order []Priority
	n.SetReceiver(1, func(_ sim.Time, p *Packet) { order = append(order, p.Priority) })
	// Queue a burst of low-priority, then one high-priority packet.
	// The NIC is busy with the first low packet, but the high packet
	// must bypass the rest of the low queue.
	for i := 0; i < 10; i++ {
		n.Send(SendSpec{Src: 0, Dst: 1, Size: 4096, Priority: Low, Msg: uint64(i)})
	}
	n.Send(SendSpec{Src: 0, Dst: 1, Size: 4096, Priority: High, Msg: 99})
	eng.Run()
	if len(order) != 11 {
		t.Fatalf("delivered %d, want 11", len(order))
	}
	pos := -1
	for i, pr := range order {
		if pr == High {
			pos = i
			break
		}
	}
	if pos < 0 || pos > 1 {
		t.Fatalf("high-priority packet delivered at position %d, want 0 or 1", pos)
	}
}

func TestPFCLosslessUnderIncast(t *testing.T) {
	// 8 hosts on one leaf all blast a single host on another leaf
	// through one spine: without PFC the leaf egress would overrun, but
	// the fabric is lossless so every packet must arrive.
	topo, err := topology.NewFatTree(topology.FatTreeConfig{Leaves: 2, Spines: 1, HostsPerLeaf: 8})
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	n := MustNew(Config{Topo: topo, Engine: eng, Seed: 11, XoffBytes: 64 << 10, XonBytes: 32 << 10})
	dst := topo.HostsOf(topo.Leaves()[1])[0]
	got := 0
	n.SetReceiver(dst, func(sim.Time, *Packet) { got++ })
	const perHost = 200
	for _, src := range topo.HostsOf(topo.Leaves()[0]) {
		sendMany(n, src, dst, perHost, 4096)
	}
	eng.Run()
	if got != 8*perHost {
		t.Fatalf("incast delivered %d, want %d (lossless violated)", got, 8*perHost)
	}
	if n.Stats().PFCPauses == 0 {
		t.Fatal("incast at 8:1 oversubscription triggered no PFC pauses")
	}
}

func TestTrunkedLinksShareLoad(t *testing.T) {
	topo, err := topology.NewFatTree(topology.FatTreeConfig{Leaves: 2, Spines: 2, Trunk: 2})
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	n := MustNew(Config{Topo: topo, Engine: eng, Seed: 12})
	dstLeaf := topo.LeafOf(1)
	hostPorts := 1
	portCounts := map[int]int{}
	n.AddIngressHook(dstLeaf, func(_ sim.Time, port int, p *Packet) {
		if port >= hostPorts {
			portCounts[port]++
		}
	})
	const total = 2000
	sendMany(n, 0, 1, total, 4096)
	eng.Run()
	if len(portCounts) != 4 {
		t.Fatalf("used %d uplink ports, want 4 (2 spines x 2 trunks)", len(portCounts))
	}
	for port, c := range portCounts {
		if c < total/4*90/100 {
			t.Errorf("trunk port %d underused: %d", port, c)
		}
	}
}

func TestClos3EndToEnd(t *testing.T) {
	topo, err := topology.NewClos3(topology.Clos3Config{Pods: 2, LeavesPerPod: 2, SpinesPerPod: 2, CoresPerGroup: 2})
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	n := MustNew(Config{Topo: topo, Engine: eng, Seed: 13})
	// Host 0 is in pod 0; host 3 in pod 1 (cross-pod, must transit core).
	src, dst := topology.HostID(0), topology.HostID(3)
	got := 0
	n.SetReceiver(dst, func(sim.Time, *Packet) { got++ })
	coreSaw := 0
	for _, core := range topo.Cores() {
		n.AddIngressHook(core, func(sim.Time, int, *Packet) { coreSaw++ })
	}
	sendMany(n, src, dst, 500, 4096)
	eng.Run()
	if got != 500 {
		t.Fatalf("cross-pod delivered %d, want 500", got)
	}
	if coreSaw != 500 {
		t.Fatalf("core layer saw %d packets, want 500", coreSaw)
	}

	// Same-pod traffic must NOT transit the core.
	coreSaw = 0
	got = 0
	n.SetReceiver(1, func(sim.Time, *Packet) { got++ })
	sendMany(n, 0, 1, 300, 4096)
	eng.Run()
	if got != 300 || coreSaw != 0 {
		t.Fatalf("same-pod: delivered %d (want 300), core saw %d (want 0)", got, coreSaw)
	}
}

func TestClos3RoutesAroundCoreFault(t *testing.T) {
	topo, err := topology.NewClos3(topology.Clos3Config{Pods: 2, LeavesPerPod: 2, SpinesPerPod: 2, CoresPerGroup: 2})
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	n := MustNew(Config{Topo: topo, Engine: eng, Seed: 14})
	// Down one spine-core link in pod 0.
	spine := topo.SpinesOfPod(0)[0]
	core := topo.Cores()[0]
	n.SetLinkAdmin(topo.TrunkLinks(spine, core)[0], false)

	got := 0
	n.SetReceiver(3, func(sim.Time, *Packet) { got++ })
	sendMany(n, 0, 3, 400, 4096)
	eng.Run()
	if got != 400 {
		t.Fatalf("delivered %d after core-link failure, want 400", got)
	}
}

// Property: for random small scenarios with random faults, packet
// conservation holds once the network drains.
func TestPacketConservationProperty(t *testing.T) {
	f := func(seed uint64, nPkts uint8, dropPct uint8) bool {
		topo, err := topology.NewFatTree(topology.FatTreeConfig{Leaves: 3, Spines: 3})
		if err != nil {
			return false
		}
		eng := sim.NewEngine()
		n := MustNew(Config{Topo: topo, Engine: eng, Seed: seed})
		link := topo.TrunkLinks(topo.Spines()[0], topo.LeafOf(2))[0]
		rate := float64(dropPct%100) / 100
		n.InjectFault(link, DirBoth, fault.NewBernoulliDrop(rate, sim.NewRNG(seed, "p")))
		for i := 0; i < int(nPkts); i++ {
			n.Send(SendSpec{Src: 0, Dst: 2, Size: 1000 + int(i), Msg: uint64(i)})
		}
		eng.Run()
		st := n.Stats()
		return st.Sent == st.Delivered+st.FaultDropped+st.RouteDropped+st.AdminDropped
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestIngressHookSeesUplinkPort(t *testing.T) {
	n, eng := newTestNet(t, topology.FatTreeConfig{Leaves: 2, Spines: 2}, 15)
	topo := n.Topology()
	dstLeaf := topo.LeafOf(1)
	sawUplink := false
	n.AddIngressHook(dstLeaf, func(_ sim.Time, port int, p *Packet) {
		if so, _ := topo.SpineOrdinalOfLeafPort(dstLeaf, port); so >= 0 {
			sawUplink = true
			if p.Dst != 1 {
				t.Errorf("hook saw foreign packet %v", p)
			}
		}
	})
	n.Send(SendSpec{Src: 0, Dst: 1, Size: 4096})
	eng.Run()
	if !sawUplink {
		t.Fatal("ingress hook never saw the uplink port")
	}
}

func TestIngressHooksCompose(t *testing.T) {
	n, eng := newTestNet(t, topology.FatTreeConfig{Leaves: 2, Spines: 2}, 15)
	dstLeaf := n.Topology().LeafOf(1)
	var order []int
	n.AddIngressHook(dstLeaf, func(sim.Time, int, *Packet) { order = append(order, 1) })
	n.AddIngressHook(dstLeaf, func(sim.Time, int, *Packet) { order = append(order, 2) })
	n.Send(SendSpec{Src: 0, Dst: 1, Size: 4096})
	eng.Run()
	if len(order) < 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("hooks did not both run in registration order: %v", order)
	}
}

func TestECMPPinsFlowToOnePath(t *testing.T) {
	topo, err := topology.NewFatTree(topology.FatTreeConfig{Leaves: 2, Spines: 8})
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	n := MustNew(Config{Topo: topo, Engine: eng, Seed: 16, Spray: spray.ECMP})
	dstLeaf := topo.LeafOf(1)
	counts := spineArrivals(n, dstLeaf)
	// One flow (same Msg) must stick to one spine under ECMP.
	for i := 0; i < 500; i++ {
		n.Send(SendSpec{Src: 0, Dst: 1, Size: 4096, Msg: 42})
	}
	eng.Run()
	used := 0
	for _, c := range counts {
		if c > 0 {
			used++
		}
	}
	if used != 1 {
		t.Fatalf("ECMP flow used %d spines, want 1", used)
	}
}

func TestSendValidatesSize(t *testing.T) {
	n, _ := newTestNet(t, topology.FatTreeConfig{Leaves: 2, Spines: 1}, 17)
	defer func() {
		if recover() == nil {
			t.Fatal("Send accepted non-positive size")
		}
	}()
	n.Send(SendSpec{Src: 0, Dst: 1, Size: 0})
}

func TestDirTowardResolution(t *testing.T) {
	n, _ := newTestNet(t, topology.FatTreeConfig{Leaves: 2, Spines: 1}, 18)
	topo := n.Topology()
	leaf, spine := topo.LeafOf(1), topo.Spines()[0]
	link := topo.TrunkLinks(spine, leaf)[0]
	dirToLeaf := n.DirToward(link, leaf)
	dirToSpine := n.DirToward(link, spine)
	if dirToLeaf == dirToSpine {
		t.Fatal("DirToward returned the same direction for both endpoints")
	}
}
