package predict

import (
	"math"
	"testing"
	"testing/quick"

	"flowpulse/internal/collective"
	"flowpulse/internal/fabric"
	"flowpulse/internal/sim"
	"flowpulse/internal/telemetry"
	"flowpulse/internal/topology"
)

// wire4k models the default transport framing: 4096-byte MTU, 64-byte
// headers.
type wire4k struct{}

func (wire4k) WireBytesFor(bytes int) int64 {
	pkts := (bytes + 4095) / 4096
	return int64(bytes) + int64(pkts)*64
}

func buildNet(t *testing.T, cfg topology.FatTreeConfig) (*topology.Topology, *fabric.Network) {
	t.Helper()
	topo, err := topology.NewFatTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	net := fabric.MustNew(fabric.Config{Topo: topo, Engine: sim.NewEngine(), Seed: 1})
	return topo, net
}

func pairDemand(hosts []topology.HostID, src, dst int, bytes int64) *collective.DemandMatrix {
	n := len(hosts)
	d := &collective.DemandMatrix{Hosts: hosts, Bytes: make([][]int64, n), Msgs: make([][][]int64, n)}
	for i := range d.Bytes {
		d.Bytes[i] = make([]int64, n)
		d.Msgs[i] = make([][]int64, n)
	}
	d.Bytes[src][dst] = bytes
	d.Msgs[src][dst] = []int64{bytes}
	return d
}

func hostsOf(topo *topology.Topology) []topology.HostID {
	hs := make([]topology.HostID, len(topo.Hosts))
	for i := range hs {
		hs[i] = topology.HostID(i)
	}
	return hs
}

func TestAnalyticalFaultFreeEvenSplit(t *testing.T) {
	topo, net := buildNet(t, topology.FatTreeConfig{Leaves: 4, Spines: 8})
	const d = 1 << 20
	dm := pairDemand(hostsOf(topo), 0, 3, d)
	a := NewAnalytical(topo, net, wire4k{}, dm)

	wire := float64(wire4k{}.WireBytesFor(d))
	ports := a.PortLoad(3)
	if len(ports) != 8 {
		t.Fatalf("uplink count = %d, want 8", len(ports))
	}
	for u, v := range ports {
		if math.Abs(v-wire/8) > 1e-6 {
			t.Errorf("port %d load %v, want %v", u, v, wire/8)
		}
	}
	// Other leaves see nothing.
	for lo := 0; lo < 3; lo++ {
		for _, v := range a.PortLoad(lo) {
			if v != 0 {
				t.Fatalf("leaf %d unexpectedly loaded", lo)
			}
		}
	}
}

func TestAnalyticalKnownFaultExcludesSpine(t *testing.T) {
	topo, net := buildNet(t, topology.FatTreeConfig{Leaves: 4, Spines: 8})
	dstLeaf := topo.LeafOf(3)
	net.SetLinkAdmin(topo.TrunkLinks(topo.Spines()[2], dstLeaf)[0], false)

	const d = 1 << 20
	dm := pairDemand(hostsOf(topo), 0, 3, d)
	a := NewAnalytical(topo, net, wire4k{}, dm)
	wire := float64(wire4k{}.WireBytesFor(d))
	ports := a.PortLoad(3)
	if ports[2] != 0 {
		t.Fatalf("excluded spine predicted %v", ports[2])
	}
	for u, v := range ports {
		if u == 2 {
			continue
		}
		if math.Abs(v-wire/7) > 1e-6 {
			t.Errorf("port %d load %v, want d/(s-f) = %v", u, v, wire/7)
		}
	}
}

func TestAnalyticalSourceSideFaultAlsoExcludes(t *testing.T) {
	topo, net := buildNet(t, topology.FatTreeConfig{Leaves: 4, Spines: 8})
	srcLeaf := topo.LeafOf(0)
	net.SetLinkAdmin(topo.TrunkLinks(topo.Spines()[5], srcLeaf)[0], false)

	dm := pairDemand(hostsOf(topo), 0, 3, 1<<20)
	a := NewAnalytical(topo, net, wire4k{}, dm)
	ports := a.PortLoad(3)
	if ports[5] != 0 {
		t.Fatalf("spine with source-side fault predicted %v", ports[5])
	}
	wire := float64(wire4k{}.WireBytesFor(1 << 20))
	if math.Abs(ports[0]-wire/7) > 1e-6 {
		t.Fatalf("surviving port load %v, want %v", ports[0], wire/7)
	}
}

func TestAnalyticalLocalPairContributesNothing(t *testing.T) {
	topo, net := buildNet(t, topology.FatTreeConfig{Leaves: 2, Spines: 4, HostsPerLeaf: 2})
	// Hosts 0,1 share leaf 0.
	dm := pairDemand(hostsOf(topo), 0, 1, 1<<20)
	a := NewAnalytical(topo, net, wire4k{}, dm)
	for lo := 0; lo < 2; lo++ {
		for _, v := range a.PortLoad(lo) {
			if v != 0 {
				t.Fatal("local pair predicted spine traffic")
			}
		}
	}
}

func TestAnalyticalSenderBreakdown(t *testing.T) {
	topo, net := buildNet(t, topology.FatTreeConfig{Leaves: 4, Spines: 4})
	hosts := hostsOf(topo)
	dm := pairDemand(hosts, 0, 3, 1<<20)
	dm.Bytes[1][3] = 2 << 20
	dm.Msgs[1][3] = []int64{2 << 20}
	a := NewAnalytical(topo, net, wire4k{}, dm)
	senders := a.SenderLoad(3)
	w0 := float64(wire4k{}.WireBytesFor(1<<20)) / 4
	w1 := float64(wire4k{}.WireBytesFor(2<<20)) / 4
	for u := 0; u < 4; u++ {
		if math.Abs(senders[u][0]-w0) > 1e-6 || math.Abs(senders[u][1]-w1) > 1e-6 {
			t.Fatalf("port %d senders: %v", u, senders[u])
		}
		if math.Abs(a.PortLoad(3)[u]-(w0+w1)) > 1e-6 {
			t.Fatalf("port sum != sender sum at %d", u)
		}
	}
}

func TestAnalyticalTrunkSplit(t *testing.T) {
	topo, net := buildNet(t, topology.FatTreeConfig{Leaves: 2, Spines: 2, Trunk: 2})
	dm := pairDemand(hostsOf(topo), 0, 1, 1<<20)
	a := NewAnalytical(topo, net, wire4k{}, dm)
	ports := a.PortLoad(1)
	if len(ports) != 4 {
		t.Fatalf("uplinks = %d, want 4", len(ports))
	}
	wire := float64(wire4k{}.WireBytesFor(1 << 20))
	for u, v := range ports {
		if math.Abs(v-wire/4) > 1e-6 {
			t.Errorf("trunk port %d load %v, want %v", u, v, wire/4)
		}
	}
	// Down one trunk of spine 0 on the destination side: its twin
	// takes the whole spine share.
	net.SetLinkAdmin(topo.TrunkLinks(topo.Spines()[0], topo.LeafOf(1))[0], false)
	a = NewAnalytical(topo, net, wire4k{}, dm)
	ports = a.PortLoad(1)
	if ports[0] != 0 {
		t.Fatalf("downed trunk predicted %v", ports[0])
	}
	// The source still sprays over all 4 of its uplink ports (its own
	// links are healthy and spine 0 still reaches the leaf), so spine 0
	// receives wire/2 and forwards it all down its surviving trunk.
	if math.Abs(ports[1]-wire/2) > 1e-6 {
		t.Fatalf("surviving trunk of spine 0: %v, want %v", ports[1], wire/2)
	}
	if math.Abs(ports[2]-wire/4) > 1e-6 || math.Abs(ports[3]-wire/4) > 1e-6 {
		t.Fatalf("spine 1 trunks: %v %v, want %v", ports[2], ports[3], wire/4)
	}
}

// Property: total predicted load across all leaves equals total wire
// bytes of all non-local pairs, for random demands and random known
// faults (mass conservation).
func TestAnalyticalMassConservationProperty(t *testing.T) {
	topo, net := buildNet(t, topology.FatTreeConfig{Leaves: 6, Spines: 6})
	hosts := hostsOf(topo)
	f := func(seed uint64, faults uint8) bool {
		rng := sim.NewRNG(seed, "prop")
		// Random demand.
		n := len(hosts)
		dm := &collective.DemandMatrix{Hosts: hosts, Bytes: make([][]int64, n), Msgs: make([][][]int64, n)}
		var want float64
		for i := range dm.Bytes {
			dm.Bytes[i] = make([]int64, n)
			dm.Msgs[i] = make([][]int64, n)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j || rng.IntN(2) == 0 {
					continue
				}
				b := int64(rng.IntN(1<<20) + 1)
				dm.Bytes[i][j] = b
				dm.Msgs[i][j] = []int64{b}
			}
		}
		// Random pre-existing faults on leaf-spine links (avoid fully
		// disconnecting: at most 2).
		downed := []topology.LinkID{}
		for k := 0; k < int(faults%3); k++ {
			leaf := topo.Leaves()[rng.IntN(6)]
			spine := topo.Spines()[rng.IntN(6)]
			l := topo.TrunkLinks(leaf, spine)[0]
			net.SetLinkAdmin(l, false)
			downed = append(downed, l)
		}
		a := NewAnalytical(topo, net, wire4k{}, dm)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if dm.Bytes[i][j] == 0 || topo.LeafOf(hosts[i]) == topo.LeafOf(hosts[j]) {
					continue
				}
				// Unreachable pairs contribute nothing.
				if len(net.LeafUplinkCandidates(topo.LeafOf(hosts[i]), topo.LeafOf(hosts[j]))) == 0 {
					continue
				}
				want += float64(wire4k{}.WireBytesFor(int(dm.Bytes[i][j])))
			}
		}
		var got float64
		for lo := range topo.Leaves() {
			for _, v := range a.PortLoad(lo) {
				got += v
			}
		}
		for _, l := range downed {
			net.SetLinkAdmin(l, true)
		}
		return math.Abs(got-want) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestAnalyticalRebaselineTracksAdminState checks that Rebaseline
// recomputes against the live FIB: quarantine a destination-side link,
// rebaseline, and the model moves to d/(s−1); reconnect and rebaseline
// restores the original shares exactly.
func TestAnalyticalRebaselineTracksAdminState(t *testing.T) {
	topo, net := buildNet(t, topology.FatTreeConfig{Leaves: 4, Spines: 8})
	const d = 1 << 20
	dm := pairDemand(hostsOf(topo), 0, 3, d)
	a := NewAnalytical(topo, net, wire4k{}, dm)
	before := append([]float64(nil), a.PortLoad(3)...)

	link := topo.TrunkLinks(topo.Spines()[2], topo.LeafOf(3))[0]
	net.SetLinkAdmin(link, false)
	a.Rebaseline()
	wire := float64(wire4k{}.WireBytesFor(d))
	ports := a.PortLoad(3)
	if ports[2] != 0 {
		t.Fatalf("quarantined spine predicted %v after rebaseline", ports[2])
	}
	if math.Abs(ports[0]-wire/7) > 1e-6 {
		t.Fatalf("surviving port %v, want d/(s-1) = %v", ports[0], wire/7)
	}

	net.SetLinkAdmin(link, true)
	a.Rebaseline()
	after := a.PortLoad(3)
	for u := range before {
		if before[u] != after[u] {
			t.Fatalf("port %d: %v before, %v after round trip", u, before[u], after[u])
		}
	}
}

// TestAnalyticalFaultSetMasksBeforeReconvergence checks the known-fault
// set path with the FIB untouched. The semantics are asymmetric, like
// the real pre-reconvergence fabric: a source-side fault is local
// knowledge — the leaf stops spraying on it, so the remaining spray
// ports absorb its share — while a destination-side fault is remote,
// so the share sprayed toward it is simply lost, not redistributed.
func TestAnalyticalFaultSetMasksBeforeReconvergence(t *testing.T) {
	topo, net := buildNet(t, topology.FatTreeConfig{Leaves: 4, Spines: 8})
	const d = 1 << 20
	dm := pairDemand(hostsOf(topo), 0, 3, d)
	a := NewAnalytical(topo, net, wire4k{}, dm)
	fs := NewFaultSet()
	a.SetFaults(fs)
	wire := float64(wire4k{}.WireBytesFor(d))

	// Destination-side fault: that ingress port goes dark, the other
	// seven keep their un-reconverged wire/8 share.
	fs.Add(topo.TrunkLinks(topo.Spines()[2], topo.LeafOf(3))[0])
	a.Rebaseline()
	if ports := a.PortLoad(3); ports[2] != 0 || math.Abs(ports[0]-wire/8) > 1e-6 {
		t.Fatalf("fault set not honoured on destination side: %v", ports)
	}

	// Source-side fault too: the source's spray set shrinks to seven
	// ports, so each surviving spine now receives wire/7 — and spine
	// 2's share is still lost at the destination trunk.
	fs.Add(topo.TrunkLinks(topo.Spines()[5], topo.LeafOf(0))[0])
	a.Rebaseline()
	if ports := a.PortLoad(3); ports[5] != 0 || ports[2] != 0 || math.Abs(ports[0]-wire/7) > 1e-6 {
		t.Fatalf("fault set not honoured on source side: %v", ports)
	}

	// Removing the faults and rebaselining restores the clean shares.
	for _, l := range []topology.LinkID{
		topo.TrunkLinks(topo.Spines()[2], topo.LeafOf(3))[0],
		topo.TrunkLinks(topo.Spines()[5], topo.LeafOf(0))[0],
	} {
		fs.Remove(l)
	}
	a.Rebaseline()
	for u, v := range a.PortLoad(3) {
		if math.Abs(v-wire/8) > 1e-6 {
			t.Fatalf("port %d after fault-set clear: %v, want %v", u, v, wire/8)
		}
	}
}

func TestFaultSetSemantics(t *testing.T) {
	fs := NewFaultSet()
	if fs.Has(3) || fs.Len() != 0 {
		t.Fatal("fresh set not empty")
	}
	if !fs.Add(3) || fs.Add(3) {
		t.Fatal("Add change-reporting wrong")
	}
	if !fs.Has(3) || fs.Len() != 1 {
		t.Fatal("Add did not take")
	}
	if !fs.Remove(3) || fs.Remove(3) {
		t.Fatal("Remove change-reporting wrong")
	}
	var nilSet *FaultSet
	if nilSet.Has(1) {
		t.Fatal("nil set claims membership")
	}
}

func TestLearnedForcedRebaseline(t *testing.T) {
	l := NewLearned(2, LearnedConfig{Warmup: 2})
	l.Observe(synthWindow(0, 1, []int64{100, 300}))
	l.Observe(synthWindow(0, 2, []int64{200, 100}))
	if !l.Ready(0) {
		t.Fatal("not ready after warmup")
	}
	l.Rebaseline()
	if l.Ready(0) || l.ForcedRebaselines != 1 {
		t.Fatalf("forced rebaseline did not reset: ready=%v forced=%d", l.Ready(0), l.ForcedRebaselines)
	}
	// New warmup windows (the post-quarantine traffic) form the new
	// baseline.
	l.Observe(synthWindow(0, 3, []int64{400, 400}))
	l.Observe(synthWindow(0, 4, []int64{600, 600}))
	if !l.Ready(0) {
		t.Fatal("not ready after re-warmup")
	}
	if got := l.PortLoad(0); got[0] != 500 || got[1] != 500 {
		t.Fatalf("post-rebaseline baseline: %v", got)
	}
}

func synthWindow(leafOrd int, iter uint32, ports []int64) *telemetry.Window {
	senders := make([][]int64, len(ports))
	for u := range senders {
		senders[u] = []int64{ports[u]} // single sender leaf 0
	}
	return &telemetry.Window{LeafOrdinal: leafOrd, Iter: iter, PortBytes: ports, SenderBytes: senders}
}

func TestSimulationPredictorAverages(t *testing.T) {
	ws := []*telemetry.Window{
		synthWindow(0, 1, []int64{100, 200}),
		synthWindow(0, 2, []int64{300, 400}),
		synthWindow(1, 1, []int64{10, 20}),
	}
	s, err := NewSimulation(2, ws)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Ready(0) || !s.Ready(1) {
		t.Fatal("leaves with windows not ready")
	}
	if got := s.PortLoad(0); got[0] != 200 || got[1] != 300 {
		t.Fatalf("averaged loads: %v", got)
	}
	if got := s.SenderLoad(1); got[1][0] != 20 {
		t.Fatalf("sender load: %v", got)
	}
	if _, err := NewSimulation(2, nil); err == nil {
		t.Fatal("empty reference accepted")
	}
}

func TestLearnedWarmupAndReady(t *testing.T) {
	l := NewLearned(2, LearnedConfig{Warmup: 2})
	if l.Ready(0) {
		t.Fatal("ready before any window")
	}
	l.Observe(synthWindow(0, 1, []int64{100, 300}))
	if l.Ready(0) {
		t.Fatal("ready after 1 of 2 warmup windows")
	}
	l.Observe(synthWindow(0, 2, []int64{200, 100}))
	if !l.Ready(0) || l.Ready(1) {
		t.Fatal("readiness wrong after warmup")
	}
	if got := l.PortLoad(0); got[0] != 150 || got[1] != 200 {
		t.Fatalf("baseline: %v", got)
	}
}

func TestLearnedIgnoresFaultyWindows(t *testing.T) {
	// Baseline is balanced; a new fault (one port depressed) must NOT
	// be absorbed.
	l := NewLearned(1, LearnedConfig{Warmup: 1, RebaselineAfter: 2})
	l.Observe(synthWindow(0, 1, []int64{1000, 1000, 1000, 1000}))
	for it := uint32(2); it < 10; it++ {
		l.Observe(synthWindow(0, it, []int64{850, 1050, 1050, 1050})) // fault: port 0 down ~15%
	}
	if l.Rebaselines != 0 {
		t.Fatal("faulty windows absorbed into baseline")
	}
	if got := l.PortLoad(0)[0]; got != 1000 {
		t.Fatalf("baseline drifted to %v", got)
	}
}

func TestLearnedRebaselinesAfterTransientHeals(t *testing.T) {
	// Fig 3: warmup happens DURING a transient fault (port 0 low).
	// When the fault heals, load re-balances evenly; the model must
	// adopt the healthier baseline.
	l := NewLearned(1, LearnedConfig{Warmup: 2, RebaselineAfter: 3})
	l.Observe(synthWindow(0, 1, []int64{500, 1167, 1167, 1166}))
	l.Observe(synthWindow(0, 2, []int64{500, 1167, 1166, 1167}))
	if !l.Ready(0) {
		t.Fatal("not ready after warmup")
	}
	if cv := l.leafs[0].baseCV; cv < 0.2 {
		t.Fatalf("faulty baseline CV %v unexpectedly low", cv)
	}
	// Fault heals: even distribution, same total (4000).
	for it := uint32(3); it <= 5; it++ {
		l.Observe(synthWindow(0, it, []int64{1000, 1000, 1000, 1000}))
	}
	if l.Rebaselines != 1 {
		t.Fatalf("rebaselines = %d, want 1", l.Rebaselines)
	}
	if got := l.PortLoad(0)[0]; got != 1000 {
		t.Fatalf("rebaselined port 0 = %v, want 1000", got)
	}
}

func TestLearnedRebaselineRequiresConsecutive(t *testing.T) {
	l := NewLearned(1, LearnedConfig{Warmup: 1, RebaselineAfter: 3})
	l.Observe(synthWindow(0, 1, []int64{500, 1166, 1167, 1167}))
	// Two healthy, one faulty, two healthy: streak resets, no rebaseline.
	l.Observe(synthWindow(0, 2, []int64{1000, 1000, 1000, 1000}))
	l.Observe(synthWindow(0, 3, []int64{1000, 1000, 1000, 1000}))
	l.Observe(synthWindow(0, 4, []int64{500, 1166, 1167, 1167}))
	l.Observe(synthWindow(0, 5, []int64{1000, 1000, 1000, 1000}))
	l.Observe(synthWindow(0, 6, []int64{1000, 1000, 1000, 1000}))
	if l.Rebaselines != 0 {
		t.Fatal("rebaselined on a broken streak")
	}
	l.Observe(synthWindow(0, 7, []int64{1000, 1000, 1000, 1000}))
	if l.Rebaselines != 1 {
		t.Fatal("did not rebaseline after full streak")
	}
}

func TestLearnedTotalChangeBlocksRebaseline(t *testing.T) {
	// A balanced window with a very different TOTAL is a workload
	// change, not a healed fault.
	l := NewLearned(1, LearnedConfig{Warmup: 1, RebaselineAfter: 2})
	l.Observe(synthWindow(0, 1, []int64{500, 1166, 1167, 1167}))
	for it := uint32(2); it < 8; it++ {
		l.Observe(synthWindow(0, it, []int64{400, 400, 400, 400}))
	}
	if l.Rebaselines != 0 {
		t.Fatal("rebaselined despite total volume change")
	}
}

func TestPortCV(t *testing.T) {
	cv, tot := portCVF([]float64{100, 100, 100, 100})
	if cv != 0 || tot != 400 {
		t.Fatalf("cv=%v tot=%v", cv, tot)
	}
	cv, _ = portCVF([]float64{0, 200})
	if math.Abs(cv-1) > 1e-12 {
		t.Fatalf("cv of {0,200} = %v, want 1", cv)
	}
	if cv, tot := portCVF(nil); cv != 0 || tot != 0 {
		t.Fatal("empty input not handled")
	}
}

// multiDemand builds a demand matrix from (src, dst, bytes) triples.
func multiDemand(hosts []topology.HostID, pairs [][3]int64) *collective.DemandMatrix {
	n := len(hosts)
	d := &collective.DemandMatrix{Hosts: hosts, Bytes: make([][]int64, n), Msgs: make([][][]int64, n)}
	for i := range d.Bytes {
		d.Bytes[i] = make([]int64, n)
		d.Msgs[i] = make([][]int64, n)
	}
	for _, p := range pairs {
		src, dst, bytes := p[0], p[1], p[2]
		d.Bytes[src][dst] = bytes
		d.Msgs[src][dst] = []int64{bytes}
	}
	return d
}

// TestAnalyticalWaterFillEqualizesAsymmetricSenders reproduces the
// post-quarantine regime the re-planner creates: one sender is forced
// onto a single spine (its own uplink to the other spine is admin-
// down), another is free to use both. Adaptive spraying equalizes the
// destination's two ingress ports; the per-pair even split would
// predict a 3:5 imbalance and raise a false deficit alert on a healthy
// link. The model must predict the equalized split.
func TestAnalyticalWaterFillEqualizesAsymmetricSenders(t *testing.T) {
	topo, net := buildNet(t, topology.FatTreeConfig{Leaves: 4, Spines: 2})
	hosts := hostsOf(topo)
	// host1 (leaf1) → host2 (leaf2): 2 MiB, forced via spine 1 below.
	// host0 (leaf0) → host2 (leaf2): 6 MiB, flexible.
	dm := multiDemand(hosts, [][3]int64{{1, 2, 2 << 20}, {0, 2, 6 << 20}})
	net.SetLinkAdmin(topo.TrunkLinks(topo.Spines()[0], topo.LeafOf(1))[0], false)
	a := NewAnalytical(topo, net, wire4k{}, dm)

	wForced := float64(wire4k{}.WireBytesFor(2 << 20))
	wFlex := float64(wire4k{}.WireBytesFor(6 << 20))
	half := (wForced + wFlex) / 2
	ports := a.PortLoad(2)
	if math.Abs(ports[0]-half) > 1e-6 || math.Abs(ports[1]-half) > 1e-6 {
		t.Fatalf("asymmetric senders not equalized: %v, want %v each", ports, half)
	}
	// Sender attribution: the forced sender sits entirely on port 1;
	// the flexible sender fills the rest of both ports.
	senders := a.SenderLoad(2)
	if math.Abs(senders[1][1]-wForced) > 1e-3 {
		t.Fatalf("forced sender on port 1 = %v, want %v", senders[1][1], wForced)
	}
	if math.Abs(senders[0][0]-half) > 1e-3 || math.Abs(senders[1][0]-(half-wForced)) > 1e-3 {
		t.Fatalf("flexible sender split = %v/%v, want %v/%v",
			senders[0][0], senders[1][0], half, half-wForced)
	}
}

// TestAnalyticalWaterFillBindingSubset drives the recursion: the
// forced sender alone overloads its port beyond the global average, so
// that port becomes the binding set at the forced volume and the
// flexible sender keeps the remaining port to itself.
func TestAnalyticalWaterFillBindingSubset(t *testing.T) {
	topo, net := buildNet(t, topology.FatTreeConfig{Leaves: 4, Spines: 2})
	hosts := hostsOf(topo)
	dm := multiDemand(hosts, [][3]int64{{1, 2, 8 << 20}, {0, 2, 2 << 20}})
	net.SetLinkAdmin(topo.TrunkLinks(topo.Spines()[0], topo.LeafOf(1))[0], false)
	a := NewAnalytical(topo, net, wire4k{}, dm)

	wForced := float64(wire4k{}.WireBytesFor(8 << 20))
	wFlex := float64(wire4k{}.WireBytesFor(2 << 20))
	ports := a.PortLoad(2)
	if math.Abs(ports[1]-wForced) > 1e-6 || math.Abs(ports[0]-wFlex) > 1e-6 {
		t.Fatalf("binding subset not honoured: %v, want [%v %v]", ports, wFlex, wForced)
	}
}
