package fabric

import (
	"hash/fnv"
	"runtime"
	"testing"

	"flowpulse/internal/sim"
	"flowpulse/internal/topology"
)

// runParallelFabric drives raw packet injections over a sharded
// fat-tree and returns an FNV-64a fingerprint of every per-direction
// wire counter plus the merged stats — the full observable surface of
// the fabric layer.
func runParallelFabric(t *testing.T, workers int) uint64 {
	t.Helper()
	topo, err := topology.NewFatTree(topology.FatTreeConfig{Leaves: 4, Spines: 3, HostsPerLeaf: 4})
	if err != nil {
		t.Fatal(err)
	}
	part := topology.NewPartition(topo)
	grp := sim.NewGroup(sim.GroupConfig{Domains: part.NumDomains, Lookahead: part.Lookahead, Workers: workers})
	defer grp.Close()
	net := MustNew(Config{Topo: topo, Group: grp, Partition: part, Seed: 7})

	nHosts := len(topo.Hosts)
	for h := 0; h < nHosts; h++ {
		src := topology.HostID(h)
		eng := net.EngineOf(src)
		for k := 0; k < 20; k++ {
			dst := topology.HostID((h + 5 + k*3) % nHosts)
			if dst == src {
				dst = topology.HostID((h + 1) % nHosts)
			}
			at := sim.Time(h*77+k*991) * sim.Time(sim.Nanosecond)
			size := 1024 + (h+k)%3*512
			prio := High
			if k%4 == 3 {
				prio = Low
			}
			eng.After(sim.Duration(at), func(sim.Time) { // set-up: the clock is at zero
				net.Send(SendSpec{Src: src, Dst: dst, Size: size, Priority: prio, Kind: Data})
			})
		}
	}
	final := grp.Run()
	if final == 0 {
		t.Fatal("no simulated time elapsed")
	}
	if bad := net.AuditConservation(); len(bad) != 0 {
		t.Fatalf("workers=%d: conservation violated: %v", workers, bad)
	}

	h := fnv.New64a()
	u64 := func(v uint64) {
		var b [8]byte
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	u64(uint64(final))
	for l := range topo.Links {
		for _, dir := range []Direction{DirAtoB, DirBtoA} {
			s := net.LinkStats(topology.LinkID(l), dir)
			u64(s.Sent)
			u64(s.SentBytes)
			u64(s.Delivered)
			u64(s.DeliveredBytes)
			u64(s.FaultDropped)
			u64(s.AdminDropped)
		}
	}
	st := net.Stats()
	u64(st.Sent)
	u64(st.SentBytes)
	u64(st.Delivered)
	u64(st.DeliveredBytes)
	u64(st.PFCPauses)
	return h.Sum64()
}

func TestParallelFabricDeterministicAcrossWorkers(t *testing.T) {
	want := runParallelFabric(t, 1)
	for _, w := range []int{2, 4, runtime.GOMAXPROCS(0)} {
		if got := runParallelFabric(t, w); got != want {
			t.Fatalf("workers=%d: fingerprint %x, want %x", w, got, want)
		}
	}
}

func TestParallelFabricDomainAssignment(t *testing.T) {
	topo, err := topology.NewFatTree(topology.FatTreeConfig{Leaves: 2, Spines: 2, HostsPerLeaf: 2})
	if err != nil {
		t.Fatal(err)
	}
	part := topology.NewPartition(topo)
	grp := sim.NewGroup(sim.GroupConfig{Domains: part.NumDomains, Lookahead: part.Lookahead, Workers: 1})
	defer grp.Close()
	net := MustNew(Config{Topo: topo, Group: grp, Partition: part})

	if net.Engine() != grp.Control() {
		t.Fatal("network engine is not the control engine")
	}
	for h := range topo.Hosts {
		hid := topology.HostID(h)
		if net.DomainOf(hid) != net.DomainOfSwitch(topo.LeafOf(hid)) {
			t.Fatalf("host %d not in its leaf's domain", h)
		}
		if net.EngineOf(hid) != grp.Engine(net.DomainOf(hid)) {
			t.Fatalf("host %d engine mismatch", h)
		}
	}
}
