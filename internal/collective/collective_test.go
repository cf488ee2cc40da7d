package collective

import (
	"math"
	"testing"
	"testing/quick"

	"flowpulse/internal/fabric"
	"flowpulse/internal/fault"
	"flowpulse/internal/sim"
	"flowpulse/internal/topology"
	"flowpulse/internal/transport"
)

type rig struct {
	topo  *topology.Topology
	eng   *sim.Engine
	net   *fabric.Network
	stack *transport.Stack
}

func newRig(t *testing.T, leaves, spines, hostsPerLeaf int, seed uint64) *rig {
	t.Helper()
	topo, err := topology.NewFatTree(topology.FatTreeConfig{Leaves: leaves, Spines: spines, HostsPerLeaf: hostsPerLeaf})
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	net := fabric.MustNew(fabric.Config{Topo: topo, Engine: eng, Seed: seed})
	return &rig{topo: topo, eng: eng, net: net, stack: transport.NewStack(net, transport.Config{})}
}

func allHosts(topo *topology.Topology) []topology.HostID {
	hosts := make([]topology.HostID, len(topo.Hosts))
	for i := range hosts {
		hosts[i] = topology.HostID(i)
	}
	return hosts
}

// inputValues gives rank i chunk c the value i*1000 + c, so reduced
// sums are exactly predictable.
func inputValues(n int) [][]float64 {
	vals := make([][]float64, n)
	for i := range vals {
		vals[i] = make([]float64, n)
		for c := range vals[i] {
			vals[i][c] = float64(i*1000 + c)
		}
	}
	return vals
}

func chunkSum(n, c int) float64 {
	var s float64
	for i := 0; i < n; i++ {
		s += float64(i*1000 + c)
	}
	return s
}

func runCollective(t *testing.T, r *rig, c Collective, values [][]float64, offsets []sim.Duration) *Result {
	t.Helper()
	var res *Result
	c.Run(&RunContext{
		Stack:        r.stack,
		Tag:          fabric.FlowTag{Sentinel: true, Iter: 1},
		Priority:     fabric.High,
		Values:       values,
		StartOffsets: offsets,
		OnComplete:   func(_ sim.Time, out *Result) { res = out },
	})
	r.eng.Run()
	if res == nil {
		t.Fatal("collective never completed")
	}
	return res
}

func TestRingAllReduceReducesCorrectly(t *testing.T) {
	r := newRig(t, 8, 4, 1, 1)
	n := 8
	c := &RingAllReduce{Group: allHosts(r.topo), BytesPerRank: 1 << 20}
	res := runCollective(t, r, c, inputValues(n), nil)
	for rank := 0; rank < n; rank++ {
		for ch := 0; ch < n; ch++ {
			want := chunkSum(n, ch)
			if got := res.Values[rank][ch]; math.Abs(got-want) > 1e-9 {
				t.Fatalf("rank %d chunk %d = %v, want %v", rank, ch, got, want)
			}
		}
	}
	if res.MessagesSent != n*2*(n-1) {
		t.Fatalf("messages = %d, want %d", res.MessagesSent, n*2*(n-1))
	}
}

func TestRingAllReduceWithJitterStillReduces(t *testing.T) {
	r := newRig(t, 8, 4, 1, 2)
	n := 8
	rng := sim.NewRNG(2, "jitter")
	offsets := make([]sim.Duration, n)
	for i := range offsets {
		offsets[i] = rng.UniformDuration(5 * sim.Microsecond)
	}
	c := &RingAllReduce{Group: allHosts(r.topo), BytesPerRank: 256 << 10}
	res := runCollective(t, r, c, inputValues(n), offsets)
	for rank := 0; rank < n; rank++ {
		for ch := 0; ch < n; ch++ {
			if math.Abs(res.Values[rank][ch]-chunkSum(n, ch)) > 1e-9 {
				t.Fatalf("jittered reduce wrong at rank %d chunk %d", rank, ch)
			}
		}
	}
}

func TestRingAllReduceUnderSilentFault(t *testing.T) {
	r := newRig(t, 8, 4, 1, 3)
	// 5% silent drop on one spine->leaf link: transport must recover
	// and reduction must stay exact.
	dstLeaf := r.topo.LeafOf(3)
	link := r.topo.TrunkLinks(r.topo.Spines()[1], dstLeaf)[0]
	r.net.InjectFault(link, r.net.DirToward(link, dstLeaf), fault.NewBernoulliDrop(0.05, sim.NewRNG(3, "f")))
	n := 8
	c := &RingAllReduce{Group: allHosts(r.topo), BytesPerRank: 1 << 20}
	res := runCollective(t, r, c, inputValues(n), nil)
	for rank := 0; rank < n; rank++ {
		for ch := 0; ch < n; ch++ {
			if math.Abs(res.Values[rank][ch]-chunkSum(n, ch)) > 1e-9 {
				t.Fatalf("reduction corrupted by packet loss at rank %d chunk %d", rank, ch)
			}
		}
	}
	if r.stack.Stats().Retransmits == 0 {
		t.Fatal("expected retransmits under a 5% fault")
	}
}

func TestRingAllReduceDemand(t *testing.T) {
	n := 8
	var D int64 = 1 << 20
	c := &RingAllReduce{Group: make([]topology.HostID, n), BytesPerRank: D}
	for i := range c.Group {
		c.Group[i] = topology.HostID(i)
	}
	d := c.Demand()
	// Each rank sends only to its successor.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if j == (i+1)%n {
				if d.Bytes[i][j] == 0 {
					t.Fatalf("no demand from %d to successor %d", i, j)
				}
				continue
			}
			if d.Bytes[i][j] != 0 {
				t.Fatalf("unexpected demand %d->%d", i, j)
			}
		}
	}
	// Total = N ranks * 2(N-1)/N * D.
	want := int64(n) * 2 * int64(n-1) * D / int64(n)
	if got := total(d); got != want {
		t.Fatalf("total demand %d, want %d", got, want)
	}
	// Demand must equal what an actual run sends.
	if got := toHost(d, 1); got != d.Bytes[0][1] {
		t.Fatalf("ToHost(1) = %d, want %d", got, d.Bytes[0][1])
	}
}

func TestReduceScatterOwnsReducedChunk(t *testing.T) {
	r := newRig(t, 8, 4, 1, 4)
	n := 8
	c := &ReduceScatter{Group: allHosts(r.topo), BytesPerRank: 512 << 10}
	if c.Steps() != n-1 {
		t.Fatalf("steps = %d, want %d", c.Steps(), n-1)
	}
	res := runCollective(t, r, c, inputValues(n), nil)
	for rank := 0; rank < n; rank++ {
		owned := (rank + 1) % n
		if math.Abs(res.Values[rank][owned]-chunkSum(n, owned)) > 1e-9 {
			t.Fatalf("rank %d does not own reduced chunk %d", rank, owned)
		}
	}
}

func TestPaperThirtyOneStages(t *testing.T) {
	// §6: 31-stage ring collective over 32 leaves.
	group := make([]topology.HostID, 32)
	for i := range group {
		group[i] = topology.HostID(i)
	}
	rs := &ReduceScatter{Group: group, BytesPerRank: 32 << 20}
	if rs.Steps() != 31 {
		t.Fatalf("reduce-scatter over 32 ranks has %d stages, want 31", rs.Steps())
	}
}

func TestAllGatherDistributesChunks(t *testing.T) {
	r := newRig(t, 8, 4, 1, 5)
	n := 8
	// Rank i owns chunk i with value 7000+i; everything else zero.
	vals := make([][]float64, n)
	for i := range vals {
		vals[i] = make([]float64, n)
		vals[i][i] = float64(7000 + i)
	}
	c := &AllGather{Group: allHosts(r.topo), BytesPerRank: 512 << 10}
	res := runCollective(t, r, c, vals, nil)
	for rank := 0; rank < n; rank++ {
		for ch := 0; ch < n; ch++ {
			if got, want := res.Values[rank][ch], float64(7000+ch); got != want {
				t.Fatalf("rank %d chunk %d = %v, want %v", rank, ch, got, want)
			}
		}
	}
}

func TestAllToAllExchanges(t *testing.T) {
	r := newRig(t, 8, 4, 1, 6)
	n := 8
	// Rank i sends rank j the value 100*i + j.
	vals := make([][]float64, n)
	for i := range vals {
		vals[i] = make([]float64, n)
		for j := range vals[i] {
			vals[i][j] = float64(100*i + j)
		}
	}
	c := &AllToAll{Group: allHosts(r.topo), BytesPerPair: 128 << 10}
	res := runCollective(t, r, c, vals, nil)
	for rank := 0; rank < n; rank++ {
		for from := 0; from < n; from++ {
			if got, want := res.Values[rank][from], float64(100*from+rank); got != want {
				t.Fatalf("rank %d block from %d = %v, want %v", rank, from, got, want)
			}
		}
	}
	d := c.Demand()
	if total(d) != int64(n*(n-1))*(128<<10) {
		t.Fatalf("all-to-all demand = %d", total(d))
	}
}

func TestLocalRingTrafficStaysLocal(t *testing.T) {
	// 4 hosts per leaf, ring in host order: 3 of every 4 ring hops are
	// intra-leaf and must not touch any spine.
	r := newRig(t, 4, 4, 4, 7)
	spinePackets := 0
	for _, spine := range r.topo.Spines() {
		r.net.AddIngressHook(spine, func(sim.Time, int, *fabric.Packet) { spinePackets++ })
	}
	c := &RingAllReduce{Group: allHosts(r.topo), BytesPerRank: 256 << 10}
	res := runCollective(t, r, c, nil, nil)
	if res == nil {
		t.Fatal("no result")
	}
	total := int(r.net.Stats().Sent)
	if spinePackets >= total/2 {
		t.Fatalf("spine saw %d of %d packets; locality optimization broken", spinePackets, total)
	}
}

func TestChunkSizes(t *testing.T) {
	sizes, err := chunkSizes(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{3, 3, 2, 2}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("chunkSizes(10,4) = %v", sizes)
		}
	}
	if _, err := chunkSizes(3, 4); err == nil {
		t.Fatal("oversplit accepted")
	}
}

// Property: chunk schedules visit every chunk exactly once per phase,
// and demand totals match the schedule for arbitrary small rings.
func TestRingScheduleProperty(t *testing.T) {
	f := func(nn uint8, bytesKB uint16) bool {
		n := 2 + int(nn%14)
		bytes := int64(bytesKB%256+1) * 1024
		if bytes < int64(n) {
			bytes = int64(n)
		}
		// Reduce-scatter phase: rank 0's sent chunks are distinct.
		seen := map[int]bool{}
		for t := 0; t < n-1; t++ {
			c := ringChunkAllReduce(n, 0, t)
			if c < 0 || c >= n || seen[c] {
				return false
			}
			seen[c] = true
		}
		// All-gather phase too.
		seen = map[int]bool{}
		for t := n - 1; t < 2*(n-1); t++ {
			c := ringChunkAllReduce(n, 0, t)
			if c < 0 || c >= n || seen[c] {
				return false
			}
			seen[c] = true
		}
		group := make([]topology.HostID, n)
		for i := range group {
			group[i] = topology.HostID(i)
		}
		d := (&RingAllReduce{Group: group, BytesPerRank: bytes}).Demand()
		// Mass conservation: total equals sum over rank/step chunk sizes.
		chunks, err := chunkSizes(bytes, n)
		if err != nil {
			return false
		}
		var want int64
		for rank := 0; rank < n; rank++ {
			for st := 0; st < 2*(n-1); st++ {
				want += chunks[ringChunkAllReduce(n, rank, st)]
			}
		}
		return total(d) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestGroupValidation(t *testing.T) {
	if err := validateGroup([]topology.HostID{0}); err == nil {
		t.Error("single-rank group accepted")
	}
	if err := validateGroup([]topology.HostID{0, 1, 0}); err == nil {
		t.Error("duplicate host accepted")
	}
	if err := validateGroup([]topology.HostID{0, 1, 2}); err != nil {
		t.Errorf("valid group rejected: %v", err)
	}
}
