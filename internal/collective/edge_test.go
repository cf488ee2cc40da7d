package collective

import (
	"math"
	"testing"

	"flowpulse/internal/fabric"
	"flowpulse/internal/sim"
	"flowpulse/internal/topology"
)

func TestTwoRankRing(t *testing.T) {
	r := newRig(t, 2, 2, 1, 20)
	c := &RingAllReduce{Group: []topology.HostID{0, 1}, BytesPerRank: 64 << 10}
	if c.Steps() != 2 {
		t.Fatalf("2-rank allreduce has %d steps, want 2", c.Steps())
	}
	res := runCollective(t, r, c, inputValues(2), nil)
	for rank := 0; rank < 2; rank++ {
		for ch := 0; ch < 2; ch++ {
			if math.Abs(res.Values[rank][ch]-chunkSum(2, ch)) > 1e-9 {
				t.Fatalf("2-rank reduce wrong at %d/%d", rank, ch)
			}
		}
	}
}

func TestUnevenChunkSizesEndToEnd(t *testing.T) {
	// 1 MiB + 3 bytes over 8 ranks: first 3 chunks one byte larger.
	r := newRig(t, 8, 4, 1, 21)
	c := &RingAllReduce{Group: allHosts(r.topo), BytesPerRank: (1 << 20) + 3}
	res := runCollective(t, r, c, inputValues(8), nil)
	for rank := 0; rank < 8; rank++ {
		for ch := 0; ch < 8; ch++ {
			if math.Abs(res.Values[rank][ch]-chunkSum(8, ch)) > 1e-9 {
				t.Fatalf("uneven-chunk reduce wrong at %d/%d", rank, ch)
			}
		}
	}
	// The per-message breakdown must conserve the aggregate demand.
	d := c.Demand()
	var msgs int64
	for i := range d.Msgs {
		for j := range d.Msgs[i] {
			for _, m := range d.Msgs[i][j] {
				msgs += m
			}
		}
	}
	if msgs != total(d) {
		t.Fatalf("Msgs sum %d != Bytes total %d", msgs, total(d))
	}
}

func TestSingleFlowCollective(t *testing.T) {
	r := newRig(t, 4, 4, 1, 22)
	sf := &SingleFlow{Src: 0, Dst: 3, Bytes: 512 << 10}
	var done sim.Time
	sf.Run(&RunContext{
		Stack:    r.stack,
		Tag:      fabric.FlowTag{Sentinel: true, Iter: 1},
		Priority: fabric.High,
		OnComplete: func(now sim.Time, res *Result) {
			done = now
			if res.MessagesSent != 1 {
				t.Errorf("messages = %d", res.MessagesSent)
			}
		},
	})
	r.eng.Run()
	if done == 0 {
		t.Fatal("single flow never completed")
	}
	d := sf.Demand()
	if d.Bytes[0][1] != 512<<10 || total(d) != 512<<10 {
		t.Fatalf("single-flow demand wrong: %+v", d.Bytes)
	}
	if len(d.Msgs[0][1]) != 1 || d.Msgs[0][1][0] != 512<<10 {
		t.Fatalf("single-flow message list wrong: %v", d.Msgs[0][1])
	}
}

func TestSingleFlowWithJitterOffset(t *testing.T) {
	r := newRig(t, 2, 2, 1, 23)
	sf := &SingleFlow{Src: 0, Dst: 1, Bytes: 4096}
	var started sim.Time
	sf.Run(&RunContext{
		Stack:        r.stack,
		StartOffsets: []sim.Duration{7 * sim.Microsecond, 0},
		OnComplete:   func(now sim.Time, _ *Result) { started = now },
	})
	r.eng.Run()
	if started < sim.Time(7*sim.Microsecond) {
		t.Fatalf("offset ignored: completed at %v", started)
	}
}

func TestRingAllGatherDemandEqualsAllReduceHalf(t *testing.T) {
	group := make([]topology.HostID, 8)
	for i := range group {
		group[i] = topology.HostID(i)
	}
	ar := (&RingAllReduce{Group: group, BytesPerRank: 1 << 20}).Demand()
	rs := (&ReduceScatter{Group: group, BytesPerRank: 1 << 20}).Demand()
	ag := (&AllGather{Group: group, BytesPerRank: 1 << 20}).Demand()
	if total(rs)+total(ag) != total(ar) {
		t.Fatalf("RS(%d) + AG(%d) != AR(%d)", total(rs), total(ag), total(ar))
	}
}

// total is the payload a demand matrix moves per iteration.
func total(d *DemandMatrix) int64 {
	var sum int64
	for r := range d.Bytes {
		sum += toHost(d, r)
	}
	return sum
}

// toHost is the aggregate demand into one rank.
func toHost(d *DemandMatrix, rank int) int64 {
	var sum int64
	for i := range d.Bytes {
		sum += d.Bytes[i][rank]
	}
	return sum
}

func TestDemandMatrixHelpers(t *testing.T) {
	group := make([]topology.HostID, 4)
	for i := range group {
		group[i] = topology.HostID(i)
	}
	d := (&RingAllReduce{Group: group, BytesPerRank: 4096}).Demand()
	if len(d.Hosts) != 4 {
		t.Fatalf("N = %d", len(d.Hosts))
	}
	// Each rank receives only from its predecessor.
	for r := 0; r < 4; r++ {
		pred := (r + 3) % 4
		if toHost(d, r) != d.Bytes[pred][r] {
			t.Fatalf("ToHost(%d) mismatch", r)
		}
	}
}
