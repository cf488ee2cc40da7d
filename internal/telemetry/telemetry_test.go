package telemetry

import (
	"reflect"
	"slices"
	"testing"

	"flowpulse/internal/fabric"
	"flowpulse/internal/sim"
	"flowpulse/internal/topology"
)

func testTopo(t *testing.T) *topology.Topology {
	t.Helper()
	topo, err := topology.NewFatTree(topology.FatTreeConfig{Leaves: 4, Spines: 4})
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func pkt(src topology.HostID, size int, tag fabric.FlowTag, kind fabric.PacketKind) *fabric.Packet {
	return &fabric.Packet{Src: src, Dst: 99, Size: size, Tag: tag, Kind: kind}
}

func TestMonitorCountsTaggedUplinkBytes(t *testing.T) {
	topo := testTopo(t)
	var closed []*Window
	m := NewLeafMonitor(topo, topo.Leaves()[1], JobAny, func(w *Window) { closed = append(closed, w.Clone()) })

	tag := fabric.FlowTag{Sentinel: true, Job: 0, Iter: 1}
	// Uplink ports start at 1 (one host).
	m.OnPacket(100, 1, pkt(0, 4096, tag, fabric.Data))
	m.OnPacket(110, 2, pkt(0, 4096, tag, fabric.Data))
	m.OnPacket(120, 2, pkt(0, 1000, tag, fabric.Data))

	// Next iteration closes the window.
	tag2 := tag
	tag2.Iter = 2
	m.OnPacket(200, 1, pkt(0, 64, tag2, fabric.Data))

	if len(closed) != 1 {
		t.Fatalf("closed %d windows, want 1", len(closed))
	}
	w := closed[0]
	if w.Iter != 1 || w.PortBytes[0] != 4096 || w.PortBytes[1] != 5096 {
		t.Fatalf("window: %+v", w)
	}
	if w.Total() != 9192 || w.Packets != 3 {
		t.Fatalf("total=%d packets=%d", w.Total(), w.Packets)
	}
	if w.OpenedAt != 100 || w.ClosedAt != 200 {
		t.Fatalf("window times: %v..%v", w.OpenedAt, w.ClosedAt)
	}
}

func TestMonitorIgnoresUntaggedAcksAndHostPorts(t *testing.T) {
	topo := testTopo(t)
	m := NewLeafMonitor(topo, topo.Leaves()[0], JobAny, nil)
	tag := fabric.FlowTag{Sentinel: true, Iter: 1}

	m.OnPacket(1, 0, pkt(0, 4096, tag, fabric.Data))                     // host port
	m.OnPacket(2, 1, pkt(0, 64, tag, fabric.Ack))                        // ack
	m.OnPacket(3, 1, pkt(0, 4096, fabric.FlowTag{Iter: 1}, fabric.Data)) // no sentinel
	if m.dx.open[0] != nil {
		t.Fatal("filtered packets opened a window")
	}
}

func TestMonitorJobFilter(t *testing.T) {
	topo := testTopo(t)
	m := NewLeafMonitor(topo, topo.Leaves()[0], 5, nil)
	m.OnPacket(1, 1, pkt(0, 100, fabric.FlowTag{Sentinel: true, Job: 4, Iter: 1}, fabric.Data))
	if m.dx.open[4] != nil {
		t.Fatal("foreign job measured")
	}
	m.OnPacket(2, 1, pkt(0, 100, fabric.FlowTag{Sentinel: true, Job: 5, Iter: 1}, fabric.Data))
	if w := m.dx.open[5]; w == nil || w.PortBytes[0] != 100 {
		t.Fatal("own job not measured")
	}
}

func TestMonitorLatePacketsCounted(t *testing.T) {
	topo := testTopo(t)
	m := NewLeafMonitor(topo, topo.Leaves()[0], JobAny, nil)
	m.OnPacket(1, 1, pkt(0, 100, fabric.FlowTag{Sentinel: true, Iter: 5}, fabric.Data))
	m.OnPacket(2, 1, pkt(0, 77, fabric.FlowTag{Sentinel: true, Iter: 4}, fabric.Data))
	if m.LateBytes != 77 {
		t.Fatalf("LateBytes = %d, want 77", m.LateBytes)
	}
	if m.dx.open[0].Total() != 100 {
		t.Fatal("late packet polluted the open window")
	}
}

func TestMonitorSenderAttribution(t *testing.T) {
	topo := testTopo(t)
	m := NewLeafMonitor(topo, topo.Leaves()[3], JobAny, nil)
	tag := fabric.FlowTag{Sentinel: true, Iter: 1}
	m.OnPacket(1, 1, pkt(0, 1000, tag, fabric.Data)) // host 0 under leaf ordinal 0
	m.OnPacket(2, 1, pkt(2, 500, tag, fabric.Data))  // host 2 under leaf ordinal 2
	w := m.dx.open[0]
	if w.SenderBytes[0][0] != 1000 || w.SenderBytes[0][2] != 500 {
		t.Fatalf("sender matrix wrong: %v", w.SenderBytes[0])
	}
}

func TestFlushClosesWindow(t *testing.T) {
	topo := testTopo(t)
	var closed []*Window
	m := NewLeafMonitor(topo, topo.Leaves()[0], JobAny, func(w *Window) { closed = append(closed, w) })
	m.OnPacket(1, 1, pkt(0, 100, fabric.FlowTag{Sentinel: true, Iter: 9}, fabric.Data))
	m.Flush(50)
	if len(closed) != 1 || closed[0].Iter != 9 || closed[0].ClosedAt != 50 {
		t.Fatalf("flush: %+v", closed)
	}
	m.Flush(60) // idempotent
	if len(closed) != 1 {
		t.Fatal("double flush closed twice")
	}
}

func TestSkippedIterationStillCloses(t *testing.T) {
	// Iteration numbers may skip (e.g. unmeasured iterations between
	// measured ones); any higher iter closes the window.
	topo := testTopo(t)
	var closed []*Window
	m := NewLeafMonitor(topo, topo.Leaves()[0], JobAny, func(w *Window) { closed = append(closed, w) })
	m.OnPacket(1, 1, pkt(0, 100, fabric.FlowTag{Sentinel: true, Iter: 1}, fabric.Data))
	m.OnPacket(2, 1, pkt(0, 100, fabric.FlowTag{Sentinel: true, Iter: 7}, fabric.Data))
	if len(closed) != 1 || closed[0].Iter != 1 {
		t.Fatal("skip-ahead did not close window")
	}
	if m.dx.open[0].Iter != 7 {
		t.Fatal("new window has wrong iteration")
	}
}

func TestNonLeafRejected(t *testing.T) {
	topo := testTopo(t)
	defer func() {
		if recover() == nil {
			t.Fatal("monitor accepted a spine switch")
		}
	}()
	NewLeafMonitor(topo, topo.Spines()[0], JobAny, nil)
}

func TestAttachAllEndToEnd(t *testing.T) {
	topo := testTopo(t)
	eng := sim.NewEngine()
	net := fabric.MustNew(fabric.Config{Topo: topo, Engine: eng, Seed: 1})
	var windows []*Window
	c := AttachAll(net, JobAny, func(w *Window) { windows = append(windows, w.Clone()) })

	tag1 := fabric.FlowTag{Sentinel: true, Iter: 1}
	tag2 := fabric.FlowTag{Sentinel: true, Iter: 2}
	for i := 0; i < 64; i++ {
		net.Send(fabric.SendSpec{Src: 0, Dst: 3, Size: 4096, Kind: fabric.Data, Tag: tag1, Msg: uint64(i)})
	}
	eng.Run()
	for i := 0; i < 64; i++ {
		net.Send(fabric.SendSpec{Src: 0, Dst: 3, Size: 4096, Kind: fabric.Data, Tag: tag2, Msg: uint64(i)})
	}
	eng.Run()
	c.FlushAll(eng.Now())

	// Only leaf ordinal 3 sees tagged uplink traffic; two windows.
	if len(windows) != 2 {
		t.Fatalf("windows = %d, want 2", len(windows))
	}
	for i, w := range windows {
		if w.LeafOrdinal != 3 {
			t.Fatalf("window %d from leaf %d, want 3", i, w.LeafOrdinal)
		}
		if w.Total() != 64*4096 {
			t.Fatalf("window %d total %d, want %d", i, w.Total(), 64*4096)
		}
		if w.Iter != uint32(i+1) {
			t.Fatalf("window %d iter %d", i, w.Iter)
		}
	}
}

// TestCloneIsIndependent pins what Clone promises its callers (the
// learned model's warm-up set): a clone shares no memory with its
// source, and — the sender matrix being one backing array — its rows
// cannot grow into one another. CompactInto (the pipeline's history)
// must make the same copy minus the sender matrix.
func TestCloneIsIndependent(t *testing.T) {
	cases := []struct {
		name string
		win  Window
	}{
		{"full", Window{
			LeafOrdinal: 2, Job: 7, Iter: 9, Packets: 11, CEBytes: 13, OpenedAt: 5, ClosedAt: 17,
			PortBytes:    []int64{10, 20, 30},
			AggPortBytes: []int64{11, 21, 31},
			SenderBytes:  [][]int64{{1, 2, 3, 4}, {5, 6, 7, 8}, {9, 10, 11, 12}},
			aggOpen:      []int64{1, 1, 1},
		}},
		{"nil aggregate", Window{
			PortBytes:   []int64{10, 20},
			SenderBytes: [][]int64{{1, 2}, {3, 4}},
		}},
		{"ragged rows", Window{
			PortBytes:   []int64{1, 2, 3, 4},
			SenderBytes: [][]int64{{1, 2, 3}, nil, {4}, {}, {5, 6}},
		}},
		{"zero rows", Window{PortBytes: []int64{}, SenderBytes: nil}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := tc.win
			cp := src.Clone()
			var rec Window
			if rest := src.CompactInto(&rec, make([]int64, len(src.PortBytes)+len(src.AggPortBytes)+1)); len(rest) != 1 {
				t.Fatalf("CompactInto left %d slab values, want 1", len(rest))
			}

			// The clone's values, snapshotted through fresh memory.
			wantPort := append([]int64{}, src.PortBytes...)
			wantAgg := append([]int64{}, src.AggPortBytes...)
			var wantSender [][]int64
			for _, row := range src.SenderBytes {
				wantSender = append(wantSender, append([]int64{}, row...))
			}

			if cp.LeafOrdinal != src.LeafOrdinal || cp.Job != src.Job || cp.Iter != src.Iter ||
				cp.Packets != src.Packets || cp.CEBytes != src.CEBytes ||
				cp.OpenedAt != src.OpenedAt || cp.ClosedAt != src.ClosedAt {
				t.Fatalf("scalars differ: %+v vs %+v", cp, src)
			}
			if cp.aggOpen != nil {
				t.Fatal("clone kept the monitor's open-snapshot")
			}
			if (cp.AggPortBytes == nil) != (src.AggPortBytes == nil) {
				t.Fatalf("AggPortBytes nil-ness changed: clone %v, source %v", cp.AggPortBytes, src.AggPortBytes)
			}
			if len(cp.SenderBytes) != len(src.SenderBytes) {
				t.Fatalf("clone has %d sender rows, source %d", len(cp.SenderBytes), len(src.SenderBytes))
			}

			// Overwrite every source cell: the clone must not notice.
			for i := range src.PortBytes {
				src.PortBytes[i] = -1
			}
			for i := range src.AggPortBytes {
				src.AggPortBytes[i] = -1
			}
			for _, row := range src.SenderBytes {
				for i := range row {
					row[i] = -1
				}
			}
			// Appending to any clone row must not touch its neighbour.
			for i, row := range cp.SenderBytes {
				if cap(row) != len(row) {
					t.Fatalf("sender row %d: cap %d != len %d", i, cap(row), len(row))
				}
				_ = append(row, -2)
			}

			if !slices.Equal(cp.PortBytes, wantPort) || !slices.Equal(cp.AggPortBytes, wantAgg) {
				t.Fatalf("clone changed with its source: port %v agg %v", cp.PortBytes, cp.AggPortBytes)
			}
			for i, row := range cp.SenderBytes {
				if !slices.Equal(row, wantSender[i]) {
					t.Fatalf("sender row %d: got %v, want %v", i, row, wantSender[i])
				}
			}

			// The compact copy is the clone without its sender matrix,
			// its rows as capped as the clone's.
			want := *cp
			want.SenderBytes = nil
			if !reflect.DeepEqual(rec, want) {
				t.Fatalf("compact copy %+v, want %+v", rec, want)
			}
			if cap(rec.PortBytes) != len(rec.PortBytes) || cap(rec.AggPortBytes) != len(rec.AggPortBytes) {
				t.Fatalf("compact rows have spare capacity: port %d/%d agg %d/%d",
					len(rec.PortBytes), cap(rec.PortBytes), len(rec.AggPortBytes), cap(rec.AggPortBytes))
			}
		})
	}
}
