package telemetry

import (
	"testing"

	"flowpulse/internal/fabric"
	"flowpulse/internal/topology"
)

func clos3Topo(t *testing.T) *topology.Topology {
	t.Helper()
	topo, err := topology.NewClos3(topology.Clos3Config{
		Pods: 2, LeavesPerPod: 2, SpinesPerPod: 2, CoresPerGroup: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestSpineMonitorCountsCorePortsOnly(t *testing.T) {
	topo := clos3Topo(t)
	spine := topo.Spines()[0]
	var closed []*Window
	m := NewLeafMonitor(topo, spine, JobAny, func(w *Window) { closed = append(closed, w.Clone()) })
	if m.uplinks != 2 {
		t.Fatalf("core ports = %d, want 2", m.uplinks)
	}

	tag := fabric.FlowTag{Sentinel: true, Iter: 1}
	// Leaf-facing ports (0, 1) must be ignored; core-facing (2, 3)
	// counted.
	m.OnPacket(1, 0, pkt(0, 4096, tag, fabric.Data))
	m.OnPacket(2, 2, pkt(0, 4096, tag, fabric.Data))
	m.OnPacket(3, 3, pkt(3, 1000, tag, fabric.Data))

	tag2 := tag
	tag2.Iter = 2
	m.OnPacket(9, 2, pkt(0, 64, tag2, fabric.Data))
	if len(closed) != 1 {
		t.Fatalf("windows = %d", len(closed))
	}
	w := closed[0]
	if w.SwitchKind != topology.Spine {
		t.Fatalf("window kind = %v", w.SwitchKind)
	}
	if w.PortBytes[0] != 4096 || w.PortBytes[1] != 1000 {
		t.Fatalf("port bytes: %v", w.PortBytes)
	}
	// Sender attribution: hosts map one per leaf (4 leaves), so host 0
	// is leaf ordinal 0 and host 3 leaf ordinal 3.
	if w.SenderBytes[0][0] != 4096 || w.SenderBytes[1][3] != 1000 {
		t.Fatalf("sender matrix: %v / %v", w.SenderBytes[0], w.SenderBytes[1])
	}
}

func TestSpineMonitorFiltersLikeLeaf(t *testing.T) {
	topo := clos3Topo(t)
	m := NewLeafMonitor(topo, topo.Spines()[1], 5, nil)
	tag := fabric.FlowTag{Sentinel: true, Job: 4, Iter: 1}
	m.OnPacket(1, 2, pkt(0, 100, tag, fabric.Data))                     // wrong job
	m.OnPacket(2, 2, pkt(0, 100, fabric.FlowTag{Iter: 1}, fabric.Data)) // no sentinel
	m.OnPacket(3, 2, pkt(0, 64, fabric.FlowTag{Sentinel: true, Job: 5, Iter: 1}, fabric.Ack))
	if m.dx.open[4] != nil {
		t.Fatal("filtered packets opened a spine window")
	}
	m.OnPacket(4, 2, pkt(0, 100, fabric.FlowTag{Sentinel: true, Job: 5, Iter: 1}, fabric.Data))
	if w := m.dx.open[5]; w == nil || w.PortBytes[0] != 100 {
		t.Fatal("own job not measured")
	}
}

func TestSpineMonitorLateAndFlush(t *testing.T) {
	topo := clos3Topo(t)
	var closed []*Window
	m := NewLeafMonitor(topo, topo.Spines()[0], JobAny, func(w *Window) { closed = append(closed, w) })
	m.OnPacket(1, 2, pkt(0, 100, fabric.FlowTag{Sentinel: true, Iter: 3}, fabric.Data))
	m.OnPacket(2, 2, pkt(0, 70, fabric.FlowTag{Sentinel: true, Iter: 2}, fabric.Data))
	if m.LateBytes != 70 {
		t.Fatalf("LateBytes = %d", m.LateBytes)
	}
	m.Flush(50)
	m.Flush(60)
	if len(closed) != 1 || closed[0].Iter != 3 {
		t.Fatalf("flush behavior: %v", closed)
	}
}

// A core has no tier above it: nothing for the program to count.
func TestSpineMonitorRejectsNonSpine(t *testing.T) {
	topo := clos3Topo(t)
	defer func() {
		if recover() == nil {
			t.Fatal("accepted a core switch")
		}
	}()
	NewLeafMonitor(topo, topo.Cores()[0], JobAny, nil)
}

func TestSpineMonitorRejectsTwoLevel(t *testing.T) {
	topo, err := topology.NewFatTree(topology.FatTreeConfig{Leaves: 2, Spines: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("accepted a two-level spine (no core ports)")
		}
	}()
	NewLeafMonitor(topo, topo.Spines()[0], JobAny, nil)
}

// TestMonitorCountsCEBytes: congestion-experienced sentinel bytes count
// toward the open window at either tier, in-window and late alike —
// detect.Config.CEDiscount is a no-op on any window that misses them.
func TestMonitorCountsCEBytes(t *testing.T) {
	topo := clos3Topo(t)
	for _, tc := range []struct {
		name string
		sw   topology.SwitchID
		port int
	}{
		{"leaf spine-facing port", topo.Leaves()[0], 1},
		{"spine core-facing port", topo.Spines()[0], 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := NewLeafMonitor(topo, tc.sw, JobAny, nil)
			ce := func(size int, iter uint32) *fabric.Packet {
				p := pkt(0, size, fabric.FlowTag{Sentinel: true, Iter: iter}, fabric.Data)
				p.CE = true
				return p
			}
			m.OnPacket(1, tc.port, ce(4096, 2))
			if w := m.dx.open[0]; w.CEBytes != 4096 {
				t.Fatalf("in-window CE packet: CEBytes = %d, want 4096", w.CEBytes)
			}
			m.OnPacket(2, tc.port, ce(1000, 1)) // straggler from iteration 1
			if w := m.dx.open[0]; w.CEBytes != 5096 || w.Total() != 4096 {
				t.Fatalf("late CE packet: CEBytes = %d total = %d, want 5096 / 4096", w.CEBytes, w.Total())
			}
		})
	}
}

func TestLeafWindowDefaultKind(t *testing.T) {
	topo := clos3Topo(t)
	m := NewLeafMonitor(topo, topo.Leaves()[0], JobAny, nil)
	m.OnPacket(1, 1, pkt(0, 100, fabric.FlowTag{Sentinel: true, Iter: 1}, fabric.Data))
	if w := m.dx.open[0]; w.SwitchKind != topology.Leaf {
		t.Fatalf("leaf window kind = %v", w.SwitchKind)
	}
}
