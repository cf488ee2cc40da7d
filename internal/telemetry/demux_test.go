package telemetry

import (
	"testing"

	"flowpulse/internal/fabric"
	"flowpulse/internal/sim"
	"flowpulse/internal/topology"
)

// tp is a compact packet event for the table-driven demux tests.
type tp struct {
	at   int64
	port int
	src  topology.HostID
	size int
	job  uint16
	iter uint32
}

func feed(m *LeafMonitor, events []tp) {
	for _, e := range events {
		m.OnPacket(sim.Time(e.at), e.port,
			pkt(e.src, e.size, fabric.FlowTag{Sentinel: true, Job: e.job, Iter: e.iter}, fabric.Data))
	}
}

// TestLeafMonitorDemux is the table-driven specification of the
// per-job window demux: interleaved jobs, out-of-order iterations,
// job filter vs JobAny, and flush with several open windows.
func TestLeafMonitorDemux(t *testing.T) {
	type want struct {
		job       uint16
		iter      uint32
		total     int64
		closedAt  int64
		flushOnly bool // closed by Flush, not by a next-iteration packet
	}
	cases := []struct {
		name    string
		job     int // monitor filter
		events  []tp
		flushAt int64
		closed  []want
		late    map[uint16]int64
	}{
		{
			name: "interleaved jobs do not close each other",
			job:  JobAny,
			events: []tp{
				{at: 10, port: 1, size: 100, job: 1, iter: 1},
				{at: 20, port: 1, size: 200, job: 2, iter: 1},
				{at: 30, port: 2, size: 300, job: 1, iter: 1},
				{at: 40, port: 2, size: 400, job: 2, iter: 1},
				// Job 1 advances; job 2's window must stay open.
				{at: 50, port: 1, size: 10, job: 1, iter: 2},
				{at: 60, port: 1, size: 20, job: 2, iter: 1},
				// Job 2 advances.
				{at: 70, port: 1, size: 30, job: 2, iter: 2},
			},
			flushAt: 100,
			closed: []want{
				{job: 1, iter: 1, total: 400, closedAt: 50},
				{job: 2, iter: 1, total: 620, closedAt: 70},
				{job: 1, iter: 2, total: 10, closedAt: 100, flushOnly: true},
				{job: 2, iter: 2, total: 30, closedAt: 100, flushOnly: true},
			},
		},
		{
			name: "out-of-order iterations are late per job",
			job:  JobAny,
			events: []tp{
				{at: 10, port: 1, size: 100, job: 1, iter: 5},
				{at: 20, port: 1, size: 100, job: 2, iter: 1},
				// Late for job 1 only; job 2 is still on iter 1.
				{at: 30, port: 1, size: 77, job: 1, iter: 4},
				{at: 40, port: 1, size: 55, job: 2, iter: 1},
			},
			flushAt: 100,
			closed: []want{
				{job: 1, iter: 5, total: 100, closedAt: 100, flushOnly: true},
				{job: 2, iter: 1, total: 155, closedAt: 100, flushOnly: true},
			},
			late: map[uint16]int64{1: 77, 2: 0},
		},
		{
			name: "job filter measures one job only",
			job:  2,
			events: []tp{
				{at: 10, port: 1, size: 100, job: 1, iter: 1},
				{at: 20, port: 1, size: 200, job: 2, iter: 1},
				{at: 30, port: 1, size: 100, job: 1, iter: 2},
				{at: 40, port: 1, size: 300, job: 2, iter: 2},
			},
			flushAt: 100,
			closed: []want{
				{job: 2, iter: 1, total: 200, closedAt: 40},
				{job: 2, iter: 2, total: 300, closedAt: 100, flushOnly: true},
			},
		},
		{
			name: "flush closes multiple open windows in job order",
			job:  JobAny,
			events: []tp{
				{at: 10, port: 1, size: 1, job: 3, iter: 1},
				{at: 20, port: 1, size: 2, job: 0, iter: 1},
				{at: 30, port: 1, size: 3, job: 7, iter: 1},
			},
			flushAt: 99,
			closed: []want{
				{job: 0, iter: 1, total: 2, closedAt: 99, flushOnly: true},
				{job: 3, iter: 1, total: 1, closedAt: 99, flushOnly: true},
				{job: 7, iter: 1, total: 3, closedAt: 99, flushOnly: true},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			topo := testTopo(t)
			var closed []*Window
			m := NewLeafMonitor(topo, topo.Leaves()[0], tc.job, func(w *Window) { closed = append(closed, w) })
			feed(m, tc.events)
			m.Flush(sim.Time(tc.flushAt))
			if len(closed) != len(tc.closed) {
				t.Fatalf("closed %d windows, want %d: %+v", len(closed), len(tc.closed), closed)
			}
			for i, want := range tc.closed {
				w := closed[i]
				if w.Job != want.job || w.Iter != want.iter || w.Total() != want.total || int64(w.ClosedAt) != want.closedAt {
					t.Errorf("window %d: job=%d iter=%d total=%d closed=%d, want %+v",
						i, w.Job, w.Iter, w.Total(), w.ClosedAt, want)
				}
			}
			var late int64
			for _, bytes := range tc.late {
				late += bytes
			}
			if m.LateBytes != late {
				t.Errorf("LateBytes = %d, want %d", m.LateBytes, late)
			}
		})
	}
}

// TestInterleavedJobsRegression is the ISSUE-4 bugfix regression: two
// jobs interleaving under JobAny must produce correct per-job
// PortBytes with zero LateBytes. Under the old single-current-window
// monitor, job B's first packet closed job A's half-full window and
// job A's next packet (lower Iter than B's) was miscounted as late.
func TestInterleavedJobsRegression(t *testing.T) {
	topo := testTopo(t)
	var closed []*Window
	m := NewLeafMonitor(topo, topo.Leaves()[0], JobAny, func(w *Window) { closed = append(closed, w) })

	// Job 7 is ahead of job 1 in iteration number — the cross-job Iter
	// comparison the old monitor tripped over.
	feed(m, []tp{
		{at: 10, port: 1, size: 1000, job: 1, iter: 1},
		{at: 11, port: 1, size: 2000, job: 7, iter: 6},
		{at: 12, port: 2, size: 1000, job: 1, iter: 1}, // NOT late: job 1 is on iter 1
		{at: 13, port: 2, size: 2000, job: 7, iter: 6},
		{at: 14, port: 1, size: 500, job: 1, iter: 2},
		{at: 15, port: 1, size: 600, job: 7, iter: 7},
	})
	m.Flush(20)

	if m.LateBytes != 0 {
		t.Fatalf("LateBytes = %d, want 0 — interleaved jobs misattributed as late", m.LateBytes)
	}
	byKey := map[[2]uint32]*Window{}
	for _, w := range closed {
		byKey[[2]uint32{uint32(w.Job), w.Iter}] = w
	}
	w11 := byKey[[2]uint32{1, 1}]
	if w11 == nil || w11.PortBytes[0] != 1000 || w11.PortBytes[1] != 1000 {
		t.Fatalf("job 1 iter 1 window wrong: %+v", w11)
	}
	w76 := byKey[[2]uint32{7, 6}]
	if w76 == nil || w76.PortBytes[0] != 2000 || w76.PortBytes[1] != 2000 {
		t.Fatalf("job 7 iter 6 window wrong: %+v", w76)
	}
	if len(closed) != 4 {
		t.Fatalf("closed %d windows, want 4 (2 jobs x 2 iters)", len(closed))
	}
}

// TestSpineMonitorDemuxInterleaved covers the same demux one tier up:
// the program on a spine's core-facing ports (three-level fabrics).
func TestSpineMonitorDemuxInterleaved(t *testing.T) {
	topo := clos3Topo(t)
	var closed []*Window
	m := NewLeafMonitor(topo, topo.Spines()[0], JobAny, func(w *Window) { closed = append(closed, w) })
	core := m.upFirst
	m.OnPacket(1, core, pkt(0, 100, fabric.FlowTag{Sentinel: true, Job: 1, Iter: 1}, fabric.Data))
	m.OnPacket(2, core, pkt(0, 200, fabric.FlowTag{Sentinel: true, Job: 2, Iter: 3}, fabric.Data))
	m.OnPacket(3, core, pkt(0, 50, fabric.FlowTag{Sentinel: true, Job: 1, Iter: 1}, fabric.Data))
	if m.LateBytes != 0 {
		t.Fatalf("spine LateBytes = %d, want 0", m.LateBytes)
	}
	m.Flush(10)
	if len(closed) != 2 || closed[0].Job != 1 || closed[0].Total() != 150 ||
		closed[1].Job != 2 || closed[1].Total() != 200 {
		t.Fatalf("spine demux windows: %+v", closed)
	}
}

// TestSharedTapSteadyStateAllocsZero is the shared plane's alloc gate:
// once every job's window is open, a demuxing tap must account an
// interleaved multi-job packet stream without heap allocations — the
// property that lets N jobs ride the fabric's zero-allocation
// forwarding path on ONE tap per switch. (Window open/close may
// allocate; that is boundary work, two per job per iteration.)
func TestSharedTapSteadyStateAllocsZero(t *testing.T) {
	topo := testTopo(t)
	m := NewLeafMonitor(topo, topo.Leaves()[0], JobAny, func(w *Window) {})
	const jobs = 4
	pkts := make([]*fabric.Packet, jobs)
	for j := range pkts {
		pkts[j] = pkt(topo.HostsOf(topo.Leaves()[1])[0], 4096,
			fabric.FlowTag{Sentinel: true, Job: uint16(j + 1), Iter: 1}, fabric.Data)
	}
	hostPorts := len(topo.HostsOf(topo.Leaves()[0]))
	uplinks := m.uplinks
	for i, p := range pkts { // open every job's window
		m.OnPacket(sim.Time(i), hostPorts+i%uplinks, p)
	}
	i := 0
	avg := testing.AllocsPerRun(200, func() {
		i++
		m.OnPacket(sim.Time(i), hostPorts+i%uplinks, pkts[i%jobs])
	})
	if avg != 0 {
		t.Fatalf("steady-state shared tap allocates %.2f per packet, want 0", avg)
	}
}
