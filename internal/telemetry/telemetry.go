// Package telemetry implements the in-switch measurement program of
// §5.1: every monitored switch counts, per ingress port facing the tier
// above it (a leaf's spine-facing ports; in a three-level Clos, §7
// "Network Topology", also a spine's core-facing ports), the bytes of
// sentinel-tagged collective packets, closing a job's per-iteration
// window when the first packet of that job's next iteration appears. The window-close rule makes the measurement
// oblivious to stragglers: synchronous data-parallel training
// guarantees iteration k's traffic has fully drained before any node
// starts k+1. Monitors demultiplex per job id, so one tap per switch
// measures every concurrent training job (§7 "Parallel Jobs").
//
// Monitors also keep a per-(port, source-leaf) byte matrix — the
// information Fig. 4's localization compares across senders.
package telemetry

import (
	"fmt"

	"flowpulse/internal/fabric"
	"flowpulse/internal/sim"
	"flowpulse/internal/topology"
)

// Window is one closed measurement interval: the traffic of one
// collective iteration as seen by one switch.
type Window struct {
	// Leaf is the observing switch, LeafOrdinal its ordinal within its
	// tier and SwitchKind that tier (zero value: topology.Leaf). The
	// first two are named for the tier the program was written for: a
	// spine's window carries the spine's id and spine ordinal in them.
	Leaf        topology.SwitchID
	LeafOrdinal int
	SwitchKind  topology.SwitchKind
	// Job and Iter identify the collective iteration measured.
	Job  uint16
	Iter uint32
	// PortBytes[u] is the tagged byte count on uplink ingress port u
	// (uplink index = switch port - first up-facing port; one entry per
	// upper-tier switch × trunk).
	PortBytes []int64
	// SenderBytes[u][l] is the tagged byte count on uplink u from
	// packets whose source host sits under leaf ordinal l.
	SenderBytes [][]int64
	// Packets is the tagged packet count across all uplinks.
	Packets int64
	// CEBytes is the tagged byte count that arrived with the ECN
	// congestion-experienced codepoint set while this window was open
	// — the fabric's own signal that queue build-up, not loss, shaped
	// the traffic. Late stragglers from earlier iterations count too:
	// a marked packet that missed its own window is precisely the
	// delayed-not-lost evidence that distinguishes congestion from a
	// silent fault, and it can only ever surface in the successor
	// window (its own closed before the queue drained). CEBytes may
	// therefore exceed Total. Zero unless the fabric runs with ECN
	// marking enabled.
	CEBytes int64
	// AggPortBytes[u] is the ALL-jobs sentinel byte count on uplink u
	// over this window's interval, filled at close. Per-job spray
	// shares comb under adaptive spraying when several jobs share a
	// leaf's uplinks — only the aggregate keeps the paper's per-port
	// symmetry — so the shared monitoring plane (§7 "Parallel Jobs")
	// detects on this view. Equal to PortBytes when the window's job
	// is the only sentinel traffic.
	AggPortBytes []int64
	// OpenedAt and ClosedAt bound the window in simulation time.
	OpenedAt, ClosedAt sim.Time

	// aggOpen snapshots the monitor's cumulative per-port counters at
	// open; closeJob turns it into AggPortBytes.
	aggOpen []int64
}

// Total returns the window's byte sum across uplink ports.
func (w *Window) Total() int64 {
	var sum int64
	for _, b := range w.PortBytes {
		sum += b
	}
	return sum
}

// Clone deep-copies the window. The sender matrix is backed by one
// array (one allocation instead of one per uplink); each row is cut
// with cap == len, so appending to a row reallocates instead of
// running into the next. PortBytes and AggPortBytes stay slices of
// their own: folded into the same block, a 32×16 window would cross
// into the next allocator size class and cost more memory, not less.
func (w *Window) Clone() *Window {
	cp := *w
	cp.PortBytes = append([]int64(nil), w.PortBytes...)
	cells := 0
	for _, row := range w.SenderBytes {
		cells += len(row)
	}
	flat := make([]int64, cells)
	cp.SenderBytes = make([][]int64, len(w.SenderBytes))
	for i, row := range w.SenderBytes {
		cp.SenderBytes[i], flat = cutRow(flat, row)
	}
	if w.AggPortBytes != nil {
		cp.AggPortBytes = append([]int64(nil), w.AggPortBytes...)
	}
	cp.aggOpen = nil
	return &cp
}

// CompactInto copies the window into dst the way a score history keeps
// it: every key field (switch, tier, job, iteration, packet and CE
// counts, open and close times) and the PortBytes and AggPortBytes
// rows, but no sender matrix (dst.SenderBytes is nil). The rows are cut
// from the front of slab, which must hold len(PortBytes) +
// len(AggPortBytes) values, with cap == len as Clone cuts its sender
// rows; the unused rest of slab is returned. dst shares no storage with
// w, and an empty row copies to nil, as it clones to nil.
func (w *Window) CompactInto(dst *Window, slab []int64) []int64 {
	*dst = *w
	dst.SenderBytes, dst.aggOpen = nil, nil
	dst.PortBytes, slab = cutRow(slab, w.PortBytes)
	dst.AggPortBytes, slab = cutRow(slab, w.AggPortBytes)
	return slab
}

// cutRow copies src into the front of buf and returns that row (cap ==
// len, so appending to it reallocates instead of running into the next
// row) and the rest of buf. An empty src yields a nil row.
func cutRow(buf, src []int64) (row, rest []int64) {
	if len(src) == 0 {
		return nil, buf
	}
	n := len(src)
	row = buf[:n:n]
	copy(row, src)
	return row, buf[n:]
}

// LeafMonitor is the switch program, one per monitored switch: a leaf,
// or — the same program one tier up — a spine of a three-level fabric
// (the type is named for the tier it was written for). It must be
// registered as the switch's fabric ingress hook.
type LeafMonitor struct {
	topo    *topology.Topology
	sw      topology.SwitchID
	ordinal int
	kind    topology.SwitchKind
	// upFirst is the first port facing the tier above. Both port
	// layouts (topology.NewFatTree, topology.NewClos3) put those ports
	// last, so the dataplane test is one compare and the uplink index
	// one subtraction.
	upFirst int
	uplinks int

	// Job filters measurements to one training job; JobAny measures
	// every sentinel-tagged packet, demultiplexed into per-job windows.
	job int

	dx demux

	// LateBytes counts tagged bytes that arrived for an iteration
	// older than their own job's open window (should stay zero in
	// synchronous training; nonzero values indicate a workload
	// violating the §5.1 assumptions).
	LateBytes int64

	onClose func(w *Window)

	srcLeafOrd []int // host -> leaf ordinal, precomputed

	// aggCum is the cumulative ALL-jobs sentinel byte count per
	// uplink; window open/close snapshots turn it into AggPortBytes.
	aggCum []int64
}

// JobAny disables job filtering.
const JobAny = -1

// NewLeafMonitor builds the monitor for one leaf or (three-level
// fabrics) spine. onClose receives every completed window (the
// detector attaches here). job restricts measurement to one job id, or
// JobAny.
func NewLeafMonitor(topo *topology.Topology, sw topology.SwitchID, job int, onClose func(w *Window)) *LeafMonitor {
	d := topo.Switch(sw)
	up := len(d.Ports)
	for up > 0 {
		peer := d.Ports[up-1].Peer
		if peer.Kind != topology.SwitchEnd || topo.Switch(peer.Switch).Kind <= d.Kind {
			break
		}
		up--
	}
	if up == len(d.Ports) {
		// A core, or the spine of a two-level fabric.
		panic(fmt.Sprintf("telemetry: %s switch %d has no ports facing a tier above it", d.Kind, sw))
	}
	uplinks := len(d.Ports) - up
	m := &LeafMonitor{
		topo:       topo,
		sw:         sw,
		kind:       d.Kind,
		upFirst:    up,
		uplinks:    uplinks,
		job:        job,
		dx:         newDemux(),
		onClose:    onClose,
		srcLeafOrd: make([]int, len(topo.Hosts)),
		aggCum:     make([]int64, uplinks),
	}
	if d.Kind == topology.Leaf {
		m.ordinal = topo.LeafOrdinal(sw)
	} else {
		m.ordinal = topo.SpineOrdinal(sw)
	}
	for h := range topo.Hosts {
		m.srcLeafOrd[h] = topo.LeafOrdinal(topo.LeafOf(topology.HostID(h)))
	}
	return m
}

// OnPacket is the switch dataplane hook. It must see every packet
// accepted at the switch's ingress.
func (m *LeafMonitor) OnPacket(now sim.Time, port int, pkt *fabric.Packet) {
	// The measured quantity is downstream traffic arriving from the
	// tier above: only uplink ports, only tagged data packets.
	if port < m.upFirst {
		return
	}
	if pkt.Kind != fabric.Data || !pkt.Tag.Sentinel {
		return
	}
	u := port - m.upFirst
	// The aggregate counter sees every sentinel packet, even under a
	// job filter: it is the fabric-level symmetry view. It is bumped
	// after any window close/open this packet triggers, so a window's
	// aggregate delta covers exactly the packets between its own
	// boundary packets (AggPortBytes == PortBytes for a lone job).
	if m.job != JobAny && int(pkt.Tag.Job) != m.job {
		m.aggCum[u] += int64(pkt.Size)
		return
	}

	w := m.dx.lookup(pkt.Tag.Job)
	switch {
	case w == nil:
		w = m.open(now, pkt.Tag)
	case pkt.Tag.Iter > w.Iter:
		// First packet of this job's next iteration: the previous
		// collective is complete by construction; close and report it.
		m.closeJob(now, pkt.Tag.Job)
		w = m.open(now, pkt.Tag)
	case pkt.Tag.Iter < w.Iter:
		m.LateBytes += int64(pkt.Size)
		m.aggCum[u] += int64(pkt.Size)
		if pkt.CE {
			w.CEBytes += int64(pkt.Size)
		}
		return
	}

	m.aggCum[u] += int64(pkt.Size)
	w.PortBytes[u] += int64(pkt.Size)
	w.SenderBytes[u][m.srcLeafOrd[pkt.Src]] += int64(pkt.Size)
	w.Packets++
	if pkt.CE {
		w.CEBytes += int64(pkt.Size)
	}
}

func (m *LeafMonitor) open(now sim.Time, tag fabric.FlowTag) *Window {
	w := &Window{
		Leaf:        m.sw,
		LeafOrdinal: m.ordinal,
		SwitchKind:  m.kind,
		Job:         tag.Job,
		Iter:        tag.Iter,
		PortBytes:   make([]int64, m.uplinks),
		SenderBytes: make([][]int64, m.uplinks),
		OpenedAt:    now,
		aggOpen:     append([]int64(nil), m.aggCum...),
	}
	for i := range w.SenderBytes {
		w.SenderBytes[i] = make([]int64, len(m.topo.Leaves()))
	}
	m.dx.put(w)
	return w
}

func (m *LeafMonitor) closeJob(now sim.Time, job uint16) {
	w := m.dx.take(job)
	if w == nil {
		return
	}
	w.ClosedAt = now
	w.AggPortBytes = make([]int64, len(m.aggCum))
	for i := range m.aggCum {
		w.AggPortBytes[i] = m.aggCum[i] - w.aggOpen[i]
	}
	w.aggOpen = nil
	if m.onClose != nil {
		m.onClose(w)
	}
}

// Flush closes every open window, in ascending job order — the
// end-of-training path, where no next iteration will ever arrive to
// close them.
func (m *LeafMonitor) Flush(now sim.Time) { m.dx.flush(now, m.closeJob) }

// Collector attaches a LeafMonitor to every monitored switch of a
// network and funnels closed windows to one callback. There is
// deliberately no cross-switch state: each monitor is autonomous (§5,
// "in-switch, coordination-free").
type Collector struct {
	// Monitors lists the leaves' monitors by leaf ordinal, then — on a
	// three-level fabric — the spines' by spine ordinal.
	Monitors []*LeafMonitor
}

// AttachAll registers a monitor on every switch with ports facing a
// tier above it: all leaves, then the spines of a three-level fabric.
// onWindow receives every closed window from every monitor
// (Window.SwitchKind tells the tiers apart). Monitors attach via
// AddIngressHook, so several collectors (or other observers) compose
// on one fabric.
//
// On a sharded network each monitor runs inside its switch's domain
// while onWindow is invoked on the control engine; see controlSink.
func AttachAll(net *fabric.Network, job int, onWindow func(w *Window)) *Collector {
	topo := net.Topology()
	monitored := append([]topology.SwitchID(nil), topo.Leaves()...)
	if len(topo.Cores()) > 0 {
		monitored = append(monitored, topo.Spines()...)
	}
	c := &Collector{Monitors: make([]*LeafMonitor, len(monitored))}
	for i, sw := range monitored {
		m := NewLeafMonitor(topo, sw, job, controlSink(net, sw, onWindow))
		c.Monitors[i] = m
		net.AddIngressHook(sw, m.OnPacket)
	}
	return c
}

// controlSink hands a monitor's closed windows to their consumer.
// Monitors close windows inside the domain that owns their switch, but
// the consumers (detector pipelines, collectors, trace recorders) are
// shared across switches and live on the control engine. The hand-off
// is fabric.Network.Call's: inline within a domain and for flushes
// after the run has drained, otherwise a post the barrier gives its
// happens-before — it carries the *Window exclusively (the monitor
// drops its reference at close), and posts from distinct switches in
// one window drain in canonical (time, domain, emission) order, so
// delivery order does not depend on the worker count.
func controlSink(net *fabric.Network, sw topology.SwitchID, onWindow func(w *Window)) func(w *Window) {
	if onWindow == nil {
		return nil
	}
	dom := net.DomainOfSwitch(sw)
	return func(w *Window) {
		net.Call(dom, 0, func(sim.Time) { onWindow(w) })
	}
}

// FlushAll closes every monitor's open window.
func (c *Collector) FlushAll(now sim.Time) {
	for _, m := range c.Monitors {
		m.Flush(now)
	}
}
