// Package transport implements the paper's end-host transport (§6): a
// RoCE-like message transport tolerant to per-packet reordering (APS
// delivers wildly out of order), with per-packet acknowledgements, a
// retransmission timeout (5 µs in the paper) as the only loss-recovery
// mechanism, and no congestion control — losslessness is the fabric's
// job (PFC), and collectives are congestion-aware by construction.
//
// Retransmitted packets re-enter the spray pipeline and are load-
// balanced independently of the original, which is what redistributes
// a faulty link's deficit across the healthy ports — the second-order
// signal FlowPulse's detector sees.
package transport

import (
	"fmt"

	"flowpulse/internal/fabric"
	"flowpulse/internal/sim"
	"flowpulse/internal/topology"
)

// ackBytes is the wire size of an acknowledgement.
const ackBytes = 64

// Config parameterizes a Stack.
type Config struct {
	// MTU is the payload bytes per data packet. Defaults to 4096.
	MTU int
	// HeaderBytes is the per-packet wire overhead. Defaults to 64.
	HeaderBytes int
	// RTO is the minimum retransmission timeout, measured from the
	// instant a packet leaves the NIC. Defaults to 5 µs (§6). Unless
	// FixedRTO is set, an SRTT+4·RTTVAR estimator (per src-dst pair,
	// like a RoCE queue pair; Karn-sampled) raises the effective
	// timeout above this floor when measured round-trip times demand
	// it — with a hard 5 µs timeout, any queue spike beyond the RTT
	// headroom triggers spurious retransmissions that amplify the
	// spike.
	RTO sim.Duration
	// FixedRTO disables the RTT estimator (ablation: the paper's
	// constant timeout).
	FixedRTO bool
	// MaxRetries bounds retransmissions per packet; beyond it the
	// packet is abandoned and the message never completes (the
	// application-visible hang a persistent black hole causes).
	// Defaults to 64.
	MaxRetries int
	// DisableBackoff turns off exponential RTO backoff. With a fixed
	// RTO, a transient queue spike that pushes RTT past the RTO makes
	// every outstanding packet retransmit at once, which deepens the
	// spike — a retransmission meltdown. Backoff (RTO doubling per
	// retry, capped at 64x) breaks the feedback loop; disabling it
	// exists for ablation.
	DisableBackoff bool
	// PairBackoff extends RTO backoff from per-packet to per-pair (the
	// TCP discipline: timer backoff is connection state, cleared by the
	// next unambiguous sample). Without it, a routing change that
	// lengthens a pair's RTT past its learned RTO — a quarantine
	// funneling the pair onto one congested path — is a stable
	// meltdown: every packet is retransmitted at least once, so Karn's
	// rule starves the estimator of samples and the RTO never rises;
	// each NEW packet restarts from the stale timeout no matter how
	// high its predecessors backed off. Per-pair backoff lets new
	// packets inherit the pair's backoff, their first copies then
	// survive to a clean ACK, and the estimator re-learns the path.
	// Off by default to keep historical runs byte-identical; the
	// resilience loop enables it (re-plans migrate paths mid-job).
	PairBackoff bool
	// TimestampRTT samples RTT from a wire-out timestamp echoed in
	// every ACK (the TCP-timestamps discipline) instead of Karn's
	// rule. Karn's sampling is systematically biased under congestion:
	// a packet whose RTT exceeded the RTO was retransmitted, so its
	// sample is discarded — the estimator only ever sees uncongested
	// round trips and re-arms the same too-short timeout at the head
	// of every collective burst. The echo removes the retransmission
	// ambiguity, so congested round trips feed the estimator too. Off
	// by default for byte-identity with historical runs; enabled with
	// PairBackoff by the resilience loop.
	TimestampRTT bool
	// DCQCN enables the per-pair ECN-reacting rate limiter (dcqcn.go). It
	// only has an effect when the fabric marks CE (fabric.Config.ECN);
	// disabled by default for byte-identity with historical runs.
	DCQCN bool
}

func (c *Config) setDefaults() {
	if c.MTU == 0 {
		c.MTU = 4096
	}
	if c.HeaderBytes == 0 {
		c.HeaderBytes = 64
	}
	if c.RTO == 0 {
		c.RTO = 5 * sim.Microsecond
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 64
	}
}

// Stats counts transport-level events across all hosts.
type Stats struct {
	// MessagesSent counts messages submitted.
	MessagesSent uint64
	// MessagesDelivered counts messages fully received.
	MessagesDelivered uint64
	// DataPacketsSent counts first transmissions.
	DataPacketsSent uint64
	// Retransmits counts RTO-triggered retransmissions.
	Retransmits uint64
	// SpuriousRetransmits counts retransmissions of packets that had
	// in fact arrived (late ACK).
	SpuriousRetransmits uint64
	// DuplicatesReceived counts data packets discarded by receiver
	// dedup.
	DuplicatesReceived uint64
	// AcksSent counts acknowledgements transmitted.
	AcksSent uint64
	// Abandoned counts packets dropped after MaxRetries.
	Abandoned uint64
	// RateCuts counts DCQCN multiplicative rate cuts (0 unless
	// Config.DCQCN is enabled and the fabric marked CE).
	RateCuts uint64
}

// Message is a one-way bulk transfer between two hosts.
type Message struct {
	// Src and Dst are the endpoints.
	Src, Dst topology.HostID
	// Bytes is the payload length.
	Bytes int
	// Priority is the fabric traffic class (High for measured
	// collectives).
	Priority fabric.Priority
	// Tag is the FlowPulse collective marking carried by every data
	// packet.
	Tag fabric.FlowTag
	// Value is an application checksum (the collective layer uses it
	// to verify reduction semantics end to end).
	Value float64
	// OnDelivered fires at the receiver when every payload byte has
	// arrived (out-of-order tolerant: arrival order is irrelevant).
	OnDelivered func(now sim.Time, m *Message)
	// OnAcked fires at the sender when every packet has been
	// acknowledged.
	OnAcked func(now sim.Time, m *Message)

	id      uint64
	packets int
}

// ID returns the message's transport identifier (valid after Send).
func (m *Message) ID() uint64 { return m.id }

// sendState tracks one in-flight message at the sender. Loss recovery
// is NIC-style: instead of one scheduled closure per outstanding
// packet, the state keeps a per-sequence deadline and a single engine
// timer armed at the earliest one. ACKs clear their
// deadline lazily (no timer surgery); a fire that finds nothing
// expired simply rearms at the new minimum. sendState implements
// sim.Timer, so rearming never allocates.
type sendState struct {
	s        *Stack
	eng      *sim.Engine // the source host's engine
	msg      *Message
	pkt      []pktState // per seq: one allocation for the whole message
	nAcked   int
	finished bool

	timer   sim.EventRef // the message's single RTO timer
	timerAt sim.Time     // instant timer is armed for
}

// pktState is the sender's state of one packet of a message.
type pktState struct {
	deadline sim.Time // Never when no RTO outstanding
	wireOut  sim.Time
	retries  int32
	acked    bool
}

// armAt ensures the message timer fires no later than d.
func (st *sendState) armAt(d sim.Time) {
	if d == sim.Never {
		return
	}
	if st.timer.Valid() {
		if st.timerAt <= d {
			return
		}
		st.eng.Cancel(st.timer)
	}
	st.timer = st.eng.AtTimer(d, st)
	st.timerAt = d
}

// Fire handles RTO expiry: retransmit every sequence whose deadline
// passed, then rearm at the new earliest deadline (if any).
func (st *sendState) Fire(now sim.Time) {
	st.timer = sim.EventRef{}
	if st.finished {
		return
	}
	for seq := range st.pkt {
		if p := &st.pkt[seq]; p.deadline <= now && !p.acked {
			// Clear before retransmitting: the retransmission's own
			// wire-out re-arms this sequence with a fresh deadline.
			p.deadline = sim.Never
			st.s.onTimeout(st, seq, now)
		}
	}
	min := sim.Never
	for i := range st.pkt {
		if d := st.pkt[i].deadline; d < min {
			min = d
		}
	}
	st.armAt(min)
}

type recvState struct {
	msg  *Message
	got  []bool
	nGot int
}

// rttEstimator is the standard SRTT/RTTVAR filter (RFC 6298 style),
// plus the pair's timer-backoff exponent (used only under PairBackoff:
// bumped on every timeout, cleared by the next Karn-unambiguous ACK).
type rttEstimator struct {
	srtt, rttvar float64
	valid        bool
	backoff      int
}

func (e *rttEstimator) observe(rtt float64) {
	if !e.valid {
		e.srtt, e.rttvar, e.valid = rtt, rtt/2, true
		return
	}
	const alpha, beta = 0.125, 0.25
	d := e.srtt - rtt
	if d < 0 {
		d = -d
	}
	e.rttvar = (1-beta)*e.rttvar + beta*d
	e.srtt = (1-alpha)*e.srtt + alpha*rtt
}

// rto computes the pair's retransmission timeout. With tailMargin the
// smoothed term is doubled: RTO is this transport's only loss-recovery
// mechanism, and near a saturated queue the RTT distribution grows a
// bursty tail that RTTVAR — tracking the mostly-smooth bulk, decayed
// by every quiet sample — systematically underestimates (TCP's answer
// is the same shape: a minimum variance term so the timer never
// converges onto the mean). The margin scales with the path's queue
// depth instead of a fixed constant.
func (e *rttEstimator) rto(floor sim.Duration, tailMargin bool) sim.Duration {
	if !e.valid {
		return floor
	}
	srtt := e.srtt
	if tailMargin {
		srtt *= 2
	}
	if est := sim.Duration(srtt + 4*e.rttvar); est > floor {
		return est
	}
	return floor
}

// hostTP is one host's slice of the transport: its in-flight maps and
// counters, touched only by events on the host's domain engine.
type hostTP struct {
	eng     *sim.Engine
	nextSeq uint64 // per-source message numbering (see Stack.Send)
	sends   map[uint64]*sendState
	recvs   map[uint64]*recvState
	// recvDone tombstones completed receptions: straggler duplicates
	// still get an ACK (the original ACK may be lost) without
	// recreating state or re-firing OnDelivered. Who reaps a tombstone
	// depends on the partition; see onData.
	recvDone map[uint64]bool
	stats    Stats
}

// Stack is the transport layer over one fabric. Every host's state
// lives on the host's domain engine.
type Stack struct {
	cfg Config
	net *fabric.Network
	eng *sim.Engine // the fabric's control engine

	nextID uint64 // stack-wide message numbering (see Send)
	hosts  []hostTP

	rtts   []rttEstimator // per (src, dst) pair, src*nHosts+dst; only src-side events touch a row
	pacers []*dcqcnState  // per pair like rtts; nil unless Config.DCQCN is enabled
	nHosts int
}

// NewStack attaches a transport to every host of the network. It takes
// over the hosts' receive and NIC-dequeue hooks.
func NewStack(net *fabric.Network, cfg Config) *Stack {
	cfg.setDefaults()
	n := len(net.Topology().Hosts)
	s := &Stack{
		cfg:    cfg,
		net:    net,
		eng:    net.Engine(),
		hosts:  make([]hostTP, n),
		rtts:   make([]rttEstimator, n*n),
		nHosts: n,
	}
	if cfg.DCQCN {
		s.pacers = make([]*dcqcnState, s.nHosts*s.nHosts)
	}
	for h := range s.hosts {
		host := topology.HostID(h)
		s.hosts[h] = hostTP{
			eng:      net.EngineOf(host),
			sends:    make(map[uint64]*sendState),
			recvs:    make(map[uint64]*recvState),
			recvDone: make(map[uint64]bool),
		}
		net.SetReceiver(host, s.onReceive)
		net.SetDequeueHook(host, s.onWireOut)
	}
	return s
}

// EnableMigrationHardening switches on the two loss-recovery
// disciplines a path-migrating workload needs — per-pair RTO backoff
// and timestamp-echo RTT sampling (see Config.PairBackoff and
// Config.TimestampRTT) — on an already-built stack. The resilience
// loop calls it at attach time, before any traffic; calling it mid-run
// is not supported (hosts read cfg unsynchronized).
func (s *Stack) EnableMigrationHardening() {
	s.cfg.PairBackoff = true
	s.cfg.TimestampRTT = true
}

// Engine returns the control engine of this stack's network.
func (s *Stack) Engine() *sim.Engine { return s.eng }

// Network returns the fabric beneath this stack.
func (s *Stack) Network() *fabric.Network { return s.net }

// Stats returns a snapshot of the transport counters, summed over
// hosts. Do not call concurrently with a running group window.
func (s *Stack) Stats() Stats {
	var t Stats
	for h := range s.hosts {
		st := &s.hosts[h].stats
		t.MessagesSent += st.MessagesSent
		t.MessagesDelivered += st.MessagesDelivered
		t.DataPacketsSent += st.DataPacketsSent
		t.Retransmits += st.Retransmits
		t.SpuriousRetransmits += st.SpuriousRetransmits
		t.DuplicatesReceived += st.DuplicatesReceived
		t.AcksSent += st.AcksSent
		t.Abandoned += st.Abandoned
		t.RateCuts += st.RateCuts
	}
	return t
}

// PacketsFor returns the number of data packets a payload of the given
// size occupies under this stack's MTU.
func (s *Stack) PacketsFor(bytes int) int {
	return (bytes + s.cfg.MTU - 1) / s.cfg.MTU
}

// WireBytesFor returns the total wire bytes (headers included) of a
// payload of the given size, excluding retransmissions and ACKs. The
// load predictors use this to convert demand to expected port volume.
func (s *Stack) WireBytesFor(bytes int) int64 {
	return int64(bytes) + int64(s.PacketsFor(bytes))*int64(s.cfg.HeaderBytes)
}

// Send submits a message. All packets enter the source NIC queue
// immediately (no congestion window); the NIC drains them at line
// rate, and each packet's RTO starts when it leaves the NIC.
func (s *Stack) Send(m *Message) uint64 {
	if m.Bytes <= 0 {
		panic(fmt.Sprintf("transport: message of %d bytes", m.Bytes))
	}
	if m.Src == m.Dst {
		panic("transport: loopback messages are not modeled")
	}
	h := &s.hosts[m.Src]
	// Contract decision 1, the message-id scheme. Ids feed the spray flow
	// key, so each scheme draws its own (internally deterministic) spray
	// sequence — DESIGN.md decision 12. Several domains number per source,
	// host-unique without shared state; one domain keeps the stack-wide
	// counter its fingerprints were recorded with, which several cannot
	// reproduce without serializing every Send.
	if s.net.Domains() > 1 {
		h.nextSeq++
		m.id = (uint64(m.Src)+1)<<40 | h.nextSeq
	} else {
		s.nextID++
		m.id = s.nextID
	}
	m.packets = s.PacketsFor(m.Bytes)

	st := &sendState{s: s, eng: h.eng, msg: m, pkt: make([]pktState, m.packets)}
	for i := range st.pkt {
		st.pkt[i].deadline = sim.Never
	}
	h.sends[m.id] = st
	h.stats.MessagesSent++

	if s.pacers != nil {
		// DCQCN: first transmissions flow through the pair's pacer at
		// its current rate instead of flooding the NIC queue.
		s.pacerEnqueue(st)
	} else {
		for seq := 0; seq < m.packets; seq++ {
			s.sendData(st, seq, false)
		}
	}
	return m.id
}

func (s *Stack) payloadBytes(m *Message, seq int) int {
	if seq == m.packets-1 {
		return m.Bytes - s.cfg.MTU*(m.packets-1)
	}
	return s.cfg.MTU
}

func (s *Stack) sendData(st *sendState, seq int, retx bool) {
	m := st.msg
	if retx {
		s.hosts[m.Src].stats.Retransmits++
	} else {
		s.hosts[m.Src].stats.DataPacketsSent++
	}
	s.net.Send(fabric.SendSpec{
		Src:      m.Src,
		Dst:      m.Dst,
		Size:     s.payloadBytes(m, seq) + s.cfg.HeaderBytes,
		Priority: m.Priority,
		Kind:     fabric.Data,
		Tag:      m.Tag,
		Msg:      m.id,
		Seq:      seq,
		Retx:     retx,
		// The message rides along so the receiver can build its state
		// without reaching into the sender's domain. Immutable
		// once the first packet is on the wire.
		Ctx: m,
	})
}

// onWireOut starts a packet's RTO when the NIC puts it on the wire.
func (s *Stack) onWireOut(now sim.Time, p *fabric.Packet) {
	if p.Kind != fabric.Data {
		return
	}
	// Stamp this copy's wire-out instant; the receiver echoes it in
	// the ACK (see Config.TimestampRTT).
	p.Stamp = now
	st := s.hosts[p.Src].sends[p.Msg]
	if st == nil {
		return
	}
	pk := &st.pkt[p.Seq]
	if pk.acked {
		return
	}
	pk.wireOut = now
	pair := &s.rtts[int(st.msg.Src)*s.nHosts+int(st.msg.Dst)]
	rto := s.cfg.RTO
	if !s.cfg.FixedRTO {
		rto = pair.rto(s.cfg.RTO, s.cfg.TimestampRTT)
	}
	if !s.cfg.DisableBackoff {
		shift := int(pk.retries)
		if s.cfg.PairBackoff && pair.backoff > shift {
			shift = pair.backoff
		}
		if shift > 6 {
			shift = 6
		}
		rto <<= shift
	}
	pk.deadline = now.Add(rto)
	st.armAt(pk.deadline)
}

func (s *Stack) onTimeout(st *sendState, seq int, _ sim.Time) {
	pk := &st.pkt[seq]
	if pk.acked || st.finished {
		return
	}
	if int(pk.retries) >= s.cfg.MaxRetries {
		s.hosts[st.msg.Src].stats.Abandoned++
		return
	}
	pk.retries++
	if s.cfg.PairBackoff {
		if pair := &s.rtts[int(st.msg.Src)*s.nHosts+int(st.msg.Dst)]; pair.backoff < 6 {
			pair.backoff++
		}
	}
	if DebugTimeout != nil {
		pair := s.rtts[int(st.msg.Src)*s.nHosts+int(st.msg.Dst)]
		DebugTimeout(st.eng.Now(), st.msg.Src, st.msg.Dst, seq, int(pk.retries), pair.backoff, pair.srtt, pair.rttvar)
	}
	if DebugRetx != nil {
		DebugRetx(st.eng.Now(), st.msg.ID(), seq, int(pk.retries))
	}
	s.sendData(st, seq, true)
}

func (s *Stack) onReceive(now sim.Time, p *fabric.Packet) {
	switch p.Kind {
	case fabric.Data:
		s.onData(now, p)
	case fabric.Ack:
		s.onAck(now, p)
	}
}

// onData runs on the destination host's engine and touches only that
// host's state: message metadata comes from the packet's Ctx, and a
// reception is tombstoned when its last payload byte lands.
func (s *Stack) onData(now sim.Time, p *fabric.Packet) {
	h := &s.hosts[p.Dst]
	st := h.recvs[p.Msg]
	if st == nil {
		if h.recvDone[p.Msg] {
			// Straggler duplicate of a fully received message: ACK it
			// again (the copy that completed the message may have been
			// a retransmit whose original ACK was lost).
			h.stats.DuplicatesReceived++
			h.stats.AcksSent++
			s.sendAck(p)
			return
		}
		// Contract decision 2, who reaps a tombstone. On one domain the
		// sender's final ACK does (onAck), and a straggler that arrives
		// after it — no tombstone, no send state — is dropped silently.
		// Several domains cannot: that would mutate another domain's map.
		// There the tombstone stays and stragglers are re-ACKed above.
		if s.net.Domains() == 1 && s.hosts[p.Src].sends[p.Msg] == nil {
			return
		}
		msg, _ := p.Ctx.(*Message)
		if msg == nil {
			return
		}
		st = &recvState{msg: msg, got: make([]bool, msg.packets)}
		h.recvs[p.Msg] = st
	}
	fresh := !st.got[p.Seq]
	if fresh {
		st.got[p.Seq] = true
		st.nGot++
	} else {
		h.stats.DuplicatesReceived++
	}
	// Always acknowledge, even duplicates: the original ACK may have
	// been lost, and an unacked sender retransmits forever.
	h.stats.AcksSent++
	s.sendAck(p)
	if fresh && st.nGot == st.msg.packets {
		h.stats.MessagesDelivered++
		if st.msg.OnDelivered != nil {
			st.msg.OnDelivered(now, st.msg)
		}
		delete(h.recvs, p.Msg)
		h.recvDone[p.Msg] = true
	}
}

// sendAck acknowledges one data packet back to its source.
func (s *Stack) sendAck(p *fabric.Packet) {
	s.net.Send(fabric.SendSpec{
		Src:      p.Dst,
		Dst:      p.Src,
		Size:     ackBytes,
		Priority: fabric.Ctrl,
		Kind:     fabric.Ack,
		Tag:      fabric.FlowTag{}, // ACKs are never part of the measured collective
		Msg:      p.Msg,
		Seq:      p.Seq,
		CE:       p.CE,    // ECN echo: the sender's DCQCN reacts to it
		Stamp:    p.Stamp, // timestamp echo: which copy, sent when
	})
}

func (s *Stack) onAck(now sim.Time, p *fabric.Packet) {
	if s.pacers != nil && p.CE {
		// A CE-echoed ACK is a congestion notification whether or not
		// the send state still exists (late ACKs of reaped messages
		// still describe real queue buildup on the pair's path).
		s.onCongestionNotification(now, p)
	}
	// ACKs arrive at the message's source host, which owns the send
	// state.
	sends := s.hosts[p.Dst].sends
	st := sends[p.Msg]
	if st == nil || st.finished {
		return
	}
	pk := &st.pkt[p.Seq]
	if pk.acked {
		return
	}
	if DebugAck != nil {
		DebugAck(now, p.Msg, p.Seq, now.Sub(pk.wireOut))
	}
	// RTT sampling. Every sample also decays the pair's timer backoff
	// — by one step, not to zero: a collective re-bursts every
	// iteration, and a backoff cleared outright by the quiet tail of
	// one burst would melt down again at the head of the next.
	pair := &s.rtts[int(st.msg.Src)*s.nHosts+int(st.msg.Dst)]
	switch {
	case s.cfg.TimestampRTT && p.Stamp > 0:
		// Timestamp echo: the ACK names the copy it acknowledges and
		// that copy's wire-out instant, so even a retransmitted packet
		// yields an unambiguous — and, crucially, possibly congested —
		// RTT sample.
		if !s.cfg.FixedRTO {
			pair.observe(float64(now.Sub(p.Stamp)))
		}
		if pair.backoff > 0 {
			pair.backoff--
		}
	case pk.retries == 0:
		// Karn's rule: only unambiguous (never-retransmitted) packets
		// feed the RTT estimator.
		if !s.cfg.FixedRTO {
			pair.observe(float64(now.Sub(pk.wireOut)))
		}
		if pair.backoff > 0 {
			pair.backoff--
		}
	}
	pk.acked = true
	st.nAcked++
	// Lazy cancellation: clear the deadline but leave the message
	// timer armed. If this sequence held the earliest deadline, the
	// timer fires spuriously, finds nothing expired, and rearms.
	pk.deadline = sim.Never
	if pk.retries > 0 {
		// The packet was retransmitted at least once before this first
		// ACK came back; receiver-side dedup measures how many of those
		// copies were unnecessary.
		s.hosts[st.msg.Src].stats.SpuriousRetransmits++
	}
	if st.nAcked == st.msg.packets {
		st.finished = true
		if st.timer.Valid() {
			st.eng.Cancel(st.timer)
			st.timer = sim.EventRef{}
		}
		if st.msg.OnAcked != nil {
			st.msg.OnAcked(now, st.msg)
		}
		// Reap transport state — on one domain the receiver's tombstone
		// too (contract decision 2, see onData).
		delete(sends, p.Msg)
		if s.net.Domains() == 1 {
			delete(s.hosts[st.msg.Dst].recvDone, p.Msg)
		}
	}
}

// DebugRetx, when non-nil, observes every retransmission (test hook).
var DebugRetx func(now sim.Time, msg uint64, seq, retries int)

// DebugTimeout, when non-nil, observes every timeout with the pair's
// estimator state (test hook).
var DebugTimeout func(now sim.Time, src, dst topology.HostID, seq, retries, backoff int, srtt, rttvar float64)

// DebugAck, when non-nil, observes every first ACK with its RTT from
// the latest wire-out (test hook).
var DebugAck func(now sim.Time, msg uint64, seq int, rtt sim.Duration)
