// Package fabric simulates the lossless Ethernet backend network the
// paper targets (§2): output-queued switches with per-priority egress
// queues, PFC link-layer flow control, adaptive per-packet spraying on
// upstream paths (single-path downstream), FIB routing that converges
// around *known* faults only, and silent fault processes attached to
// links. It is the ns-3 substitute described in DESIGN.md §4.
package fabric

import (
	"fmt"

	"flowpulse/internal/sim"
	"flowpulse/internal/topology"
)

// Priority is a packet's traffic class. The fabric serves High before
// Low at every egress port; FlowPulse runs the measured collective at
// High priority to isolate it from background load (§5.1).
type Priority uint8

const (
	// Ctrl is the strict-top class for transport acknowledgements, so
	// tiny control frames never wait behind bulk data (RoCE NICs keep
	// ACK/CNP traffic on its own high-priority class; without this, a
	// receiver's ACKs queue behind its own outgoing chunk and every
	// RTO fires spuriously).
	Ctrl Priority = 0
	// High is the prioritized, measured collective class (§5.1).
	High Priority = 1
	// Low is background traffic.
	Low Priority = 2

	numPriorities = 3
)

// PacketKind distinguishes payload-bearing packets from transport
// acknowledgements.
type PacketKind uint8

const (
	// Data carries collective or background payload.
	Data PacketKind = iota
	// Ack is a transport acknowledgement.
	Ack
)

// FlowTag is the in-packet marking proposed in §5.1: the communication
// library tags every packet of the measured collective with a sentinel
// plus the training-job and iteration numbers, so switches know which
// traffic to measure without any control-plane messaging.
type FlowTag struct {
	// Sentinel marks packets belonging to a measured collective.
	Sentinel bool
	// Job identifies the training job (multi-job clusters, §7).
	Job uint16
	// Iter is the training-iteration number.
	Iter uint32
}

// Packet is one frame on the wire. Packets are owned by the Network's
// pool: the fabric frees delivered and dropped packets, so receivers
// must copy anything they keep.
type Packet struct {
	// ID is unique per Network for the packet's lifetime.
	ID uint64
	// Src and Dst are end hosts.
	Src, Dst topology.HostID
	// Size is the on-wire size in bytes, headers included.
	Size int
	// Priority selects the egress queue class.
	Priority Priority
	// Kind distinguishes data from acknowledgements.
	Kind PacketKind
	// Tag is the FlowPulse collective marking.
	Tag FlowTag
	// Msg identifies the transport message the packet belongs to.
	Msg uint64
	// Seq is the packet's index within its message.
	Seq int
	// Retx marks retransmissions.
	Retx bool
	// CE is the ECN congestion-experienced codepoint: set by a switch
	// when the packet was enqueued above the egress marking threshold
	// (data packets), or echoed back by the receiver so the sender's
	// DCQCN rate limiter sees the congestion notification (ACKs).
	CE bool
	// Stamp is the instant this copy left the source NIC (data
	// packets, set by the transport's dequeue hook) or the echoed
	// stamp of the data copy being acknowledged (ACKs) — the TCP
	// timestamp option, which lets the sender measure RTT without
	// retransmission ambiguity. Metadata only; never affects
	// forwarding.
	Stamp sim.Time
	// Ctx is opaque sender-attached context (see SendSpec.Ctx). It
	// must be immutable while the packet is in flight: in sharded mode
	// the receiving domain reads it after the window barrier.
	Ctx any

	// ingress tracks the switch ingress port holding PFC credit for
	// this packet while it sits inside a switch.
	ingressSwitch topology.SwitchID
	ingressPort   int
	inSwitch      bool
}

// String formats the packet for diagnostics.
func (p *Packet) String() string {
	kind := "data"
	if p.Kind == Ack {
		kind = "ack"
	}
	return fmt.Sprintf("pkt%d %s %d->%d msg%d seq%d %dB", p.ID, kind, p.Src, p.Dst, p.Msg, p.Seq, p.Size)
}

// FlowKey returns the value ECMP-style policies hash: stable per
// (src, dst, message) so a flow sticks to one path under per-flow
// balancing.
func (p *Packet) FlowKey() uint64 {
	return uint64(p.Src)<<48 ^ uint64(p.Dst)<<32 ^ p.Msg
}

// allocPacket takes a packet from one domain's pool. Packet IDs embed
// the allocating domain in the top bits so they stay unique across
// domains without shared state; the legacy single-domain network keeps
// the historical dense numbering (domain 0 contributes no high bits).
func (n *Network) allocPacket(d *domainState) *Packet {
	var p *Packet
	if k := len(d.freePackets); k > 0 {
		p = d.freePackets[k-1]
		d.freePackets = d.freePackets[:k-1]
		*p = Packet{}
	} else {
		p = &Packet{}
	}
	d.nextPacketID++
	p.ID = uint64(d.dom)<<48 | d.nextPacketID
	return p
}

// freePacket returns a packet to one domain's pool — always the domain
// on whose engine the packet's journey ended, so pools are never
// touched concurrently (packets, like timers, migrate between pools).
func (n *Network) freePacket(d *domainState, p *Packet) {
	d.freePackets = append(d.freePackets, p)
}
