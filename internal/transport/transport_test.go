package transport

import (
	"testing"
	"testing/quick"

	"flowpulse/internal/fabric"
	"flowpulse/internal/fault"
	"flowpulse/internal/sim"
	"flowpulse/internal/topology"
)

type rig struct {
	topo  *topology.Topology
	eng   *sim.Engine
	net   *fabric.Network
	stack *Stack
}

func newRig(t *testing.T, cfg topology.FatTreeConfig, seed uint64, tc Config) *rig {
	t.Helper()
	topo, err := topology.NewFatTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	net := fabric.MustNew(fabric.Config{Topo: topo, Engine: eng, Seed: seed})
	return &rig{topo: topo, eng: eng, net: net, stack: NewStack(net, tc)}
}

func TestMessageDeliveryCleanNetwork(t *testing.T) {
	r := newRig(t, topology.FatTreeConfig{Leaves: 4, Spines: 4}, 1, Config{})
	var deliveredAt, ackedAt sim.Time
	delivered, acked := false, false
	m := &Message{
		Src: 0, Dst: 3, Bytes: 1 << 20, Priority: fabric.High,
		OnDelivered: func(now sim.Time, _ *Message) { delivered, deliveredAt = true, now },
		OnAcked:     func(now sim.Time, _ *Message) { acked, ackedAt = true, now },
	}
	r.stack.Send(m)
	r.eng.Run()
	if !delivered || !acked {
		t.Fatalf("delivered=%v acked=%v", delivered, acked)
	}
	if ackedAt < deliveredAt {
		t.Fatal("sender completed before receiver")
	}
	st := r.stack.Stats()
	if st.MessagesDelivered != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if st.Retransmits != 0 {
		t.Fatalf("clean network caused %d retransmits", st.Retransmits)
	}
	// 1 MiB / 4096 = 256 packets.
	if m.packets != 256 || st.DataPacketsSent != 256 {
		t.Fatalf("packets = %d, sent = %d, want 256", m.packets, st.DataPacketsSent)
	}
	if st.AcksSent != 256 {
		t.Fatalf("acks = %d, want 256", st.AcksSent)
	}
}

func TestMessageCompletionTimeNearLineRate(t *testing.T) {
	r := newRig(t, topology.FatTreeConfig{Leaves: 4, Spines: 4}, 2, Config{})
	const bytes = 4 << 20
	var done sim.Time
	m := &Message{Src: 0, Dst: 3, Bytes: bytes,
		OnDelivered: func(now sim.Time, _ *Message) { done = now }}
	r.stack.Send(m)
	r.eng.Run()
	// Serialization of payload+headers at 400 Gb/s dominates.
	wire := r.stack.WireBytesFor(bytes)
	ideal := sim.SerializationDelay(int(wire), 400e9)
	if done < sim.Time(ideal) {
		t.Fatalf("finished faster than line rate: %v < %v", done, ideal)
	}
	if done > sim.Time(ideal)*12/10 {
		t.Fatalf("completion %v is >20%% over ideal %v; transport is stalling", done, ideal)
	}
}

func TestRecoveryFromSilentDrops(t *testing.T) {
	r := newRig(t, topology.FatTreeConfig{Leaves: 4, Spines: 4}, 3, Config{})
	// 20% drop toward the destination leaf on one spine: heavy but
	// recoverable loss.
	dstLeaf := r.topo.LeafOf(3)
	link := r.topo.TrunkLinks(r.topo.Spines()[0], dstLeaf)[0]
	r.net.InjectFault(link, r.net.DirToward(link, dstLeaf), fault.NewBernoulliDrop(0.2, sim.NewRNG(3, "f")))

	delivered := false
	m := &Message{Src: 0, Dst: 3, Bytes: 2 << 20,
		OnDelivered: func(sim.Time, *Message) { delivered = true }}
	r.stack.Send(m)
	r.eng.Run()
	if !delivered {
		t.Fatal("message not recovered despite retransmission")
	}
	st := r.stack.Stats()
	if st.Retransmits == 0 {
		t.Fatal("drops occurred but no retransmits recorded")
	}
	if fs := r.net.Stats(); fs.FaultDropped == 0 {
		t.Fatal("fault model never fired")
	}
}

func TestRecoveryFromAckLoss(t *testing.T) {
	r := newRig(t, topology.FatTreeConfig{Leaves: 4, Spines: 4}, 4, Config{})
	// Fault the reverse direction: data flows clean, ACKs drop.
	srcLeaf := r.topo.LeafOf(0)
	link := r.topo.TrunkLinks(r.topo.Spines()[1], srcLeaf)[0]
	r.net.InjectFault(link, r.net.DirToward(link, srcLeaf), fault.NewBernoulliDrop(0.3, sim.NewRNG(4, "f")))

	acked := false
	m := &Message{Src: 0, Dst: 3, Bytes: 1 << 20,
		OnAcked: func(sim.Time, *Message) { acked = true }}
	r.stack.Send(m)
	r.eng.Run()
	if !acked {
		t.Fatal("sender never completed despite duplicate-ack recovery")
	}
	if st := r.stack.Stats(); st.DuplicatesReceived == 0 {
		t.Fatal("ack loss should have produced duplicate data at the receiver")
	}
}

func TestBlackHolePathEventuallyRecovers(t *testing.T) {
	// A full black hole on ONE spine path: every packet landing there
	// dies, but re-spraying finds another spine within a few tries.
	r := newRig(t, topology.FatTreeConfig{Leaves: 2, Spines: 4}, 5, Config{})
	dstLeaf := r.topo.LeafOf(1)
	link := r.topo.TrunkLinks(r.topo.Spines()[2], dstLeaf)[0]
	r.net.InjectFault(link, r.net.DirToward(link, dstLeaf), fault.BlackHole{})

	delivered := false
	m := &Message{Src: 0, Dst: 1, Bytes: 1 << 20,
		OnDelivered: func(sim.Time, *Message) { delivered = true }}
	r.stack.Send(m)
	r.eng.Run()
	if !delivered {
		t.Fatal("message not delivered around a single-path black hole")
	}
}

func TestUnreachableDestinationAbandons(t *testing.T) {
	r := newRig(t, topology.FatTreeConfig{Leaves: 2, Spines: 2}, 6, Config{MaxRetries: 3})
	for _, spine := range r.topo.Spines() {
		link := r.topo.TrunkLinks(spine, r.topo.LeafOf(1))[0]
		r.net.InjectFault(link, r.net.DirToward(link, r.topo.LeafOf(1)), fault.BlackHole{})
	}
	delivered := false
	m := &Message{Src: 0, Dst: 1, Bytes: 64 << 10,
		OnDelivered: func(sim.Time, *Message) { delivered = true }}
	r.stack.Send(m)
	r.eng.Run()
	if delivered {
		t.Fatal("message delivered through a total black hole")
	}
	if st := r.stack.Stats(); st.Abandoned == 0 {
		t.Fatal("no packets abandoned after MaxRetries")
	}
}

func TestSmallMessageSinglePacket(t *testing.T) {
	r := newRig(t, topology.FatTreeConfig{Leaves: 2, Spines: 2}, 7, Config{})
	delivered := false
	m := &Message{Src: 0, Dst: 1, Bytes: 100,
		OnDelivered: func(sim.Time, *Message) { delivered = true }}
	r.stack.Send(m)
	r.eng.Run()
	if !delivered || m.packets != 1 {
		t.Fatalf("delivered=%v packets=%d", delivered, m.packets)
	}
}

func TestPacketsForAndWireBytes(t *testing.T) {
	r := newRig(t, topology.FatTreeConfig{Leaves: 2, Spines: 2}, 8, Config{MTU: 1000, HeaderBytes: 50})
	cases := []struct {
		bytes, packets int
		wire           int64
	}{
		{1, 1, 51},
		{1000, 1, 1050},
		{1001, 2, 1101},
		{10000, 10, 10500},
	}
	for _, c := range cases {
		if got := r.stack.PacketsFor(c.bytes); got != c.packets {
			t.Errorf("PacketsFor(%d) = %d, want %d", c.bytes, got, c.packets)
		}
		if got := r.stack.WireBytesFor(c.bytes); got != c.wire {
			t.Errorf("WireBytesFor(%d) = %d, want %d", c.bytes, got, c.wire)
		}
	}
}

func TestManyConcurrentMessages(t *testing.T) {
	r := newRig(t, topology.FatTreeConfig{Leaves: 8, Spines: 4}, 9, Config{})
	done := 0
	const per = 256 << 10
	for src := 0; src < 8; src++ {
		dst := (src + 1) % 8
		r.stack.Send(&Message{
			Src: topology.HostID(src), Dst: topology.HostID(dst), Bytes: per,
			OnDelivered: func(sim.Time, *Message) { done++ },
		})
	}
	r.eng.Run()
	if done != 8 {
		t.Fatalf("delivered %d/8 concurrent messages", done)
	}
}

func TestSendValidation(t *testing.T) {
	r := newRig(t, topology.FatTreeConfig{Leaves: 2, Spines: 2}, 10, Config{})
	for _, m := range []*Message{
		{Src: 0, Dst: 1, Bytes: 0},
		{Src: 0, Dst: 0, Bytes: 100},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Send(%+v) did not panic", m)
				}
			}()
			r.stack.Send(m)
		}()
	}
}

func TestTaggedPacketsCarryTag(t *testing.T) {
	r := newRig(t, topology.FatTreeConfig{Leaves: 2, Spines: 2}, 11, Config{})
	tag := fabric.FlowTag{Sentinel: true, Job: 3, Iter: 17}
	dstLeaf := r.topo.LeafOf(1)
	taggedData, untaggedAcksSeen := 0, 0
	r.net.AddIngressHook(dstLeaf, func(_ sim.Time, port int, p *fabric.Packet) {
		if p.Kind == fabric.Data && p.Tag == tag {
			taggedData++
		}
		if p.Kind == fabric.Ack && p.Tag.Sentinel {
			untaggedAcksSeen++
		}
	})
	r.stack.Send(&Message{Src: 0, Dst: 1, Bytes: 64 << 10, Tag: tag})
	r.eng.Run()
	if taggedData == 0 {
		t.Fatal("no tagged data packets observed")
	}
	if untaggedAcksSeen != 0 {
		t.Fatal("ACKs must not carry the collective sentinel")
	}
}

// Property: delivery succeeds for arbitrary message sizes and drop
// rates below 50%, and the receiver sees every payload byte exactly
// once (dedup works for any loss pattern).
func TestDeliveryUnderLossProperty(t *testing.T) {
	f := func(seed uint64, sizeKB uint16, dropPct uint8) bool {
		size := (int(sizeKB)%512 + 1) * 1024
		rate := float64(dropPct%50) / 100
		topo, err := topology.NewFatTree(topology.FatTreeConfig{Leaves: 2, Spines: 4})
		if err != nil {
			return false
		}
		eng := sim.NewEngine()
		net := fabric.MustNew(fabric.Config{Topo: topo, Engine: eng, Seed: seed})
		stack := NewStack(net, Config{})
		link := topo.TrunkLinks(topo.Spines()[0], topo.LeafOf(1))[0]
		net.InjectFault(link, net.DirToward(link, topo.LeafOf(1)), fault.NewBernoulliDrop(rate, sim.NewRNG(seed, "p")))
		delivered := false
		stack.Send(&Message{Src: 0, Dst: 1, Bytes: size,
			OnDelivered: func(sim.Time, *Message) { delivered = true }})
		eng.Run()
		return delivered
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// White-box test of the per-message RTO timer: one engine timer
// follows the earliest outstanding deadline, fires expiries in
// deadline order, survives lazy (ACK-side) deadline clearing with a
// spurious fire, and disarms once nothing is outstanding.
func TestEarliestDeadlineTimerMechanics(t *testing.T) {
	r := newRig(t, topology.FatTreeConfig{Leaves: 4, Spines: 2}, 9, Config{})
	s := r.stack
	m := &Message{Src: 0, Dst: 3, Bytes: 3 * 4096, packets: 3, id: 77}
	st := &sendState{
		s: s, eng: s.eng, msg: m,
		pkt: []pktState{{deadline: 300}, {deadline: 100}, {deadline: 200}},
	}

	// Arming at a later deadline first, then an earlier one, must
	// leave the timer at the minimum.
	st.armAt(st.pkt[0].deadline)
	st.armAt(st.pkt[2].deadline)
	st.armAt(st.pkt[1].deadline)
	if !st.timer.Valid() || st.timerAt != 100 {
		t.Fatalf("timer armed at %v, want earliest deadline 100", st.timerAt)
	}
	// Arming at a later instant than the current one is a no-op.
	st.armAt(250)
	if st.timerAt != 100 {
		t.Fatalf("later armAt moved the timer to %v", st.timerAt)
	}

	var retxOrder []int
	DebugRetx = func(_ sim.Time, msg uint64, seq, _ int) {
		if msg == 77 {
			retxOrder = append(retxOrder, seq)
		}
	}
	defer func() { DebugRetx = nil }()

	// Lazily "ack" seq 2 the way onAck does: clear the deadline, leave
	// the timer alone. The fire at 200 becomes spurious.
	st.pkt[2].acked = true
	st.pkt[2].deadline = sim.Never

	r.eng.Run()
	// Expiries must fire in deadline order (seq 1 at 100, seq 0 at
	// 300) and the acked seq 2 must never retransmit.
	if len(retxOrder) != 2 || retxOrder[0] != 1 || retxOrder[1] != 0 {
		t.Fatalf("retransmit order %v, want [1 0]", retxOrder)
	}
	if st.pkt[2].retries != 0 {
		t.Fatal("lazily acked sequence was retransmitted")
	}
	// All deadlines consumed: the timer must be disarmed (retransmits
	// of an unregistered message never re-arm via onWireOut).
	if st.timer.Valid() {
		t.Fatal("timer still armed with no outstanding deadlines")
	}
	if got := s.Stats().Retransmits; got != 2 {
		t.Fatalf("Retransmits = %d, want 2", got)
	}
}

// TestStragglerAfterFinalAckFollowsTheReapRule pins contract decision 2
// on both partitions. A retransmitted copy still in flight when the
// sender sees its final ACK arrives at a receiver that finished long
// ago. On one domain the final ACK reaped the receiver's tombstone with
// the send state, and the straggler is dropped without a trace; on
// several the tombstone outlives the message and answers with another
// ACK, which the sender — its state gone — ignores. Neither delivers the
// message twice or rebuilds reception state.
func TestStragglerAfterFinalAckFollowsTheReapRule(t *testing.T) {
	topo, err := topology.NewFatTree(topology.FatTreeConfig{Leaves: 4, Spines: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name          string
		part          *topology.Partition
		reAcked, tomb int
	}{
		{"one domain", topology.OneDomain(topo), 0, 0},
		{"a domain per switch", topology.NewPartition(topo), 1, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			grp := sim.NewGroup(sim.GroupConfig{Domains: tc.part.NumDomains, Lookahead: tc.part.Lookahead, Workers: 1})
			defer grp.Close()
			net := fabric.MustNew(fabric.Config{Topo: topo, Group: grp, Partition: tc.part, Seed: 3})
			stack := NewStack(net, Config{})
			delivered := 0
			m := &Message{Src: 0, Dst: 3, Bytes: 3 * 4096, Priority: fabric.High,
				OnDelivered: func(sim.Time, *Message) { delivered++ }}
			stack.Send(m)
			grp.Run()
			before := stack.Stats()
			if delivered != 1 || before.AcksSent != 3 || len(stack.hosts[0].sends) != 0 {
				t.Fatalf("message did not complete cleanly: delivered=%d stats=%+v", delivered, before)
			}

			net.Send(fabric.SendSpec{
				Src: m.Src, Dst: m.Dst, Size: 4096 + 64, Priority: m.Priority,
				Kind: fabric.Data, Msg: m.ID(), Seq: 1, Retx: true, Ctx: m,
			})
			grp.Run()
			after := stack.Stats()
			want := before
			want.DuplicatesReceived += uint64(tc.reAcked)
			want.AcksSent += uint64(tc.reAcked)
			if after != want {
				t.Errorf("straggler changed the counters to %+v, want %+v", after, want)
			}
			if delivered != 1 {
				t.Errorf("message delivered %d times", delivered)
			}
			if h := &stack.hosts[m.Dst]; len(h.recvs) != 0 || len(h.recvDone) != tc.tomb {
				t.Errorf("receiver keeps %d receptions and %d tombstones, want 0 and %d", len(h.recvs), len(h.recvDone), tc.tomb)
			}
		})
	}
}
