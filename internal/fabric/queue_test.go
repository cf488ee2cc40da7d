package fabric

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"flowpulse/internal/sim"
	"flowpulse/internal/topology"
)

func TestFifoBasics(t *testing.T) {
	var q fifo
	if q.len() != 0 || q.byteLen() != 0 || q.pop() != nil || q.peek() != nil {
		t.Fatal("empty fifo misbehaves")
	}
	p1 := &Packet{ID: 1, Size: 100}
	p2 := &Packet{ID: 2, Size: 200}
	q.push(p1)
	q.push(p2)
	if q.len() != 2 || q.byteLen() != 300 {
		t.Fatalf("len=%d bytes=%d", q.len(), q.byteLen())
	}
	if q.peek() != p1 {
		t.Fatal("peek is not FIFO head")
	}
	if q.pop() != p1 || q.pop() != p2 || q.pop() != nil {
		t.Fatal("pop order wrong")
	}
	if q.byteLen() != 0 {
		t.Fatal("bytes not drained")
	}
}

func TestFifoGrowPreservesOrder(t *testing.T) {
	var q fifo
	// Interleave pushes and pops so head wraps before growth.
	for i := 0; i < 10; i++ {
		q.push(&Packet{ID: uint64(i), Size: 1})
	}
	for i := 0; i < 7; i++ {
		q.pop()
	}
	for i := 10; i < 64; i++ {
		q.push(&Packet{ID: uint64(i), Size: 1})
	}
	want := uint64(7)
	for q.len() > 0 {
		got := q.pop().ID
		if got != want {
			t.Fatalf("pop %d, want %d", got, want)
		}
		want++
	}
}

// The ring's capacity must stay a power of two at every size so the
// push/pop index wrap can be a mask instead of a modulo; the head must
// survive growth while wrapped around the end of the buffer.
func TestFifoPowerOfTwoGrowth(t *testing.T) {
	var q fifo
	for i := 0; i < 300; i++ {
		q.push(&Packet{ID: uint64(i), Size: 1})
		if c := len(q.buf); c&(c-1) != 0 {
			t.Fatalf("capacity %d is not a power of two", c)
		}
	}
	// Wrap the head deep into the buffer, then force another growth
	// cycle while wrapped.
	for i := 0; i < 250; i++ {
		q.pop()
	}
	for i := 300; i < 1000; i++ {
		q.push(&Packet{ID: uint64(i), Size: 1})
		if c := len(q.buf); c&(c-1) != 0 {
			t.Fatalf("capacity %d is not a power of two after wrap", c)
		}
	}
	want := uint64(250)
	for q.len() > 0 {
		if got := q.pop().ID; got != want {
			t.Fatalf("pop %d, want %d", got, want)
		}
		want++
	}
	if want != 1000 {
		t.Fatalf("drained %d packets, want 1000", want)
	}
}

// Property: any interleaving of pushes and pops is FIFO and
// byte-conserving.
func TestFifoProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		var q fifo
		next, expect := uint64(0), uint64(0)
		var bytes int64
		for _, op := range ops {
			if op%3 == 0 && q.len() > 0 {
				p := q.pop()
				if p.ID != expect {
					return false
				}
				expect++
				bytes -= int64(p.Size)
			} else {
				size := int(op)%512 + 1
				q.push(&Packet{ID: next, Size: size})
				next++
				bytes += int64(size)
			}
			if q.byteLen() != bytes {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPerPriorityLoadIsolation(t *testing.T) {
	// High-priority spray decisions must not see Low-priority bytes —
	// the mechanism that makes §5.1 prioritization isolate the
	// measured collective.
	ld := &linkDir{}
	ld.queues[int(Low)].push(&Packet{Size: 1 << 20, Priority: Low})
	m := newDecayMemo(5000000) // 5 µs in ps
	if got := ld.load(0, &m, int(High)); got != 0 {
		t.Fatalf("High-class load sees Low bytes: %d", got)
	}
	if got := ld.load(0, &m, int(Low)); got != 1<<20 {
		t.Fatalf("Low-class load = %d, want its own bytes", got)
	}
	// Ctrl bytes are visible to every class.
	ld.queues[int(Ctrl)].push(&Packet{Size: 64, Priority: Ctrl})
	if got := ld.load(0, &m, int(High)); got != 64 {
		t.Fatalf("High-class load = %d, want 64 (Ctrl visible)", got)
	}
}

func TestLoadRecentDecays(t *testing.T) {
	ld := &linkDir{}
	m := newDecayMemo(5 * 1000 * 1000) // 5 µs
	ld.addRecent(0, 10000, int(High), &m)
	early := ld.load(1000, &m, int(High))
	late := ld.load(50*1000*1000, &m, int(High)) // 50 µs later
	if early < 9000 {
		t.Fatalf("recent bytes decayed too fast: %d", early)
	}
	if late != 0 {
		t.Fatalf("recent bytes never decayed: %d", late)
	}
	// tau <= 0 disables the memory term entirely.
	ld2, off := &linkDir{}, newDecayMemo(-1)
	ld2.addRecent(0, 10000, int(High), &off)
	if got := ld2.load(1, &off, int(High)); got != 0 {
		t.Fatalf("disabled memory still contributes: %d", got)
	}
}

// TestDecayMemoIsExact: the memo must hand back the float64 math.Exp
// returns for that dt and that tau, bit for bit — spray decisions
// compare these estimates, so one differing ulp is a different run.
// Two networks with different time constants are driven through one dt
// stream (a memo belongs to its network's domain; nothing is shared),
// and the stream holds four times more distinct dt than the memo has
// slots and goes round twice, so most lookups of the second lap find
// their slot taken over by another dt.
func TestDecayMemoIsExact(t *testing.T) {
	topo, err := topology.NewFatTree(topology.FatTreeConfig{Leaves: 2, Spines: 2})
	if err != nil {
		t.Fatal(err)
	}
	taus := []sim.Duration{5 * sim.Microsecond, 700 * sim.Nanosecond}
	var memos []*decayMemo
	for _, tau := range taus {
		n := MustNew(Config{Topo: topo, Engine: sim.NewEngine(), SprayMemory: tau})
		memos = append(memos, &n.doms[0].decay)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	var dts []sim.Duration
	for len(dts) < 4*len(memos[0].slots) {
		// What the fabric asks for: sums of a few serialization and
		// propagation delays; and anything else an int64 can hold.
		dts = append(dts,
			sim.Duration(rng.IntN(40))*81920+sim.Duration(rng.IntN(40))*1280+sim.Duration(rng.IntN(3))*200*sim.Nanosecond+1,
			sim.Duration(rng.Int64N(1<<62))+1)
	}
	// And one collision made by hand, back to back: two dt in one slot
	// that differ only above bit 32. (A fresh memo per probe, so that
	// finding the slot does not lean on the tag check under test.)
	slotOf := func(dt sim.Duration) int {
		m := newDecayMemo(1)
		m.factor(dt)
		for i := range m.slots {
			if m.slots[i].dt == dt {
				return i
			}
		}
		panic("dt not in the memo it was just asked from")
	}
	twin := sim.Duration(81920 + 1<<32)
	for slotOf(twin) != slotOf(81920) {
		twin += 1 << 32
	}
	dts = append(dts, 81920, twin, 81920, twin)
	for lap := 0; lap < 2; lap++ {
		for _, dt := range dts {
			for i, m := range memos {
				got, want := m.factor(dt), math.Exp(-float64(dt)/float64(taus[i]))
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("lap %d tau %v: factor(%d) = %v (%#x), math.Exp gives %v (%#x)",
						lap, taus[i], int64(dt), got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		}
	}

	// dt = 0 is the key an empty slot appears to hold. load and
	// addRecent never ask for it (they decay only when time has
	// passed), but the memo answers it correctly anyway: from a fresh
	// memo, and after another dt has held slot 0 in between.
	m := newDecayMemo(float64(taus[0]))
	if got := m.factor(0); got != 1 {
		t.Fatalf("fresh memo: factor(0) = %v, want exp(0) = 1", got)
	}
	for dt := sim.Duration(1); m.slots[0].dt == 0; dt++ {
		if dt > 1<<16 {
			t.Fatal("no dt in 1..65536 took slot 0")
		}
		m.factor(dt)
	}
	if got := m.factor(0); got != 1 {
		t.Fatalf("after slot 0 was reused: factor(0) = %v, want 1", got)
	}
}

func TestPacketPoolRecycles(t *testing.T) {
	n := &Network{doms: make([]domainState, 1)}
	d := &n.doms[0]
	p1 := n.allocPacket(d)
	id1 := p1.ID
	p1.Size = 999
	n.freePacket(d, p1)
	p2 := n.allocPacket(d)
	if p2 != p1 {
		t.Fatal("pool did not recycle")
	}
	if p2.Size != 0 {
		t.Fatal("recycled packet not zeroed")
	}
	if p2.ID == id1 {
		t.Fatal("recycled packet kept its old ID")
	}
}
