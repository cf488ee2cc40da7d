package resilience

import (
	"testing"

	"flowpulse/internal/collective"
	"flowpulse/internal/topology"
)

// BenchmarkReplan measures the full re-plan path the quarantine hook
// pays: capacity accounting, ring re-rank, collective rebuild, and
// demand-matrix re-extraction. It runs once per quarantine — a
// control-plane event — never per packet, and must stay
// allocation-bounded in the ring size (O(N) slices, no per-packet or
// per-byte allocations).
func BenchmarkReplan(b *testing.B) {
	topo, group := build(b)
	ring := &collective.RingAllReduce{Group: group, BytesPerRank: 16 << 20}
	link := uplink(topo, 1, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rp := New(topo, group, Config{})
		p := rp.NoteQuarantine(1000, link)
		if p == nil {
			b.Fatal("no plan")
		}
		if d := ring.Replan(p.Group).Demand(); len(d.Hosts) != len(group) {
			b.Fatal("bad demand")
		}
	}
}

// BenchmarkReplanDecision isolates the planner's steady-state cost
// when capacity stays above target (the common case: every quarantine
// on a healthy-enough leaf) — this is the only work added to the
// remediation loop when no repair is needed.
func BenchmarkReplanDecision(b *testing.B) {
	topo, group := build(b)
	rp := New(topo, group, Config{RecoverTarget: 0.5})
	link := uplink(topo, 1, 0)
	readmit := uplink(topo, 1, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p := rp.NoteQuarantine(1000, link); p != nil {
			b.Fatal("unexpected plan")
		}
		rp.NoteReadmit(2000, readmit)
	}
}

var benchGroup []topology.HostID

// BenchmarkRerank pins the ring re-rank itself (the contiguize pass).
func BenchmarkRerank(b *testing.B) {
	topo, group := build(b)
	rp := New(topo, group, Config{})
	leaf := topo.Leaves()[1]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchGroup = rp.contiguize(group, leaf)
	}
}
