package fabric

import (
	"testing"

	"flowpulse/internal/sim"
)

// TestProbeLinkRacingReconnect: a probe launched while the link is
// admin-down must still land after the link is reconnected mid-flight —
// the OAM path owns its packet for the full wire delay, and a
// re-admission racing the last probe round neither loses the result
// nor double-counts it. The symmetric race (disconnect while a probe
// is in flight) must not eat the result either: admin state gates the
// data path, not the control path.
func TestProbeLinkRacingReconnect(t *testing.T) {
	n := buildFatTree(t, 4, 2, 1)
	link := n.topo.TrunkLinks(n.topo.Leaves()[0], n.topo.Spines()[1])[0]
	n.SetLinkAdmin(link, false)

	var results []bool
	n.ProbeLink(link, DirAtoB, 256, func(_ sim.Time, d bool) { results = append(results, d) })
	// Reconnect before the engine delivers the probe: the in-flight
	// probe must complete exactly once.
	n.SetLinkAdmin(link, true)
	n.Engine().Run()
	if len(results) != 1 || !results[0] {
		t.Fatalf("probe racing reconnect: results %v, want [true]", results)
	}

	// The mirror race: probe a live link, disconnect before delivery.
	results = nil
	n.ProbeLink(link, DirBtoA, 256, func(_ sim.Time, d bool) { results = append(results, d) })
	n.SetLinkAdmin(link, false)
	n.Engine().Run()
	if len(results) != 1 || !results[0] {
		t.Fatalf("probe racing disconnect: results %v, want [true]", results)
	}

	if st := n.Stats(); st.ProbesSent != 2 || st.ProbesLost != 0 {
		t.Fatalf("probe stats %d sent / %d lost, want 2/0", st.ProbesSent, st.ProbesLost)
	}
}

// TestProbeLinkPayloadValidation: zero and negative payloads are
// programming errors (a zero-byte probe has no serialization delay and
// would report "link fine" without touching the wire), as is the
// ambiguous DirBoth — all three must panic rather than half-work.
func TestProbeLinkPayloadValidation(t *testing.T) {
	n := buildFatTree(t, 4, 2, 1)
	link := n.topo.TrunkLinks(n.topo.Leaves()[0], n.topo.Spines()[0])[0]
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	expectPanic("zero payload", func() { n.ProbeLink(link, DirAtoB, 0, nil) })
	expectPanic("negative payload", func() { n.ProbeLink(link, DirAtoB, -64, nil) })
	expectPanic("DirBoth", func() { n.ProbeLink(link, DirBoth, 256, nil) })
}

// TestProbeLinkOversizedPayload: a jumbo probe still delivers, and its
// wire delay scales with size — the serialization model must not
// overflow or clamp for payloads far beyond the MTU.
func TestProbeLinkOversizedPayload(t *testing.T) {
	n := buildFatTree(t, 4, 2, 1)
	link := n.topo.TrunkLinks(n.topo.Leaves()[0], n.topo.Spines()[0])[0]

	var smallAt, jumboAt sim.Time
	n.ProbeLink(link, DirAtoB, 256, func(now sim.Time, d bool) {
		if d {
			smallAt = now
		}
	})
	n.ProbeLink(link, DirAtoB, 64<<20, func(now sim.Time, d bool) {
		if d {
			jumboAt = now
		}
	})
	n.Engine().Run()
	if smallAt == 0 || jumboAt == 0 {
		t.Fatalf("probe deliveries missing: small at %v, jumbo at %v", smallAt, jumboAt)
	}
	if jumboAt <= smallAt {
		t.Fatalf("jumbo probe (64 MiB) landed at %v, not after the 256 B probe at %v", jumboAt, smallAt)
	}
}
