package workload

import (
	"testing"

	"flowpulse/internal/fabric"
	"flowpulse/internal/sim"
	"flowpulse/internal/topology"
	"flowpulse/internal/transport"
)

// Edge-case battery for the adversarial-traffic generators: minimum
// topologies, zero-value configs, mid-run Stop, and validation panics.

func TestIncastEdgeTopologies(t *testing.T) {
	cases := []struct {
		name           string
		leaves, spines int
		hostsPerLeaf   int
		fanout         int
	}{
		{"two-host minimum", 2, 1, 1, 0},
		{"same-leaf victim", 2, 1, 4, 2}, // sources share the victim's leaf: pure last-hop path
		{"fanout exceeds sources", 2, 2, 2, 99},
		{"single spine bottleneck", 4, 1, 1, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			topo, err := topology.NewFatTree(topology.FatTreeConfig{
				Leaves: tc.leaves, Spines: tc.spines, HostsPerLeaf: tc.hostsPerLeaf,
			})
			if err != nil {
				t.Fatal(err)
			}
			eng := sim.NewEngine()
			net := fabric.MustNew(fabric.Config{Topo: topo, Engine: eng, Seed: 31})
			stack := transport.NewStack(net, transport.Config{})
			hosts := groupOf(topo)
			in := StartIncast(stack, IncastConfig{
				Sources:      hosts,
				Victims:      hosts[:1],
				MessageBytes: 8 << 10,
				MeanGap:      20 * sim.Microsecond,
				Fanout:       tc.fanout,
				Until:        sim.Time(2 * sim.Millisecond),
				Seed:         31,
			})
			eng.Run()
			if in.BurstsSent == 0 || in.MessagesSent == 0 {
				t.Fatalf("bursts=%d messages=%d", in.BurstsSent, in.MessagesSent)
			}
			// The victim never fires at itself, so per-burst fanout is
			// capped at len(hosts)-1 even when Fanout asks for more.
			if max := in.BurstsSent * (len(hosts) - 1); in.MessagesSent > max {
				t.Fatalf("messages %d exceed %d bursts × %d eligible sources", in.MessagesSent, in.BurstsSent, len(hosts)-1)
			}
			if net.Stats().Delivered == 0 {
				t.Fatal("nothing delivered")
			}
		})
	}
}

func TestIncastZeroConfigDefaults(t *testing.T) {
	// Zero-value knobs must resolve to the documented defaults rather
	// than degenerate behavior (zero-byte messages, zero gaps).
	r := newRig(t, 2, 1, 32)
	hosts := groupOf(r.topo)
	in := StartIncast(r.stack, IncastConfig{Sources: hosts[1:], Victims: hosts[:1], Until: sim.Time(sim.Millisecond)})
	if in.cfg.MessageBytes != 128<<10 {
		t.Errorf("MessageBytes default = %d, want 128 KiB", in.cfg.MessageBytes)
	}
	if in.cfg.MeanGap != 100*sim.Microsecond {
		t.Errorf("MeanGap default = %v, want 100µs", in.cfg.MeanGap)
	}
	if in.cfg.Fanout != 1 {
		t.Errorf("Fanout default = %d, want all sources (1)", in.cfg.Fanout)
	}
	if in.cfg.Priority != fabric.Low {
		t.Errorf("Priority default = %v, want Low", in.cfg.Priority)
	}
	r.eng.Run()
	if in.BurstsSent == 0 {
		t.Fatal("default-config incast generated nothing")
	}
}

func TestStormZeroConfigDefaults(t *testing.T) {
	r := newRig(t, 2, 1, 33)
	st := StartStorm(r.stack, StormConfig{Hosts: groupOf(r.topo), Until: sim.Time(sim.Millisecond)})
	if st.cfg.MessageBytes != 256<<10 {
		t.Errorf("MessageBytes default = %d, want 256 KiB", st.cfg.MessageBytes)
	}
	if st.cfg.OnMean != 50*sim.Microsecond || st.cfg.OffMean != 150*sim.Microsecond {
		t.Errorf("on/off defaults = %v/%v, want 50µs/150µs", st.cfg.OnMean, st.cfg.OffMean)
	}
	r.eng.Run()
	if st.Bursts == 0 {
		t.Fatal("default-config storm generated nothing")
	}
}

func TestStormStopMidBurstDrains(t *testing.T) {
	// Stop lands inside a burst; already-scheduled pump events must
	// drain as no-ops and the engine must still go idle.
	r := newRig(t, 2, 2, 34)
	st := StartStorm(r.stack, StormConfig{
		Hosts:   groupOf(r.topo),
		OnMean:  500 * sim.Microsecond, // long bursts: Stop is near-certain to land mid-burst
		OffMean: 10 * sim.Microsecond,
		MeanGap: 2 * sim.Microsecond,
		Seed:    34,
	})
	r.eng.RunUntil(sim.Time(200 * sim.Microsecond))
	if st.MessagesSent == 0 {
		t.Fatal("no messages before Stop")
	}
	st.Stop()
	sent := st.MessagesSent
	r.eng.Run() // must terminate: no unbounded rescheduling after Stop
	if st.MessagesSent > sent {
		t.Fatalf("storm kept sending after Stop: %d -> %d", sent, st.MessagesSent)
	}
	if pending := r.eng.Pending(); pending != 0 {
		t.Fatalf("%d events still pending after drain", pending)
	}
}

func TestIncastStopHalts(t *testing.T) {
	r := newRig(t, 2, 2, 35)
	hosts := groupOf(r.topo)
	in := StartIncast(r.stack, IncastConfig{
		Sources: hosts[1:], Victims: hosts[:1],
		MessageBytes: 8 << 10, MeanGap: 10 * sim.Microsecond, Seed: 35,
	})
	r.eng.RunUntil(sim.Time(300 * sim.Microsecond))
	in.Stop()
	sent := in.MessagesSent
	r.eng.Run()
	if in.MessagesSent > sent {
		t.Fatalf("incast kept sending after Stop: %d -> %d", sent, in.MessagesSent)
	}
}

func TestCongestionValidationPanics(t *testing.T) {
	r := newRig(t, 2, 1, 36)
	hosts := groupOf(r.topo)
	cases := []struct {
		name string
		fn   func()
	}{
		{"incast no sources", func() { StartIncast(r.stack, IncastConfig{Victims: hosts[:1]}) }},
		{"incast no victims", func() { StartIncast(r.stack, IncastConfig{Sources: hosts}) }},
		{"storm one host", func() { StartStorm(r.stack, StormConfig{Hosts: hosts[:1]}) }},
		{"storm no hosts", func() { StartStorm(r.stack, StormConfig{}) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("invalid config accepted")
				}
			}()
			tc.fn()
		})
	}
}
