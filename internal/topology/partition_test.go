package topology

import (
	"testing"

	"flowpulse/internal/sim"
)

func TestPartitionFatTree(t *testing.T) {
	topo, err := NewFatTree(FatTreeConfig{Leaves: 4, Spines: 2, HostsPerLeaf: 3})
	if err != nil {
		t.Fatal(err)
	}
	p := NewPartition(topo)
	if want := len(topo.Switches) + 1; p.NumDomains != want {
		t.Fatalf("NumDomains = %d, want %d", p.NumDomains, want)
	}
	seen := map[int]bool{0: true}
	for s := range topo.Switches {
		d := p.DomainOfSwitch[s]
		if d <= 0 || d >= p.NumDomains {
			t.Fatalf("switch %d in domain %d, out of range", s, d)
		}
		if seen[d] {
			t.Fatalf("domain %d assigned to two switches", d)
		}
		seen[d] = true
	}
	for h := range topo.Hosts {
		if got, want := p.DomainOfHost[h], p.DomainOfSwitch[topo.Hosts[h].Leaf]; got != want {
			t.Fatalf("host %d in domain %d, leaf in %d", h, got, want)
		}
	}
	if p.Lookahead != 200*sim.Nanosecond {
		t.Fatalf("Lookahead = %v, want default 200ns", p.Lookahead)
	}
}

func TestPartitionClos3(t *testing.T) {
	topo, err := NewClos3(Clos3Config{Pods: 2, LeavesPerPod: 2, SpinesPerPod: 2, CoresPerGroup: 2, HostsPerLeaf: 2})
	if err != nil {
		t.Fatal(err)
	}
	p := NewPartition(topo)
	if want := len(topo.Switches) + 1; p.NumDomains != want {
		t.Fatalf("NumDomains = %d, want %d", p.NumDomains, want)
	}
	cross := 0
	for i := range topo.Links {
		l := &topo.Links[i]
		if l.A.Kind != SwitchEnd || l.B.Kind != SwitchEnd {
			continue
		}
		cross++
		if p.DomainOfSwitch[l.A.Switch] == p.DomainOfSwitch[l.B.Switch] {
			t.Fatalf("switch-switch link %d not cross-domain", l.ID)
		}
	}
	if cross == 0 {
		t.Fatal("no cross-domain links in a 3-level Clos")
	}
	if p.Lookahead <= 0 {
		t.Fatalf("Lookahead = %v, want positive", p.Lookahead)
	}
}

func TestPartitionLookaheadIsMinSwitchLinkDelay(t *testing.T) {
	topo, err := NewFatTree(FatTreeConfig{Leaves: 2, Spines: 2, HostsPerLeaf: 1, Propagation: 750 * sim.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	p := NewPartition(topo)
	if p.Lookahead != 750*sim.Nanosecond {
		t.Fatalf("Lookahead = %v, want 750ns", p.Lookahead)
	}
}
