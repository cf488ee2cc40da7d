// Package topology builds and queries the static structure of the
// networks FlowPulse runs on: non-blocking two-level leaf/spine fat
// trees (the paper's evaluation topology), three-level Clos fabrics
// (the paper's §7 extension), and parallel-link trunks between switch
// pairs (§7 "Parallel Links").
//
// The package describes only wiring. Dynamic state — administratively
// disabled links, silent faults, queue occupancy — lives in
// internal/fabric and internal/fault.
package topology

import (
	"fmt"

	"flowpulse/internal/sim"
)

// HostID identifies an end host (one NIC, one GPU in the paper's
// workload model).
type HostID int

// SwitchID identifies a switch across all levels.
type SwitchID int

// LinkID identifies a bidirectional link.
type LinkID int

// SwitchKind is the level a switch occupies.
type SwitchKind uint8

const (
	// Leaf switches connect hosts to the fabric.
	Leaf SwitchKind = iota
	// Spine switches interconnect leaves (level 2).
	Spine
	// Core switches interconnect pods (level 3).
	Core
)

// String returns the lower-case level name.
func (k SwitchKind) String() string {
	switch k {
	case Leaf:
		return "leaf"
	case Spine:
		return "spine"
	case Core:
		return "core"
	}
	return fmt.Sprintf("SwitchKind(%d)", uint8(k))
}

// EndpointKind distinguishes host and switch link endpoints.
type EndpointKind uint8

const (
	// HostEnd is a host-side endpoint.
	HostEnd EndpointKind = iota
	// SwitchEnd is a switch-side endpoint.
	SwitchEnd
)

// Endpoint is one side of a link: either a host NIC or a numbered port
// on a switch.
type Endpoint struct {
	Kind   EndpointKind
	Host   HostID   // valid when Kind == HostEnd
	Switch SwitchID // valid when Kind == SwitchEnd
	Port   int      // port index on the switch; 0 for hosts
}

// String formats the endpoint for diagnostics.
func (e Endpoint) String() string {
	if e.Kind == HostEnd {
		return fmt.Sprintf("host%d", e.Host)
	}
	return fmt.Sprintf("sw%d.p%d", e.Switch, e.Port)
}

// Link is a full-duplex cable between two endpoints.
type Link struct {
	ID          LinkID
	A, B        Endpoint
	RateBPS     int64
	Propagation sim.Duration
}

// PortDesc describes one switch port: the link plugged into it and the
// peer on the far side. Link < 0 means the port is unused.
type PortDesc struct {
	Link LinkID
	Peer Endpoint
}

// SwitchDesc describes one switch.
type SwitchDesc struct {
	ID    SwitchID
	Kind  SwitchKind
	Pod   int // pod index for 3-level fabrics; 0 otherwise
	Ports []PortDesc
}

// HostDesc describes one host and its attachment point.
type HostDesc struct {
	ID       HostID
	Leaf     SwitchID
	LeafPort int    // port index on the leaf
	Link     LinkID // host-leaf link
}

// Topology is an immutable wiring description.
type Topology struct {
	Levels   int // 2 or 3
	Hosts    []HostDesc
	Switches []SwitchDesc
	Links    []Link

	leaves []SwitchID
	spines []SwitchID
	cores  []SwitchID

	// For 2-level (and intra-pod 3-level) fabrics:
	// uplink[leafOrdinal][spineOrdinal][trunk] = LinkID.
	Trunk  int
	uplink map[SwitchID]map[SwitchID][]LinkID
}

// Leaves returns the leaf switch IDs in construction order.
func (t *Topology) Leaves() []SwitchID { return t.leaves }

// Spines returns the spine switch IDs in construction order.
func (t *Topology) Spines() []SwitchID { return t.spines }

// Cores returns the core switch IDs in construction order (empty for
// two-level fabrics).
func (t *Topology) Cores() []SwitchID { return t.cores }

// Switch returns the descriptor for the given switch.
func (t *Topology) Switch(id SwitchID) *SwitchDesc { return &t.Switches[id] }

// Host returns the descriptor for the given host.
func (t *Topology) Host(id HostID) *HostDesc { return &t.Hosts[id] }

// Link returns the descriptor for the given link.
func (t *Topology) Link(id LinkID) *Link { return &t.Links[id] }

// LeafOf returns the leaf switch a host attaches to.
func (t *Topology) LeafOf(h HostID) SwitchID { return t.Hosts[h].Leaf }

// HostsOf returns the hosts attached to a leaf, in port order.
func (t *Topology) HostsOf(leaf SwitchID) []HostID {
	var hosts []HostID
	for _, h := range t.Hosts {
		if h.Leaf == leaf {
			hosts = append(hosts, h.ID)
		}
	}
	return hosts
}

// TrunkLinks returns the parallel links between a leaf and a spine (or
// a spine and a core in three-level fabrics), in trunk order. It
// returns nil if the pair is not adjacent.
func (t *Topology) TrunkLinks(a, b SwitchID) []LinkID {
	if m := t.uplink[a]; m != nil {
		if ls, ok := m[b]; ok {
			return ls
		}
	}
	if m := t.uplink[b]; m != nil {
		if ls, ok := m[a]; ok {
			return ls
		}
	}
	return nil
}

// addLink appends a link and wires both endpoints' port tables.
func (t *Topology) addLink(a, b Endpoint, rate int64, prop sim.Duration) LinkID {
	id := LinkID(len(t.Links))
	t.Links = append(t.Links, Link{ID: id, A: a, B: b, RateBPS: rate, Propagation: prop})
	if a.Kind == SwitchEnd {
		t.setPort(a, id, b)
	}
	if b.Kind == SwitchEnd {
		t.setPort(b, id, a)
	}
	return id
}

func (t *Topology) setPort(at Endpoint, link LinkID, peer Endpoint) {
	sw := &t.Switches[at.Switch]
	for len(sw.Ports) <= at.Port {
		sw.Ports = append(sw.Ports, PortDesc{Link: -1})
	}
	if sw.Ports[at.Port].Link >= 0 {
		panic(fmt.Sprintf("topology: port %v wired twice", at))
	}
	sw.Ports[at.Port] = PortDesc{Link: link, Peer: peer}
}

func (t *Topology) recordTrunk(a, b SwitchID, link LinkID) {
	if t.uplink == nil {
		t.uplink = make(map[SwitchID]map[SwitchID][]LinkID)
	}
	m := t.uplink[a]
	if m == nil {
		m = make(map[SwitchID][]LinkID)
		t.uplink[a] = m
	}
	m[b] = append(m[b], link)
}

// Validate checks structural invariants: every port is wired to a
// live link, link endpoints agree with port tables, and every host has
// exactly one attachment.
func (t *Topology) Validate() error {
	for _, sw := range t.Switches {
		for p, pd := range sw.Ports {
			if pd.Link < 0 {
				return fmt.Errorf("switch %d port %d unwired", sw.ID, p)
			}
			l := t.Link(pd.Link)
			end := Endpoint{Kind: SwitchEnd, Switch: sw.ID, Port: p}
			if l.A != end && l.B != end {
				return fmt.Errorf("switch %d port %d: link %d does not reference it", sw.ID, p, pd.Link)
			}
		}
	}
	for _, h := range t.Hosts {
		l := t.Link(h.Link)
		he := Endpoint{Kind: HostEnd, Host: h.ID}
		if l.A != he && l.B != he {
			return fmt.Errorf("host %d: link %d does not reference it", h.ID, h.Link)
		}
	}
	return nil
}
