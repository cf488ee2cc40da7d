package topology

import (
	"fmt"

	"flowpulse/internal/sim"
)

// FatTreeConfig describes a non-blocking two-level leaf/spine fabric —
// the paper's evaluation topology (§6: 32 leaves, 16 spines, one host
// per leaf).
type FatTreeConfig struct {
	// Leaves is the number of leaf switches.
	Leaves int
	// Spines is the number of spine switches. For a switch of radix R
	// with R/2 host-facing ports, a non-blocking fabric uses R/2
	// spines; the paper's radix sweep varies this.
	Spines int
	// HostsPerLeaf is the number of hosts under each leaf. The paper's
	// evaluation uses 1.
	HostsPerLeaf int
	// Trunk is the number of parallel links between each leaf-spine
	// pair (§7 "Parallel Links"). Defaults to 1.
	Trunk int
	// LinkRateBPS is the rate of every link, leaf-spine and host-leaf.
	// Defaults to 400 Gb/s.
	LinkRateBPS int64
	// Propagation is the one-way propagation delay of every link.
	// Defaults to 200 ns.
	Propagation sim.Duration
}

func (c *FatTreeConfig) setDefaults() {
	if c.Trunk == 0 {
		c.Trunk = 1
	}
	if c.LinkRateBPS == 0 {
		c.LinkRateBPS = 400e9
	}
	if c.Propagation == 0 {
		c.Propagation = 200 * sim.Nanosecond
	}
	if c.HostsPerLeaf == 0 {
		c.HostsPerLeaf = 1
	}
}

func (c FatTreeConfig) validate() error {
	if c.Leaves < 2 {
		return fmt.Errorf("topology: need at least 2 leaves, got %d", c.Leaves)
	}
	if c.Spines < 1 {
		return fmt.Errorf("topology: need at least 1 spine, got %d", c.Spines)
	}
	if c.HostsPerLeaf < 1 || c.Trunk < 1 {
		return fmt.Errorf("topology: hosts per leaf and trunk must be positive")
	}
	return nil
}

// NewFatTree builds a two-level fat tree.
//
// Port layout on a leaf: ports [0, HostsPerLeaf) face hosts in host
// order; port HostsPerLeaf + s*Trunk + k is trunk link k to spine
// ordinal s. Port layout on a spine: port l*Trunk + k is trunk link k
// to leaf ordinal l. This fixed layout lets the fabric and telemetry
// layers translate between port indexes and (spine, trunk) pairs
// without lookups.
func NewFatTree(cfg FatTreeConfig) (*Topology, error) {
	cfg.setDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}

	t := &Topology{Levels: 2, Trunk: cfg.Trunk}

	for l := 0; l < cfg.Leaves; l++ {
		id := SwitchID(len(t.Switches))
		t.Switches = append(t.Switches, SwitchDesc{ID: id, Kind: Leaf})
		t.leaves = append(t.leaves, id)
	}
	for s := 0; s < cfg.Spines; s++ {
		id := SwitchID(len(t.Switches))
		t.Switches = append(t.Switches, SwitchDesc{ID: id, Kind: Spine})
		t.spines = append(t.spines, id)
	}

	// Hosts and host-leaf links.
	for l, leaf := range t.leaves {
		for h := 0; h < cfg.HostsPerLeaf; h++ {
			hid := HostID(len(t.Hosts))
			link := t.addLink(
				Endpoint{Kind: HostEnd, Host: hid},
				Endpoint{Kind: SwitchEnd, Switch: leaf, Port: h},
				cfg.LinkRateBPS, cfg.Propagation,
			)
			t.Hosts = append(t.Hosts, HostDesc{ID: hid, Leaf: leaf, LeafPort: h, Link: link})
		}
		_ = l
	}

	// Leaf-spine trunks.
	for li, leaf := range t.leaves {
		for si, spine := range t.spines {
			for k := 0; k < cfg.Trunk; k++ {
				link := t.addLink(
					Endpoint{Kind: SwitchEnd, Switch: leaf, Port: cfg.HostsPerLeaf + si*cfg.Trunk + k},
					Endpoint{Kind: SwitchEnd, Switch: spine, Port: li*cfg.Trunk + k},
					cfg.LinkRateBPS, cfg.Propagation,
				)
				t.recordTrunk(leaf, spine, link)
			}
		}
	}

	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("topology: built invalid fat tree: %w", err)
	}
	return t, nil
}

// LeafUpPort returns the leaf port index for the given spine ordinal
// and trunk index.
func (t *Topology) LeafUpPort(leaf SwitchID, spineOrdinal, trunk int) int {
	hosts := len(t.HostsOf(leaf))
	return hosts + spineOrdinal*t.Trunk + trunk
}

// SpineOrdinalOfLeafPort inverts LeafUpPort: given a leaf uplink port
// index it returns (spine ordinal, trunk index). It returns (-1, -1)
// for host-facing ports.
func (t *Topology) SpineOrdinalOfLeafPort(leaf SwitchID, port int) (spineOrdinal, trunk int) {
	hosts := len(t.HostsOf(leaf))
	if port < hosts {
		return -1, -1
	}
	up := port - hosts
	return up / t.Trunk, up % t.Trunk
}

// LeafOrdinal returns the position of a leaf in Leaves(), or -1.
func (t *Topology) LeafOrdinal(leaf SwitchID) int {
	for i, l := range t.leaves {
		if l == leaf {
			return i
		}
	}
	return -1
}

// SpineOrdinal returns the position of a spine in Spines(), or -1.
func (t *Topology) SpineOrdinal(spine SwitchID) int {
	for i, s := range t.spines {
		if s == spine {
			return i
		}
	}
	return -1
}
