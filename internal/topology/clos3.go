package topology

import (
	"fmt"

	"flowpulse/internal/sim"
)

// Clos3Config describes a three-level Clos fabric (pods of leaf/spine
// pairs joined by a core layer), the §7 "Network Topology" extension.
// Core switches are partitioned into groups, one group per spine
// ordinal: spine i of every pod connects to every core in group i, so
// pods are reachable from each other through same-ordinal spines.
type Clos3Config struct {
	// Pods is the number of pods.
	Pods int
	// LeavesPerPod is the number of leaf switches per pod.
	LeavesPerPod int
	// SpinesPerPod is the number of spine switches per pod.
	SpinesPerPod int
	// CoresPerGroup is the number of core switches each spine uplinks
	// to. Total cores = SpinesPerPod * CoresPerGroup.
	CoresPerGroup int
	// HostsPerLeaf is the number of hosts under each leaf. Defaults to 1.
	HostsPerLeaf int
	// Trunk is the number of parallel links per adjacent switch pair.
	// Defaults to 1.
	Trunk int
}

// Every link of a three-level fabric, switch-switch and host-leaf, runs
// at clos3LinkRateBPS with one-way propagation delay clos3Propagation.
const (
	clos3LinkRateBPS = 400e9
	clos3Propagation = 200 * sim.Nanosecond
)

func (c *Clos3Config) setDefaults() {
	if c.Trunk == 0 {
		c.Trunk = 1
	}
	if c.HostsPerLeaf == 0 {
		c.HostsPerLeaf = 1
	}
}

func (c Clos3Config) validate() error {
	if c.Pods < 2 {
		return fmt.Errorf("topology: need at least 2 pods, got %d", c.Pods)
	}
	if c.LeavesPerPod < 1 || c.SpinesPerPod < 1 || c.CoresPerGroup < 1 {
		return fmt.Errorf("topology: pods need leaves, spines, and cores")
	}
	return nil
}

// NewClos3 builds a three-level Clos fabric.
//
// Port layout — leaf: as in two-level fabrics (hosts then in-pod
// spines). Spine: ports [0, L*Trunk) face the pod's leaves in leaf
// order; ports [L*Trunk, L*Trunk + CoresPerGroup*Trunk) face the
// spine's core group. Core: port p*Trunk + k faces pod p's
// same-ordinal spine.
func NewClos3(cfg Clos3Config) (*Topology, error) {
	cfg.setDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}

	t := &Topology{Levels: 3, Trunk: cfg.Trunk}

	// Allocate switches pod by pod so pod membership is contiguous.
	leafAt := make([][]SwitchID, cfg.Pods)  // [pod][leafOrdinal]
	spineAt := make([][]SwitchID, cfg.Pods) // [pod][spineOrdinal]
	for p := 0; p < cfg.Pods; p++ {
		for l := 0; l < cfg.LeavesPerPod; l++ {
			id := SwitchID(len(t.Switches))
			t.Switches = append(t.Switches, SwitchDesc{ID: id, Kind: Leaf, Pod: p})
			t.leaves = append(t.leaves, id)
			leafAt[p] = append(leafAt[p], id)
		}
		for s := 0; s < cfg.SpinesPerPod; s++ {
			id := SwitchID(len(t.Switches))
			t.Switches = append(t.Switches, SwitchDesc{ID: id, Kind: Spine, Pod: p})
			t.spines = append(t.spines, id)
			spineAt[p] = append(spineAt[p], id)
		}
	}
	nCores := cfg.SpinesPerPod * cfg.CoresPerGroup
	for c := 0; c < nCores; c++ {
		id := SwitchID(len(t.Switches))
		t.Switches = append(t.Switches, SwitchDesc{ID: id, Kind: Core})
		t.cores = append(t.cores, id)
	}

	// Hosts.
	for p := 0; p < cfg.Pods; p++ {
		for _, leaf := range leafAt[p] {
			for h := 0; h < cfg.HostsPerLeaf; h++ {
				hid := HostID(len(t.Hosts))
				link := t.addLink(
					Endpoint{Kind: HostEnd, Host: hid},
					Endpoint{Kind: SwitchEnd, Switch: leaf, Port: h},
					clos3LinkRateBPS, clos3Propagation,
				)
				t.Hosts = append(t.Hosts, HostDesc{ID: hid, Leaf: leaf, LeafPort: h, Link: link})
			}
		}
	}

	// Leaf-spine trunks within each pod.
	for p := 0; p < cfg.Pods; p++ {
		for li, leaf := range leafAt[p] {
			for si, spine := range spineAt[p] {
				for k := 0; k < cfg.Trunk; k++ {
					link := t.addLink(
						Endpoint{Kind: SwitchEnd, Switch: leaf, Port: cfg.HostsPerLeaf + si*cfg.Trunk + k},
						Endpoint{Kind: SwitchEnd, Switch: spine, Port: li*cfg.Trunk + k},
						clos3LinkRateBPS, clos3Propagation,
					)
					t.recordTrunk(leaf, spine, link)
				}
			}
		}
	}

	// Spine-core trunks: spine ordinal s in every pod connects to cores
	// [s*CoresPerGroup, (s+1)*CoresPerGroup).
	spineUpBase := cfg.LeavesPerPod * cfg.Trunk
	for p := 0; p < cfg.Pods; p++ {
		for si, spine := range spineAt[p] {
			for g := 0; g < cfg.CoresPerGroup; g++ {
				core := t.cores[si*cfg.CoresPerGroup+g]
				for k := 0; k < cfg.Trunk; k++ {
					link := t.addLink(
						Endpoint{Kind: SwitchEnd, Switch: spine, Port: spineUpBase + g*cfg.Trunk + k},
						Endpoint{Kind: SwitchEnd, Switch: core, Port: p*cfg.Trunk + k},
						clos3LinkRateBPS, clos3Propagation,
					)
					t.recordTrunk(spine, core, link)
				}
			}
		}
	}

	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("topology: built invalid 3-level Clos: %w", err)
	}
	return t, nil
}

// PodOf returns the pod index of a switch (0 for cores and for
// two-level fabrics).
func (t *Topology) PodOf(sw SwitchID) int { return t.Switches[sw].Pod }

// SpinesOfPod returns the spine switches of a pod, in ordinal order.
func (t *Topology) SpinesOfPod(pod int) []SwitchID {
	var out []SwitchID
	for _, s := range t.spines {
		if t.Switches[s].Pod == pod {
			out = append(out, s)
		}
	}
	return out
}

// LeavesOfPod returns the leaf switches of a pod, in ordinal order.
func (t *Topology) LeavesOfPod(pod int) []SwitchID {
	var out []SwitchID
	for _, l := range t.leaves {
		if t.Switches[l].Pod == pod {
			out = append(out, l)
		}
	}
	return out
}
