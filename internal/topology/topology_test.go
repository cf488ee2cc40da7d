package topology

import (
	"testing"
	"testing/quick"
)

// paperFatTree is the paper's default evaluation fabric: 32 leaves, 16
// spines, one host per leaf.
func paperFatTree(t *testing.T) *Topology {
	t.Helper()
	top, err := NewFatTree(FatTreeConfig{Leaves: 32, Spines: 16})
	if err != nil {
		t.Fatal(err)
	}
	return top
}

func TestPaperFatTreeShape(t *testing.T) {
	top := paperFatTree(t)
	if got := len(top.Leaves()); got != 32 {
		t.Errorf("leaves = %d, want 32", got)
	}
	if got := len(top.Spines()); got != 16 {
		t.Errorf("spines = %d, want 16", got)
	}
	if got := len(top.Hosts); got != 32 {
		t.Errorf("hosts = %d, want 32", got)
	}
	// 32 host links + 32*16 leaf-spine links.
	if got := len(top.Links); got != 32+32*16 {
		t.Errorf("links = %d, want %d", got, 32+32*16)
	}
	if err := top.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestFatTreePortLayout(t *testing.T) {
	top, err := NewFatTree(FatTreeConfig{Leaves: 4, Spines: 3, HostsPerLeaf: 2, Trunk: 2})
	if err != nil {
		t.Fatal(err)
	}
	leaf := top.Leaves()[1]
	// Leaf radix: 2 host ports + 3 spines * 2 trunks = 8.
	if got := len(top.Switch(leaf).Ports); got != 8 {
		t.Fatalf("leaf port count = %d, want 8", got)
	}
	// Uplink port for spine ordinal 2, trunk 1 must be 2 + 2*2 + 1 = 7.
	if got := top.LeafUpPort(leaf, 2, 1); got != 7 {
		t.Errorf("LeafUpPort = %d, want 7", got)
	}
	so, tr := top.SpineOrdinalOfLeafPort(leaf, 7)
	if so != 2 || tr != 1 {
		t.Errorf("SpineOrdinalOfLeafPort(7) = (%d,%d), want (2,1)", so, tr)
	}
	if so, tr := top.SpineOrdinalOfLeafPort(leaf, 1); so != -1 || tr != -1 {
		t.Errorf("host port misclassified as uplink: (%d,%d)", so, tr)
	}
	// Spine port for leaf ordinal 3, trunk 0 is 3*2 = 6.
	if got := top.Switch(top.Spines()[0]).Ports[6].Peer.Switch; got != top.Leaves()[3] {
		t.Errorf("spine port 6 faces switch %d, want leaf ordinal 3 (%d)", got, top.Leaves()[3])
	}
}

func TestFatTreeUpPortPeersAreSpines(t *testing.T) {
	top, err := NewFatTree(FatTreeConfig{Leaves: 8, Spines: 4, HostsPerLeaf: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, leaf := range top.Leaves() {
		sw := top.Switch(leaf)
		for p, pd := range sw.Ports {
			so, _ := top.SpineOrdinalOfLeafPort(leaf, p)
			if so < 0 {
				if pd.Peer.Kind != HostEnd {
					t.Fatalf("leaf %d port %d: expected host peer, got %v", leaf, p, pd.Peer)
				}
				continue
			}
			if pd.Peer.Kind != SwitchEnd || pd.Peer.Switch != top.Spines()[so] {
				t.Fatalf("leaf %d port %d: peer %v, want spine ordinal %d", leaf, p, pd.Peer, so)
			}
		}
	}
}

func TestFatTreeTrunkLinks(t *testing.T) {
	top, err := NewFatTree(FatTreeConfig{Leaves: 2, Spines: 2, Trunk: 3})
	if err != nil {
		t.Fatal(err)
	}
	leaf, spine := top.Leaves()[0], top.Spines()[1]
	links := top.TrunkLinks(leaf, spine)
	if len(links) != 3 {
		t.Fatalf("trunk links = %d, want 3", len(links))
	}
	// Symmetric lookup.
	if got := top.TrunkLinks(spine, leaf); len(got) != 3 {
		t.Fatalf("reverse trunk lookup = %d links, want 3", len(got))
	}
	// Non-adjacent pair.
	if got := top.TrunkLinks(top.Leaves()[0], top.Leaves()[1]); got != nil {
		t.Fatalf("leaf-leaf trunk lookup should be nil, got %v", got)
	}
}

func TestFatTreeConfigValidation(t *testing.T) {
	bad := []FatTreeConfig{
		{Leaves: 1, Spines: 2},
		{Leaves: 4, Spines: 0},
	}
	for _, cfg := range bad {
		if _, err := NewFatTree(cfg); err == nil {
			t.Errorf("NewFatTree(%+v) succeeded, want error", cfg)
		}
	}
}

// TestLinkOther: the far end of a leaf's trunk link is the spine.
func TestLinkOther(t *testing.T) {
	top := paperFatTree(t)
	leaf, spine := top.Leaves()[0], top.Spines()[0]
	link := top.Link(top.TrunkLinks(leaf, spine)[0])
	ends := [2]SwitchID{link.A.Switch, link.B.Switch}
	if link.A.Kind != SwitchEnd || link.B.Kind != SwitchEnd ||
		(ends != [2]SwitchID{leaf, spine} && ends != [2]SwitchID{spine, leaf}) {
		t.Errorf("trunk link %d joins %v and %v, want leaf %d and spine %d", link.ID, link.A, link.B, leaf, spine)
	}
}

func TestOrdinals(t *testing.T) {
	top := paperFatTree(t)
	for i, l := range top.Leaves() {
		if got := top.LeafOrdinal(l); got != i {
			t.Fatalf("LeafOrdinal(%d) = %d, want %d", l, got, i)
		}
	}
	for i, s := range top.Spines() {
		if got := top.SpineOrdinal(s); got != i {
			t.Fatalf("SpineOrdinal(%d) = %d, want %d", s, got, i)
		}
	}
	if top.LeafOrdinal(top.Spines()[0]) != -1 {
		t.Fatal("spine misreported as leaf")
	}
}

func TestHostsOfLeaf(t *testing.T) {
	top, err := NewFatTree(FatTreeConfig{Leaves: 3, Spines: 2, HostsPerLeaf: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, leaf := range top.Leaves() {
		hosts := top.HostsOf(leaf)
		if len(hosts) != 4 {
			t.Fatalf("leaf %d has %d hosts, want 4", leaf, len(hosts))
		}
		for _, h := range hosts {
			if top.LeafOf(h) != leaf {
				t.Fatalf("host %d LeafOf mismatch", h)
			}
		}
	}
}

// Property: any valid random fat-tree config yields a topology that
// passes Validate, with the expected link count and per-switch radix.
func TestFatTreeInvariantsProperty(t *testing.T) {
	f := func(l, s, h, tr uint8) bool {
		cfg := FatTreeConfig{
			Leaves:       2 + int(l%14),
			Spines:       1 + int(s%8),
			HostsPerLeaf: 1 + int(h%4),
			Trunk:        1 + int(tr%3),
		}
		top, err := NewFatTree(cfg)
		if err != nil {
			return false
		}
		if top.Validate() != nil {
			return false
		}
		wantLinks := cfg.Leaves*cfg.HostsPerLeaf + cfg.Leaves*cfg.Spines*cfg.Trunk
		if len(top.Links) != wantLinks {
			return false
		}
		for _, leaf := range top.Leaves() {
			if len(top.Switch(leaf).Ports) != cfg.HostsPerLeaf+cfg.Spines*cfg.Trunk {
				return false
			}
		}
		for _, spine := range top.Spines() {
			if len(top.Switch(spine).Ports) != cfg.Leaves*cfg.Trunk {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestClos3Shape(t *testing.T) {
	top, err := NewClos3(Clos3Config{Pods: 4, LeavesPerPod: 4, SpinesPerPod: 2, CoresPerGroup: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(top.Leaves()); got != 16 {
		t.Errorf("leaves = %d, want 16", got)
	}
	if got := len(top.Spines()); got != 8 {
		t.Errorf("spines = %d, want 8", got)
	}
	if got := len(top.Cores()); got != 6 {
		t.Errorf("cores = %d, want 6", got)
	}
	if err := top.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Every core reaches every pod via exactly one spine.
	for _, core := range top.Cores() {
		pods := map[int]int{}
		for _, pd := range top.Switch(core).Ports {
			pods[top.PodOf(pd.Peer.Switch)]++
		}
		if len(pods) != 4 {
			t.Fatalf("core %d reaches %d pods, want 4", core, len(pods))
		}
	}
}

func TestClos3PodMembership(t *testing.T) {
	top, err := NewClos3(Clos3Config{Pods: 3, LeavesPerPod: 2, SpinesPerPod: 2, CoresPerGroup: 2})
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 3; p++ {
		if got := len(top.LeavesOfPod(p)); got != 2 {
			t.Errorf("pod %d leaves = %d, want 2", p, got)
		}
		if got := len(top.SpinesOfPod(p)); got != 2 {
			t.Errorf("pod %d spines = %d, want 2", p, got)
		}
		// Every leaf in the pod trunks to every spine in the pod.
		for _, leaf := range top.LeavesOfPod(p) {
			for _, spine := range top.SpinesOfPod(p) {
				if top.TrunkLinks(leaf, spine) == nil {
					t.Errorf("pod %d: leaf %d not trunked to spine %d", p, leaf, spine)
				}
			}
		}
	}
}

func TestClos3SpineCoreWiring(t *testing.T) {
	cfg := Clos3Config{Pods: 2, LeavesPerPod: 2, SpinesPerPod: 3, CoresPerGroup: 2}
	top, err := NewClos3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Spine ordinal s in each pod connects exactly to cores
	// [s*2, s*2+2).
	for p := 0; p < cfg.Pods; p++ {
		for si, spine := range top.SpinesOfPod(p) {
			for g := 0; g < cfg.CoresPerGroup; g++ {
				core := top.Cores()[si*cfg.CoresPerGroup+g]
				if top.TrunkLinks(spine, core) == nil {
					t.Errorf("pod %d spine ordinal %d missing core %d", p, si, core)
				}
			}
			// And to no cores outside its group.
			for ci, core := range top.Cores() {
				inGroup := ci/cfg.CoresPerGroup == si
				if (top.TrunkLinks(spine, core) != nil) != inGroup {
					t.Errorf("pod %d spine %d / core %d: group wiring wrong", p, spine, core)
				}
			}
		}
	}
}

func TestClos3ConfigValidation(t *testing.T) {
	if _, err := NewClos3(Clos3Config{Pods: 1, LeavesPerPod: 2, SpinesPerPod: 2, CoresPerGroup: 1}); err == nil {
		t.Error("single-pod Clos accepted")
	}
	if _, err := NewClos3(Clos3Config{Pods: 2, LeavesPerPod: 0, SpinesPerPod: 2, CoresPerGroup: 1}); err == nil {
		t.Error("zero-leaf pod accepted")
	}
}

func TestSwitchKindString(t *testing.T) {
	if Leaf.String() != "leaf" || Spine.String() != "spine" || Core.String() != "core" {
		t.Fatal("SwitchKind names wrong")
	}
}
