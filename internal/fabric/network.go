package fabric

import (
	"fmt"

	"flowpulse/internal/sim"
	"flowpulse/internal/spray"
	"flowpulse/internal/topology"
)

// Config parameterizes a Network.
type Config struct {
	// Topo is the wiring to simulate. Required.
	Topo *topology.Topology
	// Engine drives the simulation. Required unless Group is set, in
	// which case it defaults to (and must be) the group's control
	// engine.
	Engine *sim.Engine
	// Group, when set, runs the fabric in sharded-parallel mode: each
	// switch (plus its attached hosts) executes on the engine of its
	// Partition domain, and cross-domain packet handoff goes through
	// the group's barrier mailboxes. Requires Partition.
	Group *sim.Group
	// Partition is the domain decomposition matching Group.
	Partition *topology.Partition
	// Spray selects the upstream load-balancing policy. Defaults to
	// spray.LeastLoaded, the paper's APS.
	Spray spray.Kind
	// Seed roots all of the fabric's random streams.
	Seed uint64
	// XoffBytes and XonBytes are the PFC pause/resume thresholds per
	// ingress port and priority. Defaults: 1 MiB / 512 KiB.
	XoffBytes, XonBytes int64
	// SprayMemory is the time constant of the per-port utilization
	// estimator that adaptive policies grade ports by (queued +
	// in-flight + exponentially decayed recent bytes). Zero means the
	// 5 µs default; negative disables the memory term, reducing
	// adaptive spraying to instantaneous queue depth.
	SprayMemory sim.Duration
	// ECN configures congestion-experienced marking at switch egress
	// queues. Zero value = disabled: no per-direction RNG streams are
	// allocated and the data path is byte-identical to pre-ECN builds.
	ECN ECNConfig
}

// ECNConfig is the RED-style marking profile every switch egress queue
// applies when enabled: a packet enqueued with its class's queue depth
// above KMaxBytes is always marked CE, above KMinBytes with probability
// ecnPMax scaled linearly between the two thresholds.
type ECNConfig struct {
	Enabled bool
	// KMinBytes and KMaxBytes bound the marking ramp. Defaults
	// (when Enabled): 100 KiB and 400 KiB — comfortably under the 1 MiB
	// PFC Xoff threshold, so ECN reacts before PFC ever pauses.
	KMinBytes, KMaxBytes int64
}

// ecnPMax is the marking probability at KMaxBytes.
const ecnPMax = 0.2

func (c *Config) setDefaults() {
	if c.Spray == "" {
		c.Spray = spray.LeastLoaded
	}
	if c.XoffBytes == 0 {
		c.XoffBytes = 1 << 20
	}
	if c.XonBytes == 0 {
		c.XonBytes = c.XoffBytes / 2
	}
	if c.SprayMemory == 0 {
		c.SprayMemory = 5 * sim.Microsecond
	}
	if c.ECN.Enabled {
		if c.ECN.KMinBytes == 0 {
			c.ECN.KMinBytes = 100 << 10
		}
		if c.ECN.KMaxBytes == 0 {
			c.ECN.KMaxBytes = 400 << 10
		}
	}
}

// Stats are network-wide packet accounting counters. In an idle
// network, Sent = Delivered + FaultDropped + RouteDropped +
// AdminDropped (packet conservation).
type Stats struct {
	// Sent counts packets injected by hosts.
	Sent uint64
	// SentBytes counts injected bytes.
	SentBytes uint64
	// Delivered counts packets handed to a destination host.
	Delivered uint64
	// DeliveredBytes counts delivered bytes.
	DeliveredBytes uint64
	// FaultDropped counts packets silently dropped by fault models.
	FaultDropped uint64
	// RouteDropped counts packets with no eligible egress port.
	RouteDropped uint64
	// RouteDroppedBytes counts the bytes of route-dropped packets.
	RouteDroppedBytes uint64
	// AdminDropped counts packets caught in flight on a link that went
	// administratively down.
	AdminDropped uint64
	// PFCPauses counts pause events issued.
	PFCPauses uint64
	// CEMarked counts data packets marked congestion-experienced at a
	// switch egress queue (0 unless Config.ECN is enabled).
	CEMarked uint64
	// ProbesSent and ProbesLost count link-local OAM probes (ProbeLink)
	// and the ones the fault process ate. Probes are not packets: they
	// bypass the forwarding plane and do not enter the conservation
	// identity above.
	ProbesSent, ProbesLost uint64
}

// IngressHook observes every packet accepted at a switch ingress port,
// before forwarding. FlowPulse's leaf monitors attach here — this is
// the programmable-switch counter program of §5.1.
type IngressHook func(now sim.Time, port int, pkt *Packet)

// Receiver accepts packets delivered to a host. The packet is freed
// after the callback returns; receivers must copy retained data.
type Receiver func(now sim.Time, pkt *Packet)

// DequeueHook observes each packet at the instant the host NIC begins
// serializing it onto the wire.
type DequeueHook func(now sim.Time, pkt *Packet)

type hostState struct {
	id        topology.HostID
	egress    *linkDir
	recv      Receiver
	onDequeue DequeueHook
	d         *domainState
}

type switchState struct {
	id   topology.SwitchID
	kind topology.SwitchKind
	pod  int
	ord  int // ordinal within its kind

	egress     []*linkDir // per port
	occ        [][numPriorities]int64
	pausedUp   [][numPriorities]bool // pause issued to the upstream of this ingress port
	portToHost []topology.HostID     // leaf only, -1 where not a host port

	policy spray.Policy
	cands  []spray.Candidate // scratch

	d *domainState
}

// domainState is the per-domain mutable slice of the fabric: counters,
// object pools, and packet-ID allocation. In legacy (single-threaded)
// mode there is exactly one, shared by every node; in sharded mode
// each partition domain owns one and touches only its own, so worker
// domains never contend — the only cross-domain traffic is the posts
// at the window barrier.
type domainState struct {
	eng *sim.Engine
	dom int

	stats Stats

	freePackets  []*Packet
	freeArrivals []*arrivalTimer
	freePauses   []*pauseTimer
	nextPacketID uint64

	// decay serves the load estimate of every link direction this
	// domain sends on (it owns their recent/recentAt).
	decay decayMemo
}

// Network is the simulated fabric. In legacy mode it is
// single-threaded: all access must happen from the owning engine's
// goroutine. In sharded mode (Config.Group) each node's state belongs
// to its partition domain and is touched only by that domain's events;
// administrative operations (fault injection, SetLinkAdmin, ProbeLink)
// must run on the control engine.
type Network struct {
	cfg    Config
	topo   *topology.Topology
	engine *sim.Engine // control engine

	grp *sim.Group // nil in legacy mode
	par bool

	hosts    []hostState
	switches []switchState
	links    []linkState

	// doms holds the per-domain state; exactly one entry in legacy
	// mode. The slice is allocated once and never grows, so the
	// interior pointers held by nodes and link directions stay valid.
	doms []domainState

	fib *fibTable

	ingressHooks [][]IngressHook // per switch, in registration order, empty when absent

	// fibRecomputes counts administrative transitions (FIB churn).
	fibRecomputes uint64
}

// allocArrival takes an arrival timer from a domain's pool (see
// arrivalTimer). Timers migrate between domain pools: allocated by the
// sender's domain, freed into the receiver's — each pool is still only
// ever touched by its owning domain.
func (n *Network) allocArrival(d *domainState) *arrivalTimer {
	if k := len(d.freeArrivals); k > 0 {
		t := d.freeArrivals[k-1]
		d.freeArrivals = d.freeArrivals[:k-1]
		return t
	}
	return &arrivalTimer{n: n}
}

// allocPause takes a PFC pause-frame timer from a domain's pool (see
// pauseTimer).
func (n *Network) allocPause(d *domainState) *pauseTimer {
	if k := len(d.freePauses); k > 0 {
		t := d.freePauses[k-1]
		d.freePauses = d.freePauses[:k-1]
		return t
	}
	return &pauseTimer{n: n}
}

// New builds a Network over the given topology. All links start
// administratively up and fault-free.
func New(cfg Config) (*Network, error) {
	if cfg.Group != nil {
		if cfg.Partition == nil {
			return nil, fmt.Errorf("fabric: Config.Group requires Config.Partition")
		}
		if cfg.Partition.NumDomains != cfg.Group.Domains() {
			return nil, fmt.Errorf("fabric: partition has %d domains, group has %d",
				cfg.Partition.NumDomains, cfg.Group.Domains())
		}
		if cfg.Engine == nil {
			cfg.Engine = cfg.Group.Control()
		} else if cfg.Engine != cfg.Group.Control() {
			return nil, fmt.Errorf("fabric: Config.Engine must be the group's control engine")
		}
	}
	if cfg.Topo == nil || cfg.Engine == nil {
		return nil, fmt.Errorf("fabric: Config.Topo and Config.Engine are required")
	}
	cfg.setDefaults()

	n := &Network{
		cfg:          cfg,
		topo:         cfg.Topo,
		engine:       cfg.Engine,
		grp:          cfg.Group,
		par:          cfg.Group != nil,
		hosts:        make([]hostState, len(cfg.Topo.Hosts)),
		switches:     make([]switchState, len(cfg.Topo.Switches)),
		links:        make([]linkState, len(cfg.Topo.Links)),
		ingressHooks: make([][]IngressHook, len(cfg.Topo.Switches)),
	}

	if n.par {
		n.doms = make([]domainState, cfg.Partition.NumDomains)
		for d := range n.doms {
			n.doms[d] = domainState{eng: cfg.Group.Engine(d), dom: d}
		}
	} else {
		n.doms = []domainState{{eng: cfg.Engine, dom: 0}}
	}
	for d := range n.doms {
		n.doms[d].decay = newDecayMemo(float64(cfg.SprayMemory))
	}

	for i := range n.links {
		tl := n.topo.Link(topology.LinkID(i))
		ls := &n.links[i]
		ls.topo = tl
		ls.adminUp = true
		ls.dirs[DirAtoB] = linkDir{link: ls, sender: tl.A, receiver: tl.B, rate: tl.RateBPS, prop: tl.Propagation}
		ls.dirs[DirBtoA] = linkDir{link: ls, sender: tl.B, receiver: tl.A, rate: tl.RateBPS, prop: tl.Propagation}
		for d := range ls.dirs {
			ld := &ls.dirs[d]
			ld.sendD = n.domOfEndpoint(ld.sender)
			ld.recvD = n.domOfEndpoint(ld.receiver)
			ld.crossDom = ld.sendD != ld.recvD
			// ECN marks at switch egress queues only; each direction's
			// stream is drawn solely by the owning switch's domain, so
			// marking stays bit-identical across worker counts.
			if cfg.ECN.Enabled && ld.sender.Kind == topology.SwitchEnd {
				ld.ecnRNG = sim.NewRNG(cfg.Seed, fmt.Sprintf("ecn/%d/%d", i, d))
			}
		}
		// Bind the resident serialization timers once the dirs have
		// their final addresses (the links slice never reallocates).
		ls.dirs[DirAtoB].ser = serTimer{n: n, ld: &ls.dirs[DirAtoB]}
		ls.dirs[DirBtoA].ser = serTimer{n: n, ld: &ls.dirs[DirBtoA]}
	}

	leafOrd, spineOrd, coreOrd := map[topology.SwitchID]int{}, map[topology.SwitchID]int{}, map[topology.SwitchID]int{}
	for i, id := range n.topo.Leaves() {
		leafOrd[id] = i
	}
	for i, id := range n.topo.Spines() {
		spineOrd[id] = i
	}
	for i, id := range n.topo.Cores() {
		coreOrd[id] = i
	}

	for i := range n.switches {
		sd := n.topo.Switch(topology.SwitchID(i))
		ss := &n.switches[i]
		ss.id = sd.ID
		ss.kind = sd.Kind
		ss.pod = sd.Pod
		switch sd.Kind {
		case topology.Leaf:
			ss.ord = leafOrd[sd.ID]
		case topology.Spine:
			ss.ord = spineOrd[sd.ID]
		case topology.Core:
			ss.ord = coreOrd[sd.ID]
		}
		ss.egress = make([]*linkDir, len(sd.Ports))
		ss.occ = make([][numPriorities]int64, len(sd.Ports))
		ss.pausedUp = make([][numPriorities]bool, len(sd.Ports))
		ss.portToHost = make([]topology.HostID, len(sd.Ports))
		for p, pd := range sd.Ports {
			ss.portToHost[p] = -1
			if pd.Peer.Kind == topology.HostEnd {
				ss.portToHost[p] = pd.Peer.Host
			}
			ls := &n.links[pd.Link]
			end := topology.Endpoint{Kind: topology.SwitchEnd, Switch: sd.ID, Port: p}
			if ls.dirs[DirAtoB].sender == end {
				ss.egress[p] = &ls.dirs[DirAtoB]
			} else {
				ss.egress[p] = &ls.dirs[DirBtoA]
			}
		}
		ss.policy = spray.MustNew(cfg.Spray, sim.NewRNG(cfg.Seed, fmt.Sprintf("spray/%d", i)))
		ss.cands = make([]spray.Candidate, 0, len(sd.Ports))
		if n.par {
			ss.d = &n.doms[cfg.Partition.DomainOfSwitch[i]]
		} else {
			ss.d = &n.doms[0]
		}
	}

	for i := range n.hosts {
		hd := n.topo.Host(topology.HostID(i))
		hs := &n.hosts[i]
		hs.id = hd.ID
		ls := &n.links[hd.Link]
		end := topology.Endpoint{Kind: topology.HostEnd, Host: hd.ID}
		if ls.dirs[DirAtoB].sender == end {
			hs.egress = &ls.dirs[DirAtoB]
		} else {
			hs.egress = &ls.dirs[DirBtoA]
		}
		if n.par {
			hs.d = &n.doms[cfg.Partition.DomainOfHost[i]]
		} else {
			hs.d = &n.doms[0]
		}
	}

	n.fib = newFIBTable(n.topo)
	n.recomputeFIBs()
	return n, nil
}

// MustNew is New but panics on error, for statically valid configs.
func MustNew(cfg Config) *Network {
	n, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return n
}

// domOfEndpoint resolves the domain state owning one link endpoint.
func (n *Network) domOfEndpoint(ep topology.Endpoint) *domainState {
	if !n.par {
		return &n.doms[0]
	}
	if ep.Kind == topology.HostEnd {
		return &n.doms[n.cfg.Partition.DomainOfHost[ep.Host]]
	}
	return &n.doms[n.cfg.Partition.DomainOfSwitch[ep.Switch]]
}

// Engine returns the driving event engine (the control engine in
// sharded mode).
func (n *Network) Engine() *sim.Engine { return n.engine }

// Group returns the sharded scheduler, or nil in legacy mode.
func (n *Network) Group() *sim.Group { return n.grp }

// EngineOf returns the engine that executes a host's events: the
// host's domain engine in sharded mode, the single engine otherwise.
// Traffic sources (transports, injectors) must schedule a host's work
// here.
func (n *Network) EngineOf(h topology.HostID) *sim.Engine { return n.hosts[h].d.eng }

// EngineOfSwitch returns the engine that executes a switch's events.
func (n *Network) EngineOfSwitch(sw topology.SwitchID) *sim.Engine { return n.switches[sw].d.eng }

// DomainOf returns a host's partition domain (0 in legacy mode).
func (n *Network) DomainOf(h topology.HostID) int { return n.hosts[h].d.dom }

// DomainOfSwitch returns a switch's partition domain (0 in legacy mode).
func (n *Network) DomainOfSwitch(sw topology.SwitchID) int { return n.switches[sw].d.dom }

// Topology returns the wiring the network was built over.
func (n *Network) Topology() *topology.Topology { return n.topo }

// Stats returns a snapshot of the network-wide counters, summed over
// domains. Do not call concurrently with a running group window.
func (n *Network) Stats() Stats {
	s := n.doms[0].stats
	for i := 1; i < len(n.doms); i++ {
		d := &n.doms[i].stats
		s.Sent += d.Sent
		s.SentBytes += d.SentBytes
		s.Delivered += d.Delivered
		s.DeliveredBytes += d.DeliveredBytes
		s.FaultDropped += d.FaultDropped
		s.RouteDropped += d.RouteDropped
		s.RouteDroppedBytes += d.RouteDroppedBytes
		s.AdminDropped += d.AdminDropped
		s.PFCPauses += d.PFCPauses
		s.CEMarked += d.CEMarked
		s.ProbesSent += d.ProbesSent
		s.ProbesLost += d.ProbesLost
	}
	return s
}

// SetReceiver registers the delivery callback for a host.
func (n *Network) SetReceiver(h topology.HostID, r Receiver) { n.hosts[h].recv = r }

// SetDequeueHook registers the NIC wire-out callback for a host.
func (n *Network) SetDequeueHook(h topology.HostID, hook DequeueHook) {
	n.hosts[h].onDequeue = hook
}

// AddIngressHook appends an ingress observer to a switch. Hooks run in
// registration order on every packet accepted at the switch's ingress.
func (n *Network) AddIngressHook(sw topology.SwitchID, hook IngressHook) {
	if hook == nil {
		panic("fabric: AddIngressHook(nil)")
	}
	n.ingressHooks[sw] = append(n.ingressHooks[sw], hook)
}

func (n *Network) recomputeFIBs() {
	up := func(l topology.LinkID) bool { return n.links[l].adminUp }
	n.fib.recompute(up)
}

// MaxQueueObserver, when non-nil, is called on every egress enqueue
// with the queue's depth after the push (test/diagnostic hook). The
// global trace hooks below are legacy-mode only: in sharded mode they
// would be invoked from several domains at once.
var MaxQueueObserver func(now sim.Time, sender topology.Endpoint, queuedBytes int64)

// TracePacket, when non-nil, observes packet progress (test hook).
var TracePacket func(now sim.Time, what string, at topology.Endpoint, p *Packet)

// TracePause, when non-nil, observes PFC pause/resume decisions (test
// hook).
var TracePause func(now sim.Time, pausedSender topology.Endpoint, prio int, pause bool, occ int64)
