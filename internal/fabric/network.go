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
	// engine. Engine alone is the one-domain fabric: every node executes
	// on it.
	Engine *sim.Engine
	// Group and Partition place the fabric on a group's domains: each
	// switch (plus its attached hosts) executes on the engine of its
	// Partition domain, and cross-domain packet handoff goes through
	// the group's barrier mailboxes. Set both or neither.
	Group     *sim.Group
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
// object pools, and packet-ID allocation. Each partition domain owns
// one and touches only its own, so worker domains never contend — the
// only cross-domain traffic is the posts at the window barrier. The
// one-domain partition has exactly one, shared by every node.
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

// Network is the simulated fabric. Each node's state belongs to its
// partition domain and is touched only by that domain's events;
// administrative operations (fault injection, SetLinkAdmin, ProbeLink)
// must run on the control engine. On the one-domain partition that is
// one goroutine for everything.
type Network struct {
	cfg    Config
	topo   *topology.Topology
	engine *sim.Engine // control engine

	grp *sim.Group // nil over a bare Config.Engine, which never posts

	hosts    []hostState
	switches []switchState
	links    []linkState

	// doms holds the per-domain state. The slice is allocated once and
	// never grows, so the interior pointers held by nodes and link
	// directions stay valid.
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
	if cfg.Topo == nil {
		return nil, fmt.Errorf("fabric: Config.Topo is required")
	}
	if cfg.Group == nil {
		// A bare engine is the control engine of the one-domain partition.
		// Nothing below asks again which form the caller used.
		if cfg.Engine == nil {
			return nil, fmt.Errorf("fabric: Config.Engine or Config.Group is required")
		}
		cfg.Partition = topology.OneDomain(cfg.Topo)
	} else {
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
	cfg.setDefaults()

	n := &Network{
		cfg:          cfg,
		topo:         cfg.Topo,
		engine:       cfg.Engine,
		grp:          cfg.Group,
		hosts:        make([]hostState, len(cfg.Topo.Hosts)),
		switches:     make([]switchState, len(cfg.Topo.Switches)),
		links:        make([]linkState, len(cfg.Topo.Links)),
		ingressHooks: make([][]IngressHook, len(cfg.Topo.Switches)),
	}

	n.doms = make([]domainState, cfg.Partition.NumDomains)
	for d := range n.doms {
		eng := cfg.Engine // domain 0 is control
		if d > 0 {
			eng = cfg.Group.Engine(d)
		}
		n.doms[d] = domainState{eng: eng, dom: d, decay: newDecayMemo(float64(cfg.SprayMemory))}
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
		ss.d = &n.doms[cfg.Partition.DomainOfSwitch[i]]
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
		hs.d = &n.doms[cfg.Partition.DomainOfHost[i]]
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
	if ep.Kind == topology.HostEnd {
		return &n.doms[n.cfg.Partition.DomainOfHost[ep.Host]]
	}
	return &n.doms[n.cfg.Partition.DomainOfSwitch[ep.Switch]]
}

// Engine returns the control engine — domain 0's, the only one on the
// one-domain partition.
func (n *Network) Engine() *sim.Engine { return n.engine }

// Domains returns how many domains the fabric is partitioned into,
// control included.
func (n *Network) Domains() int { return len(n.doms) }

// EngineOf returns the engine that executes a host's events, its
// domain's. Traffic sources (transports, injectors) must schedule a
// host's work here.
func (n *Network) EngineOf(h topology.HostID) *sim.Engine { return n.hosts[h].d.eng }

// DomainOf returns a host's partition domain.
func (n *Network) DomainOf(h topology.HostID) int { return n.hosts[h].d.dom }

// DomainOfSwitch returns a switch's partition domain.
func (n *Network) DomainOfSwitch(sw topology.SwitchID) int { return n.switches[sw].d.dom }

// After and Call are the domain rule for everything above the fabric
// that one domain hands another — a collective's start and completion,
// a generator's send, a monitor's closed window: within a domain a
// hand-off is a call, between domains it is a post. Callers name the
// domain they execute in (from) and the one that owns the state fn
// touches (to), and never ask how the run is partitioned: on one domain
// every hand-off takes the first branch, and a host or switch of a
// several-domain partition is never in the control domain, so every
// hand-off to or from control takes the second. (A packet's hops follow
// the same rule with pooled timers; see linkDir.crossDom.)
//
// After runs fn d after from's clock: scheduled on from's own engine,
// or posted lax — control emits after the workers' share of a window,
// so a time inside it is deferred to the window's end.
func (n *Network) After(from, to int, d sim.Duration, fn sim.Handler) {
	eng := n.doms[from].eng
	if from == to {
		eng.After(d, fn)
		return
	}
	n.grp.PostLax(from, to, eng.Now().Add(d), fn)
}

// Call runs fn at from's clock: inline, or posted for to's engine to
// run at that instant. Outside a run nothing would drain a post and one
// goroutine owns every domain (set-up, the final flush), so there too
// it is inline.
func (n *Network) Call(from, to int, fn sim.Handler) {
	eng := n.doms[from].eng
	if from == to || !n.grp.Running() {
		fn(eng.Now())
		return
	}
	n.grp.PostLax(from, to, eng.Now(), fn)
}

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
// global trace hooks below are for one domain only: several would
// invoke them at once.
var MaxQueueObserver func(now sim.Time, sender topology.Endpoint, queuedBytes int64)

// TracePacket, when non-nil, observes packet progress (test hook).
var TracePacket func(now sim.Time, what string, at topology.Endpoint, p *Packet)

// TracePause, when non-nil, observes PFC pause/resume decisions (test
// hook).
var TracePause func(now sim.Time, pausedSender topology.Endpoint, prio int, pause bool, occ int64)
