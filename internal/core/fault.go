package core

import (
	"fmt"

	"flowpulse/internal/fabric"
	"flowpulse/internal/fault"
	"flowpulse/internal/sim"
	"flowpulse/internal/topology"
	"flowpulse/internal/trace"
)

// FaultKind names the loss process of a FaultSpec.
type FaultKind string

// The silent-fault processes a scenario can schedule.
const (
	// FaultBernoulli drops each packet independently with probability
	// Rate — §6's "configure a single leaf-spine link to drop packets at a
	// set rate".
	FaultBernoulli FaultKind = "bernoulli"
	// FaultBlackHole drops everything.
	FaultBlackHole FaultKind = "blackhole"
	// FaultGE is bursty Gilbert–Elliott loss with steady-state rate Rate.
	FaultGE FaultKind = "gilbert-elliott"
	// FaultFlap degrades BOTH directions of the link periodically: for
	// FlapDown out of every FlapPeriod, starting at FlapPhase, each packet
	// is dropped with probability Rate; the rest of the cycle runs clean.
	// The FIB does not know, which is what makes an intermittent cable
	// the worst case for any remediation loop (quarantine, probe clean,
	// re-admit, fail again). Unlike a dead link — which stalls the
	// collective's barrier until the flap lifts, collapsing each down
	// phase into one stretched iteration — a degraded link lets
	// iterations complete, so each down phase produces the consecutive
	// deviating windows that confirmation logic keys on.
	FaultFlap FaultKind = "flap"
	// FaultModel attaches the caller-built Model.
	FaultModel FaultKind = "model"
)

// FaultSpec is one entry of a scenario's silent-fault schedule: a loss
// process on one link, armed when the first job completes iteration
// Onset and — optionally — removed when it completes iteration Heal.
// Routing never reacts: the fault is silent. The JSON form is the
// simtest repro format.
type FaultSpec struct {
	Kind FaultKind `json:"kind"`
	// Onset is the iteration of the first job after which the fault is
	// live (iterations 1..Onset are clean; 0 arms it before training).
	// Heal, when positive, is the iteration after which it is removed.
	// Runtime.Train reads them; Runtime.Inject does not.
	Onset int `json:"onset,omitempty"`
	Heal  int `json:"heal,omitempty"`
	// Rate is the Bernoulli drop probability, the flap's in-burst loss,
	// or (for Gilbert–Elliott) the target steady-state loss.
	Rate float64 `json:"rate,omitempty"`

	// Leaf, Spine and Trunk name a leaf-spine link by fabric-wide ordinals,
	// as LeafSpineLink does (pod-major on a three-level fabric). Upstream
	// faults the direction toward the upper tier (leaf→spine — the "remote
	// link" case of Fig 4 as seen by downstream receivers) instead of the
	// one toward the lower; it and Trunk apply to every form of link, and
	// Upstream to every kind but the flap.
	Leaf     int  `json:"leaf,omitempty"`
	Spine    int  `json:"spine,omitempty"`
	Trunk    int  `json:"trunk,omitempty"`
	Upstream bool `json:"upstream,omitempty"`

	// Three-level fabrics (Scenario.Pods > 0) can also name the link by
	// pod-local ordinals: the spine→leaf link (Pod, LeafInPod, SpineInPod),
	// seen by the leaf monitors, or — CoreSpine — the core→spine link
	// between (Pod, SpineInPod) and the CoreIx-th core of that spine's
	// group, seen by the spine monitors: the tier a two-level deployment
	// cannot watch. A spec names its link one way: pod-local fields next
	// to a nonzero Leaf or Spine, or on a two-level fabric, are an error.
	// (The all-zero link is the same link under both forms; on three
	// levels it draws from the pod-local RNG stream.)
	CoreSpine  bool `json:"coreSpine,omitempty"`
	Pod        int  `json:"pod,omitempty"`
	LeafInPod  int  `json:"leafInPod,omitempty"`
	SpineInPod int  `json:"spineInPod,omitempty"`
	CoreIx     int  `json:"coreIx,omitempty"`

	// Gilbert–Elliott shape: the bad→good transition probability and the
	// bad state's loss (Rate fixes the good→bad probability).
	GEPBG     float64 `json:"gePBG,omitempty"`
	GELossBad float64 `json:"geLossBad,omitempty"`

	// Flap timing.
	FlapPeriod sim.Duration `json:"flapPeriodPS,omitempty"`
	FlapDown   sim.Duration `json:"flapDownPS,omitempty"`
	FlapPhase  sim.Duration `json:"flapPhasePS,omitempty"`

	// Model is the FaultModel kind's loss process, with whatever RNG
	// stream its builder gave it.
	Model fault.Model `json:"-"`
}

// String describes the fault the way flowpulse-sim's banner prints it.
func (f FaultSpec) String() string {
	var what string
	switch f.Kind {
	case FaultBernoulli:
		what = fmt.Sprintf("%.2f%% drop", 100*f.Rate)
	case FaultFlap:
		return fmt.Sprintf("lossy flap (%.2f%% while down, period %dµs) on %s, after iteration %d",
			100*f.Rate, f.FlapPeriod/sim.Microsecond, f.link(), f.Onset)
	case FaultGE:
		what = fmt.Sprintf("%.2f%% bursty loss", 100*f.Rate)
	case FaultModel:
		what = f.Model.String()
	default:
		what = string(f.Kind)
	}
	lower, upper := "leaf", "spine"
	if f.CoreSpine {
		lower, upper = "spine", "core"
	}
	dir := fmt.Sprintf("downstream (%s->%s)", upper, lower)
	if f.Upstream {
		dir = fmt.Sprintf("upstream (%s->%s)", lower, upper)
	}
	return fmt.Sprintf("%s on %s, %s, after iteration %d", what, f.link(), dir, f.Onset)
}

// podLocal reports whether f names its link by pod-local ordinals.
func (f FaultSpec) podLocal() bool {
	return f.CoreSpine || f.Pod != 0 || f.LeafInPod != 0 || f.SpineInPod != 0 || f.CoreIx != 0
}

// link names the faulted link in the form the spec's fields select.
func (f FaultSpec) link() string {
	switch {
	case f.CoreSpine:
		return fmt.Sprintf("pod %d spine %d / core %d", f.Pod, f.SpineInPod, f.CoreIx)
	case f.podLocal():
		return fmt.Sprintf("pod %d leaf %d / spine %d", f.Pod, f.LeafInPod, f.SpineInPod)
	}
	return fmt.Sprintf("leaf %d / spine %d", f.Leaf, f.Spine)
}

// faultSite is a FaultSpec's link resolved against a topology.
type faultSite struct {
	link topology.LinkID
	// lower and upper are the link's endpoints by tier.
	lower, upper topology.SwitchID
	// stream prefixes the RNG stream of a Bernoulli drop on the link.
	stream string
}

// check validates everything about f but its timing and resolves its
// link: user input (CLI flags, -spec JSON, facade calls) reaches the
// fault constructors only through here, so their panics stay bugs.
func (f FaultSpec) check(topo *topology.Topology) (faultSite, error) {
	bad := func(format string, args ...any) (faultSite, error) {
		return faultSite{}, fmt.Errorf("core: %s fault: %s", f.Kind, fmt.Sprintf(format, args...))
	}
	switch f.Kind {
	case FaultBlackHole:
	case FaultModel:
		if f.Model == nil {
			return bad("no Model")
		}
	case FaultBernoulli, FaultGE, FaultFlap:
		if !(f.Rate >= 0 && f.Rate <= 1) {
			return bad("rate %v outside [0,1]", f.Rate)
		}
		if f.Kind == FaultFlap && (f.FlapPeriod <= 0 || f.FlapDown < 0 || f.FlapDown > f.FlapPeriod) {
			return bad("down phase %v outside [0, period %v]", f.FlapDown, f.FlapPeriod)
		}
		if f.Kind == FaultGE {
			if pGB, ok := f.gePGB(); !ok {
				return bad("no good→bad probability in [0,1] gives steady-state loss %v with gePBG %v, geLossBad %v (solved %v)",
					f.Rate, f.GEPBG, f.GELossBad, pGB)
			}
		}
	default:
		return bad("unknown kind")
	}
	return f.site(topo)
}

// site resolves the link f names, in whichever of its forms: the same
// decision link prints.
func (f FaultSpec) site(topo *topology.Topology) (s faultSite, err error) {
	at := func(what string, of []topology.SwitchID, i int) topology.SwitchID {
		if i >= 0 && i < len(of) {
			return of[i]
		}
		if err == nil {
			err = fmt.Errorf("core: link %s: %s %d outside topology", f.link(), what, i)
		}
		return -1
	}
	fabricWide := f.Leaf != 0 || f.Spine != 0
	switch {
	case f.podLocal() && fabricWide:
		err = fmt.Errorf("core: link %s: also named leaf %d / spine %d; name it one way", f.link(), f.Leaf, f.Spine)
	case f.podLocal() && topo.Levels == 2:
		err = fmt.Errorf("core: link %s: pod-local ordinals on a two-level fabric", f.link())
	case f.CoreSpine:
		spines := topo.SpinesOfPod(f.Pod)
		s = faultSite{lower: at("spine", spines, f.SpineInPod), stream: "c3cs"}
		if err == nil {
			// Cores are grouped by spine ordinal (topology.NewClos3).
			per := len(topo.Cores()) / len(spines)
			s.upper = at("core", topo.Cores()[f.SpineInPod*per:][:per], f.CoreIx)
		}
	case topo.Levels == 2 || fabricWide:
		s = faultSite{lower: at("leaf", topo.Leaves(), f.Leaf), upper: at("spine", topo.Spines(), f.Spine), stream: "silent"}
	default:
		s = faultSite{lower: at("leaf", topo.LeavesOfPod(f.Pod), f.LeafInPod), upper: at("spine", topo.SpinesOfPod(f.Pod), f.SpineInPod), stream: "c3sl"}
	}
	if err != nil {
		return faultSite{}, err
	}
	// (A leaf and a spine of different pods share no link.)
	trunks := topo.TrunkLinks(s.lower, s.upper)
	if f.Trunk < 0 || f.Trunk >= len(trunks) {
		return faultSite{}, fmt.Errorf("core: link %s: trunk %d outside topology (its ends share %d links)", f.link(), f.Trunk, len(trunks))
	}
	s.link = trunks[f.Trunk]
	return s, nil
}

// gePGB solves the Gilbert–Elliott good→bad probability that makes Rate
// the steady-state loss given the burst shape: piB·lossBad = Rate with
// piB = pGB/(pGB+pBG).
func (f FaultSpec) gePGB() (pGB float64, ok bool) {
	piB := f.Rate / f.GELossBad
	pGB = piB * f.GEPBG / (1 - piB)
	ok = f.GEPBG >= 0 && f.GEPBG <= 1 && f.GELossBad > 0 && f.GELossBad <= 1 && pGB >= 0 && pGB <= 1
	return pGB, ok
}

// checkFaults validates a scenario's schedule: each entry's check, its
// timing against the first job's iteration count, and that a link carries
// one scheduled fault at a time — the fabric holds one loss process per
// direction and Heal clears the whole link, so a second entry live on the
// same link would be replaced by the first's injection or removed by its
// heal.
func checkFaults(faults []FaultSpec, topo *topology.Topology, iterations int) error {
	links := make([]topology.LinkID, len(faults))
	for i, f := range faults {
		s, err := f.check(topo)
		switch {
		case err != nil:
			return err
		case f.Onset < 0 || f.Onset > iterations:
			return fmt.Errorf("core: %s fault: onset after iteration %d, but training runs %d", f.Kind, f.Onset, iterations)
		case f.Heal != 0 && (f.Heal <= f.Onset || f.Heal > iterations):
			return fmt.Errorf("core: %s fault: heal after iteration %d outside (onset %d, %d iterations]", f.Kind, f.Heal, f.Onset, iterations)
		}
		links[i] = s.link
		for j, g := range faults[:i] {
			// An entry is live from its onset through its heal, or the end.
			if links[j] == s.link && (g.Heal == 0 || f.Onset <= g.Heal) && (f.Heal == 0 || g.Onset <= f.Heal) {
				return fmt.Errorf("core: faults %d and %d are both live on %s after iteration %d; a link carries one scheduled fault at a time",
					j, i, f.link(), max(f.Onset, g.Onset))
			}
		}
	}
	return nil
}

// armedFault is a fault Inject attached and Heal has not yet removed.
type armedFault struct {
	link topology.LinkID
	spec FaultSpec
}

// Inject arms f on the fabric now and returns the faulted link. It is
// the one injector: Train applies Scenario.Faults through it and the
// facade's BreakLink family wraps it, so every silent fault draws from
// an RNG stream named here, marks the goodput timeline when one is
// armed, and — on a traced run — leaves its ground-truth record.
func (rt *Runtime) Inject(f FaultSpec) (topology.LinkID, error) {
	s, err := f.check(rt.Topo)
	if err != nil {
		return 0, err
	}
	// Stream names are part of every fingerprint; "simtest/ge" dates from
	// when only the fuzzer injected bursty loss.
	rng := func(format string, args ...any) *sim.RNG {
		return sim.NewRNG(rt.Scenario.Seed, fmt.Sprintf(format, args...))
	}
	toward, stream := s.lower, s.stream
	if f.Upstream {
		toward, stream = s.upper, s.stream+"up"
	}
	type arm struct {
		dir fabric.Direction
		m   fault.Model
	}
	arms := []arm{{dir: rt.Net.DirToward(s.link, toward)}}
	switch f.Kind {
	case FaultBernoulli:
		arms[0].m = fault.NewBernoulliDrop(f.Rate, rng("%s/%d", stream, s.link))
	case FaultBlackHole:
		arms[0].m = fault.BlackHole{}
	case FaultGE:
		pGB, _ := f.gePGB()
		arms[0].m = fault.NewGilbertElliott(pGB, f.GEPBG, 0, f.GELossBad, rng("simtest/ge/%d", s.link))
	case FaultModel:
		arms[0].m = f.Model
	case FaultFlap:
		flap := func(inner *sim.RNG) fault.Model {
			m := fault.NewLinkFlap(f.FlapPeriod, f.FlapDown, f.FlapPhase)
			m.Inner = fault.NewBernoulliDrop(f.Rate, inner)
			return m
		}
		// Contract decision 3, the flap's streams. A fabric samples each
		// direction's fault process in the domain that owns the receiving
		// endpoint — two different domains for a leaf-spine link on the
		// per-switch partition — so there the directions cannot share one
		// Bernoulli stream and each gets its own. One domain keeps the
		// shared stream its fingerprints were recorded with.
		if rt.EngineGroup.Domains() > 1 {
			arms = []arm{
				{fabric.DirAtoB, flap(rng("flap/%d/0", s.link))},
				{fabric.DirBtoA, flap(rng("flap/%d/1", s.link))},
			}
		} else {
			arms = []arm{{fabric.DirBoth, flap(rng("flap/%d", s.link))}}
		}
	}
	rt.Goodput.MarkFault(int64(rt.Engine.Now()))
	for _, a := range arms {
		rt.Net.InjectFault(s.link, a.dir, a.m)
	}
	rt.armed = append(rt.armed, armedFault{s.link, f})
	rt.recordFault(f, false)
	return s.link, nil
}

// Heal removes every silent fault from the link f names (only f's link
// fields are read), recording the heal of each fault Inject armed there.
func (rt *Runtime) Heal(f FaultSpec) error {
	s, err := f.site(rt.Topo)
	if err != nil {
		return err
	}
	rt.Net.ClearFault(s.link)
	kept := rt.armed[:0]
	for _, a := range rt.armed {
		if a.link == s.link {
			rt.recordFault(a.spec, true)
		} else {
			kept = append(kept, a)
		}
	}
	rt.armed = kept
	return nil
}

// recordFault appends the ground truth of one injection (or heal) to the
// run's trace, labeled with the first job's current iteration: the fault
// is active for iterations strictly after it. (Only two-level runs are
// traced, where Leaf and Spine are the only names a link has.)
func (rt *Runtime) recordFault(f FaultSpec, clear bool) {
	if rt.sys == nil || rt.sys.trc == nil {
		return
	}
	rt.sys.trc.Fault(trace.FaultRecord{
		At:         rt.Engine.Now(),
		Kind:       string(f.Kind),
		LeafOrd:    f.Leaf,
		SpineOrd:   f.Spine,
		Trunk:      f.Trunk,
		Upstream:   f.Upstream,
		Rate:       f.Rate,
		OnsetIter:  rt.iter,
		Clear:      clear,
		FlapPeriod: f.FlapPeriod,
		FlapDown:   f.FlapDown,
		FlapPhase:  f.FlapPhase,
	})
}

// applyFaults arms and heals the scheduled faults due at the first job's
// current iteration. Build validated the schedule, so Inject and Heal
// cannot fail here.
func (rt *Runtime) applyFaults() {
	for _, f := range rt.Scenario.Faults {
		var err error
		switch {
		case f.Onset == int(rt.iter):
			_, err = rt.Inject(f)
		case f.Heal > 0 && f.Heal == int(rt.iter):
			err = rt.Heal(f)
		}
		if err != nil {
			panic(err)
		}
	}
}
