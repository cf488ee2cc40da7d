// Package control separates what the system believes about the fabric
// from what the fabric is. Plane owns the *believed* topology view —
// per-switch LSDB-style link advertisements plus the admin/quarantine
// overlay and a believed FIB — and is the only path that mutates the
// real fabric. Every mutation is a declarative ChangeSet: intent →
// push → verify-own-writes (read-back against live state) → commit,
// or bounded retries then rollback + alert.
//
// The split makes an entire fault class representable that direct
// fabric setters cannot: divergence between belief and truth (failed
// config pushes, stale LSDBs, partially applied rollouts — see
// fault.Divergence). The predictor consumes the plane's believed view,
// so an injected belief error propagates into wrong traffic
// expectations exactly the way a production controller's stale model
// would. Repair has three layers: verification catches bad writes at
// write time, Reconcile catches accumulated divergence when the
// remediator is about to act on a suspect deviation, and the periodic
// audit (Config.AuditEvery) bounds the lifetime of anything else.
//
// With no divergence injected the plane is invisible: pushes are the
// same SetLinkAdmin calls in the same order, read-back verification
// consumes no randomness and schedules no events, and the believed
// FIB runs the fabric's own table-build code against an identical
// predicate — runs are byte-identical to a planeless build.
package control

import (
	"fmt"
	"sort"

	"flowpulse/internal/fabric"
	"flowpulse/internal/fault"
	"flowpulse/internal/sim"
	"flowpulse/internal/topology"
)

// Fabric is the narrow push/read-back surface the plane drives — the
// only fabric mutation capability anything above the fabric holds.
type Fabric interface {
	Topology() *topology.Topology
	// SetLinkAdmin pushes an administrative state change to the fabric.
	SetLinkAdmin(link topology.LinkID, up bool)
	// LinkAdminUp reads the live administrative state back — the
	// verify-own-writes primitive.
	LinkAdminUp(link topology.LinkID) bool
	// ProbeLink sends one OAM liveness probe over a link direction.
	ProbeLink(link topology.LinkID, dir fabric.Direction, size int, onResult func(now sim.Time, delivered bool))
}

// Config tunes the plane.
type Config struct {
	// Verify enables verify-own-writes: after each push the plane
	// reads the live state back, re-pushes on mismatch (maxRetries
	// times), and rolls the ChangeSet back if the write never lands.
	// When false the plane commits intent to belief blindly — the
	// baseline arm of the divergence experiment, and how divergence
	// persists.
	Verify bool
	// AuditEvery runs a belief-vs-truth audit over every link at this
	// cadence (driven by window-close ticks, so it adds no engine
	// events). 0 disables; leave it 0 unless divergence is injected.
	AuditEvery sim.Duration
}

// maxRetries bounds re-pushes after a failed read-back.
const maxRetries = 2

// Op is one declarative operation: drive a link to an administrative
// state.
type Op struct {
	Link topology.LinkID
	Up   bool
}

// Status is the terminal state of a ChangeSet.
type Status uint8

const (
	// Committed: every op verified (or, unverified, assumed) applied.
	Committed Status = iota
	// RolledBack: verification failed after retries; landed ops were
	// reverted and belief re-synced to truth.
	RolledBack
)

func (s Status) String() string {
	if s == RolledBack {
		return "rolled-back"
	}
	return "committed"
}

// ChangeSet is one verified mutation of the fabric: the declared
// intent, what happened to it, and the repair work it took.
type ChangeSet struct {
	ID      uint64
	At      sim.Time
	Reason  string
	Ops     []Op
	Status  Status
	Retries int
}

// Alert reports a mutation the plane could not realize or a
// divergence it repaired.
type Alert struct {
	At     sim.Time
	Reason string
	Detail string
}

// Stats counts the plane's work. Everything here is bookkeeping on
// top of the fabric's own counters; none of it feeds fingerprints.
type Stats struct {
	ChangeSets int // Apply calls
	Committed  int // ... that committed
	RolledBack int // ... that rolled back after failed verification
	Pushed     int // SetLinkAdmin calls issued
	Notes      int // op-less log entries (workload re-plans)

	PushesDropped    int // pushes eaten by injected failed-push faults
	OpsStalled       int // ops beyond an injected partial-rollout cap
	StaleInjected    int // LSDB advertisements corrupted by injection
	VerifyMismatches int // read-backs that contradicted the push
	Retries          int // re-pushes issued by verification
	StaleAdopted     int // belief entries re-synced to truth by repair
	Reconciles       int // Reconcile calls that found divergence
	Audits           int // periodic audits run
	AuditRepairs     int // ... that found and repaired divergence

	Divergences   int          // belief≠truth episodes opened
	Reconciled    int          // ... closed (belief converged back)
	TotalDiverged sim.Duration // summed episode lengths
	MaxDiverged   sim.Duration // longest episode
}

// advSlot addresses one switch's advertisement for a link.
type advSlot struct {
	sw  topology.SwitchID
	idx int
}

// staleInj is a pending timed LSDB corruption.
type staleInj struct {
	at   sim.Time
	link topology.LinkID
	up   bool
}

// Plane is the control plane: believed link state, believed FIB, the
// ChangeSet log, and the divergence-injection machinery.
type Plane struct {
	cfg  Config
	fab  Fabric
	topo *topology.Topology

	adv    [][]bool  // [switch][port] advertised link state (LSDB)
	slots  []advSlot // flattened per-link advertisement slots...
	slotAt []int     // ...indexed by slots[slotAt[link]:slotAt[link+1]]
	belief []bool    // derived believed admin state per link
	intent []bool    // last committed desired state per link
	fib    *fabric.BeliefFIB
	dirty  bool // belief changed since last FIB recompute

	skipPushes int // injected: pushes to let through before dropping
	dropPushes int // injected: pushes to silently drop
	partialOps int // injected: one-shot op cap for the next larger ChangeSet
	stale      []staleInj

	log      []ChangeSet
	alerts   []Alert
	stats    Stats
	episodes []sim.Duration

	diverged   bool
	divergedAt sim.Time
	lastAudit  sim.Time
	nextID     uint64
}

// New builds a plane over a fabric. Belief is initialized from the
// live state, so a fresh plane is always consistent.
func New(cfg Config, fab Fabric) *Plane {
	topo := fab.Topology()
	p := &Plane{
		cfg:    cfg,
		fab:    fab,
		topo:   topo,
		adv:    make([][]bool, len(topo.Switches)),
		slotAt: make([]int, len(topo.Links)+1),
		belief: make([]bool, len(topo.Links)),
		intent: make([]bool, len(topo.Links)),
		fib:    fabric.NewBeliefFIB(topo),
	}
	for sw := range topo.Switches {
		p.adv[sw] = make([]bool, len(topo.Switches[sw].Ports))
	}
	ends := make([][]advSlot, len(topo.Links))
	for sw := range topo.Switches {
		for i, pd := range topo.Switches[sw].Ports {
			ends[pd.Link] = append(ends[pd.Link], advSlot{topology.SwitchID(sw), i})
		}
	}
	for l := range topo.Links {
		p.slotAt[l] = len(p.slots)
		p.slots = append(p.slots, ends[l]...)
	}
	p.slotAt[len(topo.Links)] = len(p.slots)
	for l := range topo.Links {
		truth := fab.LinkAdminUp(topology.LinkID(l))
		p.setAdv(topology.LinkID(l), truth)
		p.intent[l] = truth
	}
	p.dirty = true
	p.refreshFIB()
	return p
}

// Topology returns the fabric topology.
func (p *Plane) Topology() *topology.Topology { return p.topo }

// LinkAdminUp reports the *believed* administrative state — the
// predictor's view of routing (predict.FIBView). It can diverge from
// the fabric's own LinkAdminUp; that gap is exactly the injected
// fault.
func (p *Plane) LinkAdminUp(link topology.LinkID) bool { return p.belief[link] }

// LeafUplinkCandidates returns the believed spray set (predict.FIBView).
func (p *Plane) LeafUplinkCandidates(leaf, dstLeaf topology.SwitchID) []int {
	return p.fib.LeafUplinkCandidates(leaf, dstLeaf)
}

// ProbeLink forwards an OAM liveness probe to the fabric: re-admission
// verification flows through the plane like every other control
// action.
func (p *Plane) ProbeLink(link topology.LinkID, dir fabric.Direction, size int, onResult func(now sim.Time, delivered bool)) {
	p.fab.ProbeLink(link, dir, size, onResult)
}

// Quarantine drives a link administratively down through a verified
// ChangeSet and reports whether the change committed. The remediator
// keeps the confirmation armed and retries when it fails.
func (p *Plane) Quarantine(now sim.Time, link topology.LinkID) bool {
	return p.Apply(now, "quarantine", []Op{{Link: link, Up: false}})
}

// Readmit drives a link administratively up through a verified
// ChangeSet and reports whether the change committed. On failure the
// remediator keeps the link quarantined and retries at the next clean
// probe round.
func (p *Plane) Readmit(now sim.Time, link topology.LinkID) bool {
	return p.Apply(now, "readmit", []Op{{Link: link, Up: true}})
}

// Note appends an op-less entry to the ChangeSet log — the audit
// trail for mutations that change the workload rather than the fabric
// (collective re-plans adopting a quarantine).
func (p *Plane) Note(now sim.Time, reason, detail string) {
	p.nextID++
	p.log = append(p.log, ChangeSet{ID: p.nextID, At: now, Reason: reason + ": " + detail, Status: Committed})
	p.stats.Notes++
}

// Apply runs one ChangeSet through the full lifecycle: record intent,
// push each op, verify-own-writes with bounded re-pushes, then commit
// belief — or roll the landed ops back, re-sync belief to truth, and
// alert. It reports whether the ChangeSet committed.
func (p *Plane) Apply(now sim.Time, reason string, ops []Op) bool {
	p.nextID++
	cs := ChangeSet{ID: p.nextID, At: now, Reason: reason, Ops: append([]Op(nil), ops...)}
	p.stats.ChangeSets++

	limit := len(ops)
	if p.partialOps > 0 && len(ops) > p.partialOps {
		limit = p.partialOps
		p.partialOps = 0
		p.stats.OpsStalled += len(ops) - limit
	}
	prior := make([]bool, len(ops))
	landed := make([]bool, len(ops))
	for i, op := range ops {
		prior[i] = p.fab.LinkAdminUp(op.Link)
		if i >= limit || p.dropPush() {
			continue
		}
		p.push(op)
		landed[i] = true
	}

	if p.cfg.Verify {
		failed := false
		for i, op := range ops {
			if p.fab.LinkAdminUp(op.Link) == op.Up {
				continue
			}
			p.stats.VerifyMismatches++
			for try := 0; try < maxRetries && p.fab.LinkAdminUp(op.Link) != op.Up; try++ {
				cs.Retries++
				p.stats.Retries++
				if !p.dropPush() {
					p.push(op)
					landed[i] = true
				}
			}
			if p.fab.LinkAdminUp(op.Link) != op.Up {
				failed = true
			}
		}
		if failed {
			// Revert what landed and re-sync belief to truth. Rollback
			// pushes bypass injected push-drops: the injection models a
			// lost forward intent, and losing the revert too would
			// strand the fabric in a state that is neither old nor new.
			for i, op := range ops {
				if landed[i] && p.fab.LinkAdminUp(op.Link) != prior[i] {
					p.push(Op{Link: op.Link, Up: prior[i]})
				}
			}
			for _, op := range ops {
				p.adoptTruth(op.Link)
			}
			cs.Status = RolledBack
			p.stats.RolledBack++
			p.log = append(p.log, cs)
			p.alert(now, reason, fmt.Sprintf("changeset %d rolled back after %d retries", cs.ID, cs.Retries))
			p.refreshFIB()
			p.updateEpisode(now)
			return false
		}
	}

	// Commit: belief follows intent. Verified mode just proved truth
	// matches; unverified mode takes the leap of faith divergence
	// exploits.
	for _, op := range ops {
		p.setAdv(op.Link, op.Up)
		p.intent[op.Link] = op.Up
	}
	cs.Status = Committed
	p.stats.Committed++
	p.log = append(p.log, cs)
	p.refreshFIB()
	p.updateEpisode(now)
	return true
}

// Reconcile is the remediator's pre-quarantine check: when a deviation
// is consistent with "belief ≠ truth", repair the view instead of
// quarantining a healthy link. It scans every link (read-backs are
// free), re-pushes intents the fabric lost, adopts truth over stale
// advertisements, and reports whether it found anything — false means
// the belief is clean and the deviation deserves a real quarantine.
// An unverified plane trusts its own writes and never second-guesses:
// that asymmetry is the experiment.
func (p *Plane) Reconcile(now sim.Time) bool {
	if !p.cfg.Verify {
		return false
	}
	if !p.repair(now, "reconcile") {
		return false
	}
	p.stats.Reconciles++
	return true
}

// Tick drives time-based divergence machinery from window closes:
// pending stale-LSDB injections land, and the periodic audit runs.
// With nothing injected and no audit configured this is two compares.
func (p *Plane) Tick(now sim.Time) {
	for len(p.stale) > 0 && p.stale[0].at <= now {
		inj := p.stale[0]
		p.stale = p.stale[1:]
		p.corruptAdv(inj.link, inj.up)
		p.stats.StaleInjected++
		p.refreshFIB()
		p.updateEpisode(now)
	}
	if p.cfg.AuditEvery > 0 && sim.Duration(now-p.lastAudit) >= p.cfg.AuditEvery {
		p.lastAudit = now
		p.stats.Audits++
		if p.repair(now, "audit") {
			p.stats.AuditRepairs++
		}
	}
}

// Inject arms a control-plane divergence fault.
func (p *Plane) Inject(d fault.Divergence) {
	switch d.Kind {
	case fault.DivergeFailedPush:
		p.skipPushes += d.Skip
		p.dropPushes += d.Count
	case fault.DivergeStaleLSDB:
		p.stale = append(p.stale, staleInj{at: d.At, link: d.Link, up: d.Up})
		sort.SliceStable(p.stale, func(i, j int) bool { return p.stale[i].at < p.stale[j].at })
	case fault.DivergePartialRollout:
		p.partialOps = d.Ops
	}
}

// Divergent returns every link whose truth disagrees with belief or
// committed intent — the fuzz oracle's convergence check. Empty means
// the plane's model of the fabric is exact.
func (p *Plane) Divergent() []topology.LinkID {
	var out []topology.LinkID
	for l := range p.belief {
		link := topology.LinkID(l)
		truth := p.fab.LinkAdminUp(link)
		if truth != p.belief[l] || truth != p.intent[l] {
			out = append(out, link)
		}
	}
	return out
}

// Stats returns the plane's counters.
func (p *Plane) Stats() Stats { return p.stats }

// Episodes returns the length of every closed divergence episode.
func (p *Plane) Episodes() []sim.Duration { return append([]sim.Duration(nil), p.episodes...) }

// Log returns the ChangeSet log.
func (p *Plane) Log() []ChangeSet { return p.log }

// Alerts returns the rollback/divergence alerts raised so far.
func (p *Plane) Alerts() []Alert { return p.alerts }

// repair is the shared reconcile/audit pass. Lost intents are
// re-pushed through a verified ChangeSet; stale advertisements adopt
// truth. Reports whether any divergence was found.
func (p *Plane) repair(now sim.Time, reason string) bool {
	var repush []Op
	var adopt []topology.LinkID
	for l := range p.belief {
		link := topology.LinkID(l)
		truth := p.fab.LinkAdminUp(link)
		if truth != p.intent[l] {
			repush = append(repush, Op{Link: link, Up: p.intent[l]})
		} else if p.belief[l] != truth {
			adopt = append(adopt, link)
		}
	}
	if len(repush) == 0 && len(adopt) == 0 {
		return false
	}
	for _, link := range adopt {
		p.adoptTruth(link)
		p.stats.StaleAdopted++
	}
	if len(repush) > 0 {
		p.Apply(now, reason, repush)
	}
	p.refreshFIB()
	p.updateEpisode(now)
	return true
}

// push issues one SetLinkAdmin to the fabric.
func (p *Plane) push(op Op) {
	p.fab.SetLinkAdmin(op.Link, op.Up)
	p.stats.Pushed++
}

// dropPush consumes the failed-push injection state for one push and
// reports whether this push is silently lost.
func (p *Plane) dropPush() bool {
	if p.skipPushes > 0 {
		p.skipPushes--
		return false
	}
	if p.dropPushes > 0 {
		p.dropPushes--
		p.stats.PushesDropped++
		return true
	}
	return false
}

// setAdv writes every advertisement slot of a link and refreshes its
// believed state.
func (p *Plane) setAdv(link topology.LinkID, up bool) {
	for _, s := range p.slots[p.slotAt[link]:p.slotAt[link+1]] {
		p.adv[s.sw][s.idx] = up
	}
	p.refreshBelief(link)
}

// corruptAdv overwrites a single switch's advertisement — the
// stale-LSDB injection: one side of the link remembers a state the
// fabric has moved past.
func (p *Plane) corruptAdv(link topology.LinkID, up bool) {
	slots := p.slots[p.slotAt[link]:p.slotAt[link+1]]
	if len(slots) == 0 {
		return
	}
	p.adv[slots[0].sw][slots[0].idx] = up
	p.refreshBelief(link)
}

// adoptTruth re-syncs a link's advertisements (and so its belief) to
// the fabric's live state.
func (p *Plane) adoptTruth(link topology.LinkID) {
	p.setAdv(link, p.fab.LinkAdminUp(link))
}

// refreshBelief re-derives a link's believed state: up iff every
// terminating switch advertises it up.
func (p *Plane) refreshBelief(link topology.LinkID) {
	up := true
	for _, s := range p.slots[p.slotAt[link]:p.slotAt[link+1]] {
		up = up && p.adv[s.sw][s.idx]
	}
	if p.belief[link] != up {
		p.belief[link] = up
		p.dirty = true
	}
}

// refreshFIB reconverges the believed FIB if belief changed — the
// same full-rebuild semantics as the fabric's own recompute.
func (p *Plane) refreshFIB() {
	if !p.dirty {
		return
	}
	p.dirty = false
	p.fib.Recompute(func(l topology.LinkID) bool { return p.belief[l] })
}

// updateEpisode tracks belief≠truth episodes for the divergence
// metrics (time-to-reconcile).
func (p *Plane) updateEpisode(now sim.Time) {
	div := false
	for l := range p.belief {
		truth := p.fab.LinkAdminUp(topology.LinkID(l))
		if truth != p.belief[l] || truth != p.intent[l] {
			div = true
			break
		}
	}
	switch {
	case div && !p.diverged:
		p.diverged = true
		p.divergedAt = now
		p.stats.Divergences++
	case !div && p.diverged:
		p.diverged = false
		d := sim.Duration(now - p.divergedAt)
		p.episodes = append(p.episodes, d)
		p.stats.Reconciled++
		p.stats.TotalDiverged += d
		if d > p.stats.MaxDiverged {
			p.stats.MaxDiverged = d
		}
	}
}

func (p *Plane) alert(now sim.Time, reason, detail string) {
	a := Alert{At: now, Reason: reason, Detail: detail}
	p.alerts = append(p.alerts, a)
}
