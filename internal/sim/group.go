package sim

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
)

// Group is a conservative parallel discrete-event scheduler: a set of
// Engines (one per simulation domain) advanced in lockstep time
// windows. Domain 0 is the control domain (monitoring, workload
// orchestration, remediation); domains 1..N-1 are worker domains
// (typically one per switch plus its directly attached hosts).
//
// Synchronization is window-barrier conservative PDES: every window
// covers [start, start+lookahead), where lookahead is the minimum
// cross-domain link latency. Within a window the worker domains run
// concurrently — they cannot affect each other before the horizon, by
// the lookahead property — then the barrier drains cross-domain posts
// in a canonical order, the control domain runs its share of the
// window sequentially (so monitor pipelines observe a consistent
// global state), and control's own posts are drained.
//
// Determinism does not depend on the worker count: the logical
// execution order is a pure function of the domain partition, the
// window schedule, and the canonical (time, from-domain, emission
// index) mailbox drain order. Workers only pack domains onto OS
// threads; runs with 1 worker and 64 workers are bit-identical.
//
// A group of one domain is the single-threaded scheduler: with nothing
// to wait out, its lookahead is unbounded, a run is the one window
// [t, Never), no post ever reaches a mailbox, and RunUntil fires the
// control engine exactly as Engine.RunUntil would.
type Group struct {
	engines   []*Engine
	lookahead Duration
	workers   int

	// windowStart/windowEnd bound the window currently executing.
	// They are written by the coordinator before workers are released
	// and are read-only until the barrier, so workers may read them
	// without further synchronization.
	windowStart Time
	windowEnd   Time

	// outbox[from] is the mailbox of posts emitted by domain `from`
	// during the current window. Each is written by exactly one worker
	// (the one executing that domain), so no locking is needed; the
	// barrier drains them all on the coordinator goroutine.
	outbox [][]post

	running bool
	stopped bool
	closed  bool

	startCh chan Time
	doneWG  sync.WaitGroup
	nextDom atomic.Int64
}

// post is one cross-domain event handoff. Exactly one of fn and tm is
// set. Posts are stored by value in per-domain mailboxes and copied to
// the destination heap at the barrier, so steady-state handoff does
// not allocate.
type post struct {
	at Time
	to int32
	fn Handler
	tm Timer
}

// GroupConfig configures a Group.
type GroupConfig struct {
	// Domains is the number of domains including the control domain:
	// at least 1 (control alone).
	Domains int
	// Lookahead is the synchronization window width: the minimum
	// latency of any cross-domain interaction. Posts between worker
	// domains must land at least this far past the window start. One
	// domain has no such interaction and ignores it.
	Lookahead Duration
	// Workers is the number of concurrent OS workers executing worker
	// domains; 0 defaults to GOMAXPROCS. 1 runs windows inline on the
	// coordinator (same logical schedule, no goroutines). The value
	// never affects simulation results.
	Workers int
}

// NewGroup builds a domain group. Engines are created fresh, clock at
// zero; retrieve them with Engine/Control.
func NewGroup(cfg GroupConfig) *Group {
	if cfg.Domains < 1 {
		panic(fmt.Sprintf("sim: group needs >= 1 domain, got %d", cfg.Domains))
	}
	if cfg.Domains == 1 {
		cfg.Lookahead = Duration(Never)
	}
	if cfg.Lookahead <= 0 {
		panic(fmt.Sprintf("sim: group lookahead must be positive, got %v", cfg.Lookahead))
	}
	w := cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if max := cfg.Domains - 1; w > max {
		w = max
	}
	g := &Group{
		engines:   make([]*Engine, cfg.Domains),
		lookahead: cfg.Lookahead,
		workers:   w,
		outbox:    make([][]post, cfg.Domains),
	}
	for d := range g.engines {
		g.engines[d] = &Engine{dom: d, grp: g}
	}
	if g.workers > 1 {
		g.startCh = make(chan Time)
		for i := 0; i < g.workers; i++ {
			go g.worker(i)
		}
	}
	return g
}

// worker executes domains pulled from the shared per-window work queue.
// Domain-to-worker assignment is first-come (work stealing), which is
// safe precisely because domains are isolated within a window; the
// pprof label makes shard imbalance visible in CPU profiles.
func (g *Group) worker(id int) {
	pprof.Do(context.Background(), pprof.Labels("shard", strconv.Itoa(id)), func(context.Context) {
		for end := range g.startCh {
			for {
				d := int(g.nextDom.Add(1)) - 1
				if d >= len(g.engines) {
					break
				}
				g.engines[d].runWindow(end)
			}
			g.doneWG.Done()
		}
	})
}

// Domains returns the number of domains, including control.
func (g *Group) Domains() int { return len(g.engines) }

// Engine returns the engine of one domain.
func (g *Group) Engine(dom int) *Engine { return g.engines[dom] }

// Running reports whether a Run is in progress. Outside a run the
// group is single-goroutine and callers may touch any domain directly
// (setup, teardown flushes).
func (g *Group) Running() bool { return g.running }

// Control returns the control domain's engine (domain 0).
func (g *Group) Control() *Engine { return g.engines[0] }

// PostTimer schedules tm at absolute time `at` on domain `to`, emitted
// by domain `from`. During a window, posts between distinct worker
// domains must satisfy at >= windowEnd (the lookahead contract);
// violating it panics, because it means the caller found a
// cross-domain interaction faster than the configured lookahead — a
// partitioning bug. Posts to the control domain may land anywhere in
// the current window (control runs after the barrier). Posts within a
// domain are ordinary local scheduling. Steady-state handoff through
// pooled timers does not allocate.
func (g *Group) PostTimer(from, to int, at Time, tm Timer) {
	if tm == nil {
		panic("sim: nil post timer")
	}
	g.post(from, to, post{at: at, to: int32(to), tm: tm}, false)
}

// PostLax is PostTimer with a closure, for callers whose natural delay
// may undercut the lookahead (workload start jitter, background
// injection gaps): instead of panicking, the event is deterministically
// deferred to the window end. The deferral is bounded by the lookahead
// (sub-microsecond) and is identical for every worker count.
func (g *Group) PostLax(from, to int, at Time, fn Handler) {
	if fn == nil {
		panic("sim: nil post handler")
	}
	g.post(from, to, post{at: at, to: int32(to), fn: fn}, true)
}

func (g *Group) post(from int, to int, p post, lax bool) {
	if to < 0 || to >= len(g.engines) {
		panic(fmt.Sprintf("sim: post to unknown domain %d", to))
	}
	if !g.running {
		// Setup phase: single goroutine, schedule directly.
		e := g.engines[to]
		if p.at < e.now {
			p.at = e.now
		}
		e.scheduleLocal(p)
		return
	}
	if to == from {
		g.engines[to].scheduleLocal(p)
		return
	}
	if to != 0 && p.at < g.windowEnd {
		if !lax {
			panic(fmt.Sprintf("sim: post from domain %d to %d at %v undercuts window end %v (lookahead %v)",
				from, to, p.at, g.windowEnd, g.lookahead))
		}
		p.at = g.windowEnd
	}
	if p.at < g.windowStart {
		panic(fmt.Sprintf("sim: post from domain %d to %d at %v before window start %v",
			from, to, p.at, g.windowStart))
	}
	g.outbox[from] = append(g.outbox[from], p)
}

// Run executes all domains until no events remain anywhere or the
// control engine's Stop is called. It returns the final simulated time, which all domain clocks
// agree on afterwards.
func (g *Group) Run() Time { return g.RunUntil(Never) }

// RunUntil executes events with timestamps <= deadline across all
// domains; see Engine.RunUntil for the clock semantics at the deadline.
func (g *Group) RunUntil(deadline Time) Time {
	if g.running {
		panic("sim: Group.Run called reentrantly")
	}
	if g.closed {
		panic("sim: Group.Run after Close")
	}
	g.running = true
	g.stopped = false
	g.engines[0].stopped = false
	defer func() { g.running = false }()

	for !g.stopped {
		start := g.minNextTime()
		if start == Never || start > deadline {
			break
		}
		end := start.Add(g.lookahead)
		if end < start { // overflow near Never
			end = Never
		}
		if deadline != Never && end > deadline+1 {
			end = deadline + 1
		}
		g.windowStart, g.windowEnd = start, end

		g.runParallel(end)
		g.drainPosts()
		g.engines[0].runWindow(end)
		g.drainPosts()
		if g.engines[0].stopped {
			g.stopped = true
		}
	}

	final := Time(0)
	for _, e := range g.engines {
		if e.now > final {
			final = e.now
		}
	}
	if deadline != Never && deadline > final && !g.stopped {
		final = deadline
	}
	for _, e := range g.engines {
		if final > e.now {
			e.now = final
		}
	}
	return final
}

// Close shuts down the worker pool. The group must not be used after.
func (g *Group) Close() {
	if g.closed {
		return
	}
	g.closed = true
	if g.startCh != nil {
		close(g.startCh)
	}
}

func (g *Group) minNextTime() Time {
	min := Never
	for _, e := range g.engines {
		if _, at := e.queue.top(); at < min {
			min = at
		}
	}
	return min
}

// runParallel executes one window over the worker domains (1..N-1).
func (g *Group) runParallel(end Time) {
	if g.workers <= 1 {
		for d := 1; d < len(g.engines); d++ {
			g.engines[d].runWindow(end)
		}
		return
	}
	g.nextDom.Store(1)
	g.doneWG.Add(g.workers)
	for i := 0; i < g.workers; i++ {
		g.startCh <- end
	}
	g.doneWG.Wait()
}

// drainPosts is the barrier: it moves every mailbox entry onto its
// destination heap, mailboxes in emitting-domain order and each in
// emission order. The destination orders by (at, seq) and assigns seq
// on delivery, so delivery order decides only ties on equal at — which
// makes this walk the canonical (time, from-domain, emission index)
// order with no sort, independent of how domains were packed onto
// workers.
func (g *Group) drainPosts() {
	for from, ob := range g.outbox {
		for i := range ob {
			g.engines[ob[i].to].scheduleLocal(ob[i])
		}
		clear(ob) // drop closure/timer refs
		g.outbox[from] = ob[:0]
	}
}
