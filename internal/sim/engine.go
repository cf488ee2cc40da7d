package sim

import (
	"fmt"
	"math"
	"math/bits"
)

// Handler is a callback invoked when an event fires. The engine passes
// itself so handlers can schedule follow-up events without capturing
// the engine in every closure.
type Handler func(now Time)

// Timer is a pre-bound event callback: a long-lived object whose Fire
// method the engine invokes instead of a fresh closure. Hot paths that
// schedule per-packet work keep one Timer resident (or pooled) and
// rearm it via AtTimer/AfterTimer, so steady-state scheduling performs
// zero heap allocations — storing a pointer in the interface field of a
// pooled event struct does not allocate, while every closure passed to
// After does.
type Timer interface {
	Fire(now Time)
}

// event is a scheduled callback. Exactly one of fn and tm is set. Its
// ordering key (at, seq) lives in the heap entry that points at it.
type event struct {
	gen     uint64 // incremented on every reuse of this struct
	fn      Handler
	tm      Timer
	stopped bool
	queued  bool // in the queue: set by schedule, cleared by pop
}

// EventRef refers to a scheduled event and allows cancellation. The
// zero EventRef is invalid. Refs are generation-stamped: event structs
// are pooled, so a ref to an already-fired event never aliases the
// struct's next occupant.
type EventRef struct {
	ev  *event
	gen uint64
}

// Valid reports whether the reference points at a scheduled event.
func (r EventRef) Valid() bool { return r.ev != nil }

// heapEntry is one heap slot. seq breaks ties between events scheduled
// for the same instant so execution order is deterministic (FIFO among
// same-time events). The key is held by value so that sifting compares
// without dereferencing an event.
type heapEntry struct {
	at  Time
	seq uint64
	ev  *event
}

// lessBit is 1 when x orders strictly before y by (at, seq) and 0
// otherwise: the borrow out of the 128-bit subtraction x − y with at as
// the high word. It requires at >= 0 on both sides — which schedule
// guarantees, since the clock starts at zero and scheduling before now
// panics — so that the unsigned order of at is its signed order.
func lessBit(x, y heapEntry) int {
	_, b := bits.Sub64(x.seq, y.seq, 0)
	_, b = bits.Sub64(uint64(x.at), uint64(y.at), b)
	return int(b)
}

// eventHeap is a 4-ary min-heap ordered by (at, seq). A hand-rolled
// d-ary heap beats container/heap here by a wide margin: the scheduler
// is the simulator's hottest structure, and the interface-dispatched
// Less/Swap calls plus the binary heap's extra levels account for half
// the profile otherwise. With a few hundred events queued the heap sits
// in cache and what a pop pays for is mispredicted compare branches —
// which child is smallest is a coin toss — so siftDown selects among a
// full set of four children arithmetically, through lessBit.
type eventHeap struct {
	a []heapEntry
}

func (h *eventHeap) push(at Time, seq uint64, ev *event) {
	h.a = append(h.a, heapEntry{})
	h.siftUp(len(h.a)-1, heapEntry{at: at, seq: seq, ev: ev})
}

func (h *eventHeap) pop() *event {
	a := h.a
	top := a[0].ev
	n := len(a) - 1
	last := a[n]
	a[n] = heapEntry{}
	h.a = a[:n]
	if n > 0 {
		h.siftDown(0, last)
	}
	return top
}

// siftUp places x at or above the hole i.
func (h *eventHeap) siftUp(i int, x heapEntry) {
	a := h.a
	for i > 0 {
		parent := (i - 1) >> 2
		if lessBit(x, a[parent]) == 0 {
			break
		}
		a[i] = a[parent]
		i = parent
	}
	a[i] = x
}

// siftDown places x at or below the hole i.
func (h *eventHeap) siftDown(i int, x heapEntry) {
	a := h.a
	n := len(a)
	for {
		first := i<<2 + 1
		var best int
		if first+3 < n {
			// Two semifinals and a final; -lessBit is an all-ones
			// mask exactly when the challenger wins.
			l := first + lessBit(a[first+1], a[first])
			r := first + 2 + lessBit(a[first+3], a[first+2])
			best = l + (r-l)&-lessBit(a[r], a[l])
		} else if first < n {
			best = first
			for c := first + 1; c < n; c++ {
				best += (c - best) & -lessBit(a[c], a[best])
			}
		} else {
			break
		}
		if lessBit(a[best], x) == 0 {
			break
		}
		a[i] = a[best]
		i = best
	}
	a[i] = x
}

const (
	// numLanes bounds the scan a pop makes. A training run recurs at five
	// delays (DESIGN.md decision 7); eight leave room for a few more.
	numLanes = 8
	// laneAdmit is how many recurrences earn a lane: more than compute
	// gaps and exponential arrivals count, a handful of heap pushes once.
	laneAdmit = 4
	// candBits sizes the table recurrences are counted in: 1<<candBits
	// slots, two to a delay. Recurring delays interleave, so each needs a
	// slot to itself; choosing from two in twice numLanes, a dozen find one.
	candBits = 4
	// shallowHeap is the heap size below which every event goes to the
	// heap: a lane saves sifting, and a root with one level under it has
	// none to save. An engine with an event or two pending costs as before.
	shallowHeap = 4
)

// lane is a FIFO ring of the events scheduled with one constant delay:
// now never decreases, so they arrive in (at, seq) order, earliest first.
type lane struct {
	buf     []heapEntry // power-of-two ring, allocated on first use
	head, n int
}

// eventQueue is the engine's pending set in two tiers: FIFO lanes for
// events scheduled through After/AfterTimer with a delay that recurs,
// and the heap for everything else — absolute times, one-off delays,
// recurring delays beyond numLanes. Events leave by the (at, seq)
// minimum over the lane heads and the heap's top: exactly the order one
// heap would give them.
type eventQueue struct {
	heap  eventHeap
	lanes [numLanes]lane
	delay [numLanes]Duration // lanes[i] holds the events scheduled delay[i] ahead
	// at[i], seq[i]: the key of lanes[i]'s head; (Never, max) while empty.
	at      [numLanes]Time
	seq     [numLanes]uint64
	used    int // lanes[:used] have been assigned a delay
	inLanes int // events in lanes
	cand    [1 << candBits]struct {
		d    Duration
		hits int // recurrences counted while d has no lane
	}
}

// top returns where the earliest queued event (cancelled ones included)
// sits — 0 for the heap, i+1 for lanes[i], -1 for nowhere — and its time.
// It scans the assigned lanes, selecting by mask like siftDown does.
func (q *eventQueue) top() (int, Time) {
	best, at, seq := -1, Never, uint64(math.MaxUint64)
	if len(q.heap.a) > 0 {
		best, at, seq = 0, q.heap.a[0].at, q.heap.a[0].seq
	}
	for i := 0; i < q.used; i++ {
		m := -lessBit(heapEntry{at: q.at[i], seq: q.seq[i]}, heapEntry{at: at, seq: seq})
		best += (i + 1 - best) & m
		at += (q.at[i] - at) & Time(m)
		seq += (q.seq[i] - seq) & uint64(m)
	}
	return best, at
}

// popLane removes the head of lanes[i].
func (q *eventQueue) popLane(i int) *event {
	l := &q.lanes[i]
	ev := l.buf[l.head].ev
	l.head = (l.head + 1) & (len(l.buf) - 1)
	l.n--
	q.inLanes--
	q.at[i], q.seq[i] = Never, math.MaxUint64
	if l.n > 0 {
		q.at[i], q.seq[i] = l.buf[l.head].at, l.buf[l.head].seq
	}
	return ev
}

// admit counts one more recurrence of d, which has no lane, and returns
// the lane that earns it, or -1. A newcomer takes the slot, of its two,
// that has counted less and takes one off the other's count, so a delay
// reaches laneAdmit only by recurring faster than new delays turn up:
// one of thousands drawn at random never does (nor pays for a branch
// that depends on the draw). It gets an unassigned lane or else an empty
// one, never one holding events: one-offs cannot displace what recurs.
func (q *eventQueue) admit(d Duration) int {
	h := uint64(d) * 0x9E3779B97F4A7C15
	i1, i2 := h>>(64-candBits), h>>(64-2*candBits)&(1<<candBits-1)
	c := &q.cand[i1]
	if c.d != d {
		if c = &q.cand[i2]; c.d != d {
			less := uint64((c.hits - q.cand[i1].hits) >> 63) // all ones when slot i2 has counted less
			v := i1 ^ (i1^i2)&less
			other := &q.cand[i1^i2^v]
			other.hits -= min(other.hits, 1)
			c = &q.cand[v]
			c.d, c.hits = d, 0
		}
	}
	if c.hits++; c.hits < laneAdmit {
		return -1
	}
	i := min(q.used, numLanes-1) // the first unassigned lane, else the last empty one
	for ; q.lanes[i].n > 0; i-- {
		if i == 0 {
			return -1
		}
	}
	q.used = max(q.used, i+1)
	q.delay[i], c.hits = d, 0 // the slot is free to count another
	return i
}

// lanePush enqueues an event scheduled d ahead of now on d's lane, if d
// has one or earns one with this recurrence, and reports whether it did.
func (q *eventQueue) lanePush(d Duration, at Time, seq uint64, ev *event) bool {
	i := 0
	for i < q.used && q.delay[i] != d {
		i++
	}
	if i == q.used {
		if i = q.admit(d); i < 0 {
			return false
		}
	}
	l := &q.lanes[i]
	if l.n == len(l.buf) {
		buf := make([]heapEntry, max(16, 2*l.n))
		copy(buf[copy(buf, l.buf[l.head:]):], l.buf[:l.head])
		l.buf, l.head = buf, 0
	}
	mask := len(l.buf) - 1
	if l.n == 0 {
		q.at[i], q.seq[i] = at, seq
	} else if at < l.buf[(l.head+l.n-1)&mask].at {
		panic(fmt.Sprintf("sim: delay %v scheduled for %v behind its lane's tail", d, at))
	}
	l.buf[(l.head+l.n)&mask] = heapEntry{at: at, seq: seq, ev: ev}
	l.n++
	q.inLanes++
	return true
}

// Engine is a single-threaded discrete-event scheduler. It is not safe
// for concurrent use; run independent simulations in separate Engines
// (they share nothing), one per goroutine.
type Engine struct {
	// now never decreases — fire follows the queue's order, RunUntil and
	// Group.RunUntil only jump it forward, a set-up post is clamped up to
	// it — which is what keeps a lane sorted.
	now     Time
	seq     uint64
	queue   eventQueue
	running bool
	stopped bool

	executed uint64 // number of events fired, for diagnostics
	pending  int    // scheduled, uncancelled events (live counter)
	stats    QueueStats

	free []*event // recycled event structs

	// dom/grp identify this engine's domain within a Group; grp is nil
	// for a standalone (single-threaded) engine.
	dom int
	grp *Group
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Pending returns the number of scheduled (uncancelled) events. It is
// O(1): the engine maintains a live counter instead of scanning the
// heap, so drivers may poll it in a loop.
func (e *Engine) Pending() int { return e.pending }

// Executed returns the number of events fired so far.
func (e *Engine) Executed() uint64 { return e.executed }

// QueueStats counts what the event queue was asked to do.
type QueueStats struct {
	LanePushes  uint64 // schedulings that went to a recurring delay's FIFO lane
	HeapPushes  uint64 // all other schedulings (filled in by Engine.QueueStats)
	PeakPending int    // high-water mark of Pending
}

// QueueStats returns the engine's queue counters so far.
func (e *Engine) QueueStats() QueueStats {
	s := e.stats
	s.HeapPushes = e.seq - s.LanePushes // seq counts every scheduling
	return s
}

func (e *Engine) alloc() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free = e.free[:n-1]
		*ev = event{gen: ev.gen + 1}
		return ev
	}
	return &event{}
}

// absolute is schedule's d for a caller that named a time, not a delay.
const absolute Duration = math.MinInt64

// schedule enqueues one of fn and tm at t. d is t's distance from now
// when the caller scheduled by delay, which makes the event a candidate
// for a lane, else absolute. Scheduling in the past — a negative delay
// included — panics: it indicates a causality bug in the caller.
func (e *Engine) schedule(t Time, d Duration, fn Handler, tm Timer) EventRef {
	if fn == nil && tm == nil {
		panic("sim: nil event callback")
	}
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	ev := e.alloc()
	ev.fn, ev.tm, ev.queued = fn, tm, true
	if d != absolute && len(e.queue.heap.a) >= shallowHeap && e.queue.lanePush(d, t, e.seq, ev) {
		e.stats.LanePushes++
	} else {
		e.queue.heap.push(t, e.seq, ev)
	}
	e.seq++
	e.pending++
	e.stats.PeakPending = max(e.stats.PeakPending, e.pending)
	return EventRef{ev: ev, gen: ev.gen}
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d Duration, fn Handler) EventRef {
	return e.schedule(e.now.Add(d), d, fn, nil)
}

// AtTimer schedules tm.Fire to run at absolute time t. It takes a
// pre-bound callback object, so steady-state rearming does not
// allocate.
func (e *Engine) AtTimer(t Time, tm Timer) EventRef {
	return e.schedule(t, absolute, nil, tm)
}

// AfterTimer schedules tm.Fire to run d after the current time.
func (e *Engine) AfterTimer(d Duration, tm Timer) EventRef {
	return e.schedule(e.now.Add(d), d, nil, tm)
}

// Cancel prevents a scheduled event from firing. Cancelling an already
// fired or already cancelled event is a no-op and returns false.
func (e *Engine) Cancel(r EventRef) bool {
	ev := r.ev
	if ev == nil || ev.gen != r.gen || ev.stopped || !ev.queued {
		return false
	}
	ev.stopped = true
	e.pending--
	return true
}

// Run executes events in timestamp order until the queue is empty or
// Stop is called. It returns the final simulated time.
func (e *Engine) Run() Time {
	return e.RunUntil(Never)
}

// RunUntil executes events with timestamps <= deadline; later ones stay
// queued. Unless Stop was called the clock then advances to the deadline
// whether or not an event reached it (Never, Run's deadline, leaves it at
// the last fired event). It returns the final simulated time.
func (e *Engine) RunUntil(deadline Time) Time {
	e.stopped = false
	e.fire(deadline, math.MaxInt)
	if deadline != Never && deadline > e.now && !e.stopped {
		e.now = deadline
	}
	return e.now
}

// fire is the one pop-and-run loop behind RunUntil, Step and the
// group's windows: it runs events in (at, seq) order while the head of
// the queue is at or before last, until the queue empties, Stop is
// called or limit events have run, and returns how many ran. The head's
// time is checked before it is popped, so an event past last stays
// queued.
func (e *Engine) fire(last Time, limit int) int {
	if e.running {
		panic("sim: Engine run called reentrantly")
	}
	e.running = true
	defer func() { e.running = false }()

	fired := 0
	q := &e.queue
	for fired < limit && !e.stopped {
		// While no lane holds an event the heap's top is the earliest: no scan.
		src, at := 0, Never
		if q.inLanes == 0 && len(q.heap.a) > 0 {
			at = q.heap.a[0].at
		} else if src, at = q.top(); src < 0 {
			break
		}
		if at > last {
			break
		}
		var next *event
		if src == 0 {
			next = q.heap.pop()
		} else {
			next = q.popLane(src - 1)
		}
		next.queued = false
		e.free = append(e.free, next)
		if next.stopped {
			continue
		}
		if at < e.now {
			panic("sim: event queue time went backwards")
		}
		e.now = at
		fn, tm := next.fn, next.tm
		fired++
		e.executed++
		e.pending--
		if fn != nil {
			fn(at)
		} else {
			tm.Fire(at)
		}
	}
	return fired
}

// runWindow executes events with timestamps strictly below end — one
// conservative synchronization window. Unlike RunUntil it never
// advances the clock past the last fired event: an idle domain's clock
// simply stays behind until its next event arrives.
func (e *Engine) runWindow(end Time) { e.fire(end-1, math.MaxInt) }

// scheduleLocal enqueues a drained post on this engine's queue. The
// caller (the group barrier, or the engine's own domain during its
// window) guarantees p.at is not in this engine's past.
func (e *Engine) scheduleLocal(p post) {
	if p.at < e.now {
		panic(fmt.Sprintf("sim: post delivered at %v before domain %d clock %v", p.at, e.dom, e.now))
	}
	e.schedule(p.at, absolute, p.fn, p.tm)
}

// Step fires exactly one pending event, if any, and reports whether one
// fired. Like RunUntil it starts from a clean Stop flag.
func (e *Engine) Step() bool {
	e.stopped = false
	return e.fire(Never, 1) == 1
}

// Stop halts a Run in progress after the current event completes.
func (e *Engine) Stop() { e.stopped = true }
