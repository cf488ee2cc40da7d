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
// At/After does.
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
	queued  bool // in the heap: set by push, cleared by pop
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

func (h *eventHeap) len() int { return len(h.a) }

// nextAt returns the time of the earliest queued event (cancelled ones
// included), or Never when the heap is empty.
func (h *eventHeap) nextAt() Time {
	if len(h.a) == 0 {
		return Never
	}
	return h.a[0].at
}

func (h *eventHeap) push(at Time, seq uint64, ev *event) {
	ev.queued = true
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
	top.queued = false
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

// Engine is a single-threaded discrete-event scheduler. It is not safe
// for concurrent use; run independent simulations in separate Engines
// (they share nothing), one per goroutine.
type Engine struct {
	now     Time
	seq     uint64
	queue   eventHeap
	running bool
	stopped bool

	executed uint64 // number of events fired, for diagnostics
	pending  int    // scheduled, uncancelled events (live counter)

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

func (e *Engine) alloc() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free = e.free[:n-1]
		*ev = event{gen: ev.gen + 1}
		return ev
	}
	return &event{}
}

// schedule allocates and enqueues an event at t; the caller attaches
// the callback.
func (e *Engine) schedule(t Time) *event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	ev := e.alloc()
	e.queue.push(t, e.seq, ev)
	e.seq++
	e.pending++
	return ev
}

// At schedules fn to run at absolute time t. Scheduling in the past
// panics: it indicates a causality bug in the caller.
func (e *Engine) At(t Time, fn Handler) EventRef {
	if fn == nil {
		panic("sim: nil event handler")
	}
	ev := e.schedule(t)
	ev.fn = fn
	return EventRef{ev: ev, gen: ev.gen}
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d Duration, fn Handler) EventRef {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.At(e.now.Add(d), fn)
}

// AtTimer schedules tm.Fire to run at absolute time t. Unlike At it
// takes a pre-bound callback object, so steady-state rearming does not
// allocate.
func (e *Engine) AtTimer(t Time, tm Timer) EventRef {
	if tm == nil {
		panic("sim: nil timer")
	}
	ev := e.schedule(t)
	ev.tm = tm
	return EventRef{ev: ev, gen: ev.gen}
}

// AfterTimer schedules tm.Fire to run d after the current time.
func (e *Engine) AfterTimer(d Duration, tm Timer) EventRef {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.AtTimer(e.now.Add(d), tm)
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

// RunUntil executes events with timestamps <= deadline. Events beyond
// the deadline remain queued; the clock advances to the deadline only
// if an event at or beyond it exists, otherwise it stays at the last
// fired event. It returns the final simulated time.
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
	for fired < limit && e.queue.len() > 0 && !e.stopped {
		at := e.queue.a[0].at
		if at > last {
			break
		}
		next := e.queue.pop()
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

// scheduleLocal enqueues a drained post on this engine's heap. The
// caller (the group barrier, or the engine's own domain during its
// window) guarantees p.at is not in this engine's past.
func (e *Engine) scheduleLocal(p post) {
	if p.at < e.now {
		panic(fmt.Sprintf("sim: post delivered at %v before domain %d clock %v", p.at, e.dom, e.now))
	}
	ev := e.schedule(p.at)
	ev.fn, ev.tm = p.fn, p.tm
}

// Step fires exactly one pending event, if any, and reports whether one
// fired. Like RunUntil it starts from a clean Stop flag.
func (e *Engine) Step() bool {
	e.stopped = false
	return e.fire(Never, 1) == 1
}

// Stop halts a Run in progress after the current event completes.
func (e *Engine) Stop() { e.stopped = true }
