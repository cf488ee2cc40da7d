package sim

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"
)

// groupTrace records, per domain, the (time, label) sequence of fired
// events. Each domain appends only to its own row, so recording is
// race-free under any worker count; the fingerprint folds the rows in
// domain order.
type groupTrace struct {
	rows [][]string
}

func newGroupTrace(domains int) *groupTrace {
	return &groupTrace{rows: make([][]string, domains)}
}

func (tr *groupTrace) add(dom int, now Time, label string) {
	tr.rows[dom] = append(tr.rows[dom], fmt.Sprintf("%d@%d", now, label_hash(label)))
}

func label_hash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

func (tr *groupTrace) fingerprint() uint64 {
	h := fnv.New64a()
	for d, row := range tr.rows {
		fmt.Fprintf(h, "dom%d:", d)
		for _, e := range row {
			h.Write([]byte(e))
			h.Write([]byte{';'})
		}
	}
	return h.Sum64()
}

// pingPong builds a deterministic cross-domain workload: every worker
// domain runs a local event train and relays a token to the next
// domain with exactly-lookahead latency, occasionally reporting to
// control within the same window.
func pingPong(t *testing.T, workers int) uint64 {
	t.Helper()
	const domains = 9
	const L = 100 * Nanosecond
	g := NewGroup(GroupConfig{Domains: domains, Lookahead: L, Workers: workers})
	defer g.Close()
	tr := newGroupTrace(domains)

	var relay func(dom, hops int) Handler
	relay = func(dom, hops int) Handler {
		return func(now Time) {
			tr.add(dom, now, fmt.Sprintf("token/%d/%d", dom, hops))
			// Local follow-up work inside the same window, and an echo
			// one window ahead: two delays that recur, so while the
			// domain's heap holds a few of the tokens below they run from
			// its lanes, and the echo ties with the tokens the barrier
			// puts on the heap for the same instant.
			g.Engine(dom).After(3*Nanosecond, func(now Time) {
				tr.add(dom, now, fmt.Sprintf("local/%d/%d", dom, hops))
			})
			g.Engine(dom).After(L, func(now Time) {
				tr.add(dom, now, fmt.Sprintf("echo/%d/%d", dom, hops))
			})
			// Report to control at the current instant (same-window
			// delivery to the control phase).
			g.PostLax(dom, 0, now, func(now Time) {
				tr.add(0, now, fmt.Sprintf("report/%d/%d", dom, hops))
			})
			if hops > 0 {
				next := 1 + dom%(domains-1)
				g.PostLax(dom, next, now.Add(L), relay(next, hops-1))
			}
		}
	}

	// Several interleaved tokens starting from each domain at
	// staggered times, so windows carry multiple same-time posts from
	// different senders (exercising the canonical drain order).
	const perDomain = 6
	for i := 1; i < domains; i++ {
		for k := 0; k < perDomain; k++ {
			g.Engine(i).At(Time((i+k)%3)*Time(Nanosecond), relay(i, 20))
		}
	}
	final := g.Run()
	if final == 0 {
		t.Fatal("simulation did not advance")
	}
	// Every token fires 21 times, and every firing adds a local event,
	// an echo and a report.
	var executed, lanePushes uint64
	for d := 0; d < domains; d++ {
		if n := g.Engine(d).Pending(); n != 0 {
			t.Errorf("workers=%d: domain %d ended with %d events pending", workers, d, n)
		}
		executed += g.Engine(d).Executed()
		lanePushes += g.Engine(d).QueueStats().LanePushes
	}
	if executed != (domains-1)*perDomain*21*4 {
		t.Errorf("workers=%d: %d events executed, want %d", workers, executed, (domains-1)*perDomain*21*4)
	}
	if lanePushes == 0 {
		t.Errorf("workers=%d: no local event went through a lane", workers)
	}
	return tr.fingerprint()
}

func TestGroupDeterministicAcrossWorkerCounts(t *testing.T) {
	want := pingPong(t, 1)
	for _, w := range []int{2, 3, runtime.GOMAXPROCS(0), 2 * runtime.GOMAXPROCS(0)} {
		if got := pingPong(t, w); got != want {
			t.Fatalf("workers=%d: fingerprint %x, want %x (workers=1)", w, got, want)
		}
	}
}

// The window schedule must see the events in lanes: a domain whose heap
// has drained while its lanes still hold events is not idle.
func TestGroupWindowsOpenForLaneEvents(t *testing.T) {
	g := NewGroup(GroupConfig{Domains: 3, Lookahead: 10, Workers: 1})
	defer g.Close()
	e := g.Engine(1)
	fired := 0
	// round puts shallowHeap events on the heap at time at and n events
	// 50 ahead of now, in the lane the delay has earned by the second
	// round, and runs the group dry.
	round := func(at Time, n int) Time {
		for i := 0; i < shallowHeap; i++ {
			e.AtTimer(at, nopTimer{})
		}
		for i := 0; i < n; i++ {
			e.After(50, func(Time) { fired++ })
		}
		return g.Run()
	}
	round(5, 2*laneAdmit)
	before := e.QueueStats().LanePushes
	if final := round(60, 3); final != 100 || fired != 2*laneAdmit+3 || e.Pending() != 0 {
		t.Fatalf("run ended at %v with %d of %d events fired and %d pending", final, fired, 2*laneAdmit+3, e.Pending())
	}
	if e.QueueStats().LanePushes != before+3 {
		t.Fatal("the second round's events did not wait in a lane")
	}
}

func TestGroupCanonicalDrainOrder(t *testing.T) {
	// Posts from several source domains to one destination, emitted in
	// no particular time order and with many equal times, must fire in
	// (time, from-domain, emission-index) order regardless of worker
	// count — to a worker domain and to control alike. The barrier
	// delivers mailbox by mailbox without sorting, so the time-major
	// part is the destination heap's doing and the rest is the walk's:
	// draining the mailboxes in any other order fails here.
	const L = 50 * Nanosecond
	type key struct {
		at         Time
		from, emit int
	}
	offsets := []Duration{20, 0, 10, 0, 20, 10, 0} // shuffled, with ties
	run := func(workers, to int) (got, want []key) {
		g := NewGroup(GroupConfig{Domains: 6, Lookahead: L, Workers: workers})
		defer g.Close()
		for from := 1; from <= 4; from++ {
			var emits []key
			for i := range offsets {
				// Rotated per domain: equal times meet across domains
				// at different emission indices.
				emits = append(emits, key{Time(L).Add(offsets[(i+from)%len(offsets)]), from, i})
			}
			want = append(want, emits...)
			g.Engine(from).At(0, func(Time) {
				for _, k := range emits {
					g.PostLax(k.from, to, k.at, func(Time) { got = append(got, k) })
				}
			})
		}
		sort.Slice(want, func(i, j int) bool {
			a, b := want[i], want[j]
			if a.at != b.at {
				return a.at < b.at
			}
			if a.from != b.from {
				return a.from < b.from
			}
			return a.emit < b.emit
		})
		g.Run()
		return got, want
	}
	for _, to := range []int{5, 0} {
		for _, w := range []int{1, 2, 4} {
			got, want := run(w, to)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("workers=%d to=%d:\n got %v\nwant %v", w, to, got, want)
			}
		}
	}
}

func TestGroupLookaheadViolationPanics(t *testing.T) {
	g := NewGroup(GroupConfig{Domains: 3, Lookahead: 100 * Nanosecond, Workers: 1})
	defer g.Close()
	g.Engine(1).At(0, func(now Time) {
		defer func() {
			if recover() == nil {
				t.Error("post undercutting lookahead did not panic")
			}
		}()
		// Cross-domain post 1ns ahead: far below the 100ns window end.
		g.PostTimer(1, 2, now.Add(Nanosecond), nopTimer{})
	})
	g.Run()
}

func TestGroupPostLaxClampsToWindowEnd(t *testing.T) {
	const L = 100 * Nanosecond
	g := NewGroup(GroupConfig{Domains: 3, Lookahead: L, Workers: 1})
	defer g.Close()
	var fired Time
	g.Engine(1).At(0, func(now Time) {
		g.PostLax(1, 2, now.Add(Nanosecond), func(now Time) { fired = now })
	})
	g.Run()
	if fired != Time(L) {
		t.Fatalf("lax post fired at %v, want clamp to window end %v", fired, Time(L))
	}
}

func TestGroupEmptyDomain(t *testing.T) {
	// A domain with no events at all (an "empty shard") must neither
	// stall the window loop nor perturb results.
	g := NewGroup(GroupConfig{Domains: 4, Lookahead: 10 * Nanosecond, Workers: 2})
	defer g.Close()
	fired := 0
	g.Engine(1).At(5*Time(Nanosecond), func(Time) { fired++ })
	g.Engine(1).At(25*Time(Nanosecond), func(Time) { fired++ })
	final := g.Run()
	if fired != 2 {
		t.Fatalf("fired %d events, want 2", fired)
	}
	if final != 25*Time(Nanosecond) {
		t.Fatalf("final time %v, want 25ns", final)
	}
	// Domains 2 and 3 never ran; their clocks still agree at the end.
	for d := 0; d < g.Domains(); d++ {
		if now := g.Engine(d).Now(); now != final {
			t.Fatalf("domain %d clock %v, want %v", d, now, final)
		}
	}
}

func TestGroupZeroLatencyIntraDomain(t *testing.T) {
	// Same-timestamp events within one domain fire in scheduling
	// (FIFO) order — the zero-latency intra-domain case.
	g := NewGroup(GroupConfig{Domains: 2, Lookahead: 10 * Nanosecond, Workers: 1})
	defer g.Close()
	var got []int
	g.Engine(1).At(0, func(now Time) {
		for i := 0; i < 5; i++ {
			i := i
			g.Engine(1).At(now, func(Time) { got = append(got, i) })
		}
	})
	g.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("zero-delay events fired out of order: %v", got)
		}
	}
	if len(got) != 5 {
		t.Fatalf("fired %d events, want 5", len(got))
	}
}

func TestGroupNoCrossTraffic(t *testing.T) {
	// Windows with zero cross-domain posts: the barrier must cost
	// nothing semantically and terminate cleanly.
	g := NewGroup(GroupConfig{Domains: 5, Lookahead: Microsecond, Workers: 3})
	defer g.Close()
	total := make([]int, 5)
	for d := 1; d < 5; d++ {
		d := d
		var tick Handler
		n := 0
		tick = func(now Time) {
			total[d]++
			n++
			if n < 100 {
				g.Engine(d).After(Duration(d)*Nanosecond+Nanosecond, tick)
			}
		}
		g.Engine(d).At(0, tick)
	}
	g.Run()
	for d := 1; d < 5; d++ {
		if total[d] != 100 {
			t.Fatalf("domain %d fired %d, want 100", d, total[d])
		}
	}
}

func TestGroupRunUntilDeadline(t *testing.T) {
	g := NewGroup(GroupConfig{Domains: 3, Lookahead: 10 * Nanosecond, Workers: 1})
	defer g.Close()
	var fired []Time
	for _, at := range []Time{5, 15, 25, 35} {
		at := at * Time(Nanosecond)
		g.Engine(1).At(at, func(now Time) { fired = append(fired, now) })
	}
	final := g.RunUntil(20 * Time(Nanosecond))
	if len(fired) != 2 {
		t.Fatalf("fired %d events by deadline, want 2 (%v)", len(fired), fired)
	}
	if final != 20*Time(Nanosecond) {
		t.Fatalf("final %v, want deadline 20ns", final)
	}
	// Resume to completion.
	final = g.Run()
	if len(fired) != 4 {
		t.Fatalf("fired %d events total, want 4", len(fired))
	}
	if final != 35*Time(Nanosecond) {
		t.Fatalf("final %v, want 35ns", final)
	}
}

func TestGroupControlStopHaltsRun(t *testing.T) {
	g := NewGroup(GroupConfig{Domains: 3, Lookahead: 10 * Nanosecond, Workers: 1})
	defer g.Close()
	fired := 0
	g.Engine(1).At(0, func(now Time) {
		g.PostLax(1, 0, now, func(Time) { g.Control().Stop() })
	})
	g.Engine(1).At(Time(Microsecond), func(Time) { fired++ })
	g.Run()
	if fired != 0 {
		t.Fatal("event beyond Stop window fired")
	}
}

func TestGroupSetupPhasePosts(t *testing.T) {
	// Posts before Run (setup) schedule directly; the simulation then
	// sees them like any other initial event.
	g := NewGroup(GroupConfig{Domains: 3, Lookahead: 10 * Nanosecond, Workers: 2})
	defer g.Close()
	var fired Time = -1
	g.PostLax(0, 2, 7*Time(Nanosecond), func(now Time) { fired = now })
	g.Run()
	if fired != 7*Time(Nanosecond) {
		t.Fatalf("setup post fired at %v, want 7ns", fired)
	}
}

// fnTimer is a closure scheduled through the Timer calls.
type fnTimer Handler

func (f fnTimer) Fire(now Time) { f(now) }

// TestGroupOfOneIsTheEngine runs one script — closures and timers by
// delay and by absolute time, cancellations, same-instant ties, delays
// that recur until they run from lanes over a heap deep enough to admit
// them, a Stop and its resume, a deadline with an event exactly on it,
// an idle stretch past the last event — on a bare Engine and on the
// control engine of a one-domain Group, and requires the same execution
// order, clocks and counters after every run. The deadline legs are what
// a window end off by one fails: [t, deadline) never reaches the event
// at 400ns, [t, deadline+1] runs the one a picosecond later early.
func TestGroupOfOneIsTheEngine(t *testing.T) {
	type outcome struct {
		order    []string
		clocks   []Time
		executed uint64
		pending  int
		queue    QueueStats
	}
	script := func(e *Engine, runUntil func(Time) Time) outcome {
		var out outcome
		log := func(id string) Handler {
			return func(now Time) { out.order = append(out.order, fmt.Sprintf("%s@%d", id, now)) }
		}
		timer := func(id string) Timer { return fnTimer(log(id)) }
		ns := Time(Nanosecond)

		// Same-instant ties between every scheduling call, FIFO by seq.
		e.After(10*Nanosecond, log("after"))
		e.AfterTimer(10*Nanosecond, timer("afterTimer"))
		e.AtTimer(10*ns, timer("atTimer"))
		e.At(10*ns, log("at"))
		// Cancelled before and after the run reaches them.
		e.Cancel(e.After(10*Nanosecond, log("cancelled-early")))
		late := e.After(300*Nanosecond, log("cancelled-late"))
		// Two recurring delays over a heap of one-offs: lane residents.
		for i := 0; i < 8; i++ {
			e.At(Time(1000+i)*ns, log(fmt.Sprintf("heap%d", i)))
		}
		var tick, tock Handler
		ticks, tocks := 0, 0
		tick = func(now Time) {
			log("tick")(now)
			if ticks++; ticks < 40 {
				e.After(7*Nanosecond, tick)
			}
			if ticks == 12 {
				e.Stop()
			}
			if ticks == 20 {
				e.Cancel(late)
			}
		}
		tock = func(now Time) {
			log("tock")(now)
			if tocks++; tocks < 40 {
				e.AfterTimer(7*Nanosecond, timer("tock-timer"))
				e.After(11*Nanosecond, tock)
			}
		}
		e.After(20*Nanosecond, tick)
		e.After(20*Nanosecond, tock)
		e.At(400*ns, log("on-the-deadline"))
		e.At(400*ns+1, log("past-the-deadline"))

		for _, deadline := range []Time{Never /* stopped by tick 12 */, 400 * ns, 400 * ns, 900 * ns, Never, 5000 * ns} {
			final := runUntil(deadline)
			out.clocks = append(out.clocks, final, e.Now())
			out.order = append(out.order, fmt.Sprintf("-- ran until %d: executed %d, pending %d", deadline, e.Executed(), e.Pending()))
		}
		out.executed, out.pending, out.queue = e.Executed(), e.Pending(), e.QueueStats()
		return out
	}

	eng := NewEngine()
	want := script(eng, eng.RunUntil)
	g := NewGroup(GroupConfig{Domains: 1})
	defer g.Close()
	// A window that ends on its own start never advances; fail, not hang.
	done := make(chan outcome, 1)
	go func() { done <- script(g.Control(), g.RunUntil) }()
	var got outcome
	select {
	case got = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the group of one is still running a script the engine finished at once")
	}

	if want.queue.LanePushes == 0 || want.queue.HeapPushes == 0 {
		t.Fatalf("the script should schedule through lanes and the heap: %+v", want.queue)
	}
	if !reflect.DeepEqual(got, want) {
		for i := range want.order {
			if i >= len(got.order) || got.order[i] != want.order[i] {
				t.Fatalf("execution diverges at step %d of %d:\n group  %v\n engine %v", i, len(want.order), got.order[max(0, i-3):min(len(got.order), i+2)], want.order[max(0, i-3):i+2])
			}
		}
		t.Fatalf("group of one differs from the engine:\n group  %+v\n engine %+v", got, want)
	}
}
