package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// At schedules fn at absolute time t: AtTimer for a closure. Only tests
// schedule closures at absolute times (the simulator posts them through
// a Group or schedules them by delay), so it lives here.
func (e *Engine) At(t Time, fn Handler) EventRef { return e.schedule(t, absolute, fn, nil) }

// eventLess is the order the heap must keep, spelled the obvious way:
// the branchy comparison lessBit replaces.
func eventLess(x, y heapEntry) bool {
	if x.at != y.at {
		return x.at < y.at
	}
	return x.seq < y.seq
}

func TestLessBitMatchesEventLess(t *testing.T) {
	check := func(x, y heapEntry) bool {
		want := 0
		if eventLess(x, y) {
			want = 1
		}
		if got := lessBit(x, y); got != want {
			t.Errorf("lessBit(%+v, %+v) = %d, want %d", x, y, got, want)
			return false
		}
		return true
	}
	// Every pairing of the edges of both words: the borrow has to cross
	// from seq into at exactly when the times tie.
	ats := []Time{0, 1, 2, 1<<32 - 1, 1 << 32, 1 << 62, Never - 1, Never}
	seqs := []uint64{0, 1, 2, 1<<32 - 1, 1 << 32, 1<<63 - 1, 1 << 63, 1<<64 - 2, 1<<64 - 1}
	for _, a1 := range ats {
		for _, a2 := range ats {
			for _, s1 := range seqs {
				for _, s2 := range seqs {
					check(heapEntry{at: a1, seq: s1}, heapEntry{at: a2, seq: s2})
				}
			}
		}
	}
	f := func(a1, a2 int64, s1, s2 uint64, tie bool) bool {
		x := heapEntry{at: Time(a1 & int64(Never)), seq: s1} // at >= 0
		y := heapEntry{at: Time(a2 & int64(Never)), seq: s2}
		if tie {
			y.at = x.at
		}
		return check(x, y) && check(y, x)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// idTimer is the Timer form of the reference test's closures.
type idTimer struct {
	fired *[]int
	id    int
}

func (t idTimer) Fire(Time) { *t.fired = append(*t.fired, t.id) }

// TestEngineMatchesSortedReference drives an Engine and a reference
// scheduler through the same random script of schedule / cancel / step
// and requires the same firings, Cancel results and Pending counts. The
// reference knows nothing of heaps, lanes or sequence numbers: it keeps
// events in scheduling order and stable-sorts them by time, which is the
// FIFO tie-break by definition. Times are drawn so that most events tie
// — at the current instant, at zero before the clock moves, and at
// Never — and so that both tiers of the queue hold some of every tie:
// events go in through At (the heap), and through After and AfterTimer
// with one-off delays (the heap again) and with delays from a set that
// recurs (lanes), 0–3 ps among them. The set is larger than numLanes
// and the script moves a window over it between phases that drain the
// queue, so lanes overflow to the heap, empty, and are re-assigned; the
// test fails if a run of scripts did not get the queue into each of
// those states.
func TestEngineMatchesSortedReference(t *testing.T) {
	type refEvent struct {
		at        Time
		id        int
		cancelled bool
	}
	recurring := [...]Duration{0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144}
	var sawOverflow, sawReassign, sawLaneCancel, sawWrappedGrowth, sawLaneHeapTie bool
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		if seed&1 == 0 {
			e = &Engine{} // the zero value is a ready engine
		}
		q := &e.queue
		var (
			refs    []EventRef // by id
			live    []bool     // by id: scheduled, not yet popped or cancelled
			inLane  []bool     // by id
			queue   []refEvent // the reference's queue, in scheduling order
			fired   []int
			pending int
			active  = recurring[:] // the delays that recur in this phase
			phase   int
		)
		schedule := func() {
			id := len(refs)
			fn := func(Time) { fired = append(fired, id) }
			at, before, lanes := e.Now(), q.inLanes, q.delay
			switch r := rng.Intn(16); {
			case at == Never || r == 0 && phase == 2: // the clock ends there: last phase only
				at = Never
				refs = append(refs, e.At(at, fn))
			case r < 5:
				at += Time(rng.Intn(4)) // 0..3 ps ahead: dense ties
				refs = append(refs, e.At(at, fn))
			default:
				d := active[rng.Intn(len(active))]
				if r == 15 {
					d = Duration(200 + rng.Intn(1<<20)) // a one-off
				}
				for i := 0; i < q.used; i++ {
					l := &q.lanes[i]
					sawWrappedGrowth = sawWrappedGrowth || q.delay[i] == d && l.n == len(l.buf) && l.head > 0
				}
				at += Time(d)
				if r&1 == 0 {
					refs = append(refs, e.After(d, fn))
				} else {
					refs = append(refs, e.AfterTimer(d, idTimer{&fired, id}))
				}
				sawOverflow = sawOverflow || q.used == numLanes && q.inLanes == before && r != 15
			}
			for i := 0; i < q.used; i++ {
				if len(q.heap.a) > 0 && q.lanes[i].n > 0 && q.at[i] == q.heap.a[0].at {
					sawLaneHeapTie = true
				}
				if lanes[i] != q.delay[i] && q.lanes[i].buf != nil {
					sawReassign = true
				}
			}
			live = append(live, true)
			inLane = append(inLane, q.inLanes > before)
			queue = append(queue, refEvent{at: at, id: id})
			pending++
		}
		// step pops the reference's next live event and requires the
		// engine to fire the same one at the same time.
		step := func() bool {
			sort.SliceStable(queue, func(i, j int) bool { return queue[i].at < queue[j].at })
			for len(queue) > 0 && queue[0].cancelled {
				queue = queue[1:]
			}
			n := len(fired)
			if len(queue) == 0 {
				return !e.Step() && len(fired) == n
			}
			want := queue[0]
			queue = queue[1:]
			live[want.id] = false
			pending--
			return e.Step() && len(fired) == n+1 && fired[n] == want.id && e.Now() == want.at
		}
		for phase = 0; phase < 3; phase++ {
			for i := rng.Intn(400); i > 0; i-- { // some phases start four levels deep
				schedule()
			}
			for op := 0; op < 300; op++ {
				switch r := rng.Intn(10); {
				case r < 4:
					schedule()
				case r < 6 && len(refs) > 0:
					id := rng.Intn(len(refs)) // fired and cancelled ones included
					if e.Cancel(refs[id]) != live[id] {
						return false
					}
					if live[id] {
						sawLaneCancel = sawLaneCancel || inLane[id]
						live[id] = false
						pending--
						for k := range queue {
							if queue[k].id == id {
								queue[k].cancelled = true
							}
						}
					}
				default:
					if !step() {
						return false
					}
				}
				if e.Pending() != pending {
					return false
				}
			}
			for pending > 0 {
				if !step() {
					return false
				}
			}
			if !step() || len(q.heap.a)+q.inLanes != 0 { // both empty, tombstones gone too
				return false
			}
			// Move the window: the delays that arrive find every lane
			// assigned, and empty.
			lo := rng.Intn(len(recurring) - 3)
			active = recurring[lo : lo+3+rng.Intn(len(recurring)-lo-2)]
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
	for name, saw := range map[string]bool{
		"a recurring delay overflowing to the heap": sawOverflow, "an emptied lane re-assigned": sawReassign,
		"a lane-resident event cancelled": sawLaneCancel, "a wrapped ring growing": sawWrappedGrowth,
		"a lane head tying with the heap's top": sawLaneHeapTie,
	} {
		if !saw {
			t.Errorf("no script produced %s", name)
		}
	}
}
