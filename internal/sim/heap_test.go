package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

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

// TestEngineMatchesSortedReference drives an Engine and a reference
// scheduler through the same random script of schedule / cancel / step
// and requires the same firings, Cancel results and Pending counts. The
// reference knows nothing of heaps or sequence numbers: it keeps events
// in scheduling order and stable-sorts them by time, which is the FIFO
// tie-break by definition. Times are drawn so that most events tie —
// at the current instant, at zero before the clock moves, and at Never.
func TestEngineMatchesSortedReference(t *testing.T) {
	type refEvent struct {
		at        Time
		id        int
		cancelled bool
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var (
			refs    []EventRef // by id
			live    []bool     // by id: scheduled, not yet popped or cancelled
			queue   []refEvent // the reference's queue, in scheduling order
			fired   []int
			pending int
		)
		schedule := func() {
			at := e.Now()
			switch r := rng.Intn(16); {
			case at == Never || r == 0:
				at = Never
			case r < 8:
				at += Time(rng.Intn(4)) // 0..3 ps ahead: dense ties
			}
			id := len(refs)
			refs = append(refs, e.At(at, func(Time) { fired = append(fired, id) }))
			live = append(live, true)
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
		for i := rng.Intn(1200); i > 0; i-- { // some scripts start five levels deep
			schedule()
		}
		for op := 0; op < 600; op++ {
			switch r := rng.Intn(10); {
			case r < 4:
				schedule()
			case r < 6 && len(refs) > 0:
				id := rng.Intn(len(refs)) // fired and cancelled ones included
				if e.Cancel(refs[id]) != live[id] {
					return false
				}
				if live[id] {
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
		return step() // both empty
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
