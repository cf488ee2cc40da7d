package sim

import (
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineFiresInOrder(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, d := range []Duration{50, 10, 30, 10, 0} {
		e.After(d, func(now Time) { fired = append(fired, now) })
	}
	e.Run()
	want := []Time{0, 10, 10, 30, 50}
	if len(fired) != len(want) {
		t.Fatalf("fired %d events, want %d", len(fired), len(want))
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Errorf("event %d fired at %v, want %v", i, fired[i], want[i])
		}
	}
}

func TestEngineSameTimeFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(100, func(Time) { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events fired out of scheduling order: %v", order)
		}
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ref := e.After(10, func(Time) { fired = true })
	if !e.Cancel(ref) {
		t.Fatal("Cancel returned false for a pending event")
	}
	if e.Cancel(ref) {
		t.Fatal("double Cancel returned true")
	}
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestEngineCancelFiredEvent(t *testing.T) {
	e := NewEngine()
	ref := e.After(1, func(Time) {})
	e.Run()
	if e.Cancel(ref) {
		t.Fatal("Cancel of already-fired event returned true")
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var fired []Time
	e.After(10, func(now Time) {
		fired = append(fired, now)
		e.After(5, func(now Time) { fired = append(fired, now) })
	})
	end := e.Run()
	if end != 15 {
		t.Fatalf("final time = %v, want 15", end)
	}
	if len(fired) != 2 || fired[1] != 15 {
		t.Fatalf("nested event did not fire at 15: %v", fired)
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, d := range []Duration{10, 20, 30} {
		e.After(d, func(now Time) { fired = append(fired, now) })
	}
	e.RunUntil(20)
	if len(fired) != 2 {
		t.Fatalf("RunUntil(20) fired %d events, want 2", len(fired))
	}
	if e.Now() != 20 {
		t.Fatalf("clock = %v after RunUntil(20), want 20", e.Now())
	}
	e.Run()
	if len(fired) != 3 {
		t.Fatalf("resumed Run fired %d total, want 3", len(fired))
	}
}

func TestEngineRunUntilAdvancesIdleClock(t *testing.T) {
	e := NewEngine()
	e.RunUntil(1000)
	if e.Now() != 1000 {
		t.Fatalf("idle RunUntil left clock at %v, want 1000", e.Now())
	}
}

// TestEngineStop: Stop halts a run after the current event, and the
// next Run picks up where it left off — on a standalone engine and on a
// group stopped through its control engine, whose own flag Group.Run
// used to leave set (control then skipped every event for good while
// the workers ran on).
func TestEngineStop(t *testing.T) {
	group := NewGroup(GroupConfig{Domains: 2, Lookahead: 3, Workers: 1})
	defer group.Close()
	classic := NewEngine()
	for _, tc := range []struct {
		name string
		ctl  *Engine // where Stop is called and the events live
		peer *Engine // a second domain's engine, nil on the classic engine
		run  func() Time
	}{
		{"classic", classic, nil, classic.Run},
		{"group", group.Control(), group.Engine(1), group.Run},
	} {
		t.Run(tc.name, func(t *testing.T) {
			count, peer := 0, 0
			for i := 0; i < 10; i++ {
				// Two events per instant, so that Stop leaves one
				// behind at the very time it was called.
				tc.ctl.At(Time(i/2), func(Time) {
					count++
					if count == 3 {
						tc.ctl.Stop()
					}
				})
			}
			if tc.peer != nil {
				tc.peer.At(4, func(Time) { peer++ })
			}
			tc.run()
			if count != 3 {
				t.Fatalf("Stop did not halt the run: fired %d events", count)
			}
			// The queue must be resumable after Stop.
			tc.run()
			if count != 10 {
				t.Fatalf("resume after Stop fired %d total, want 10", count)
			}
			if tc.peer != nil && peer != 1 {
				t.Fatalf("peer domain fired %d events, want 1", peer)
			}
		})
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine()
	e.After(100, func(Time) {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(50, func(Time) {})
	})
	e.Run()
}

func TestEngineStep(t *testing.T) {
	e := NewEngine()
	n := 0
	e.After(5, func(Time) { n++ })
	e.After(10, func(Time) { n++ })
	if !e.Step() {
		t.Fatal("Step returned false with pending events")
	}
	if n != 1 || e.Now() != 5 {
		t.Fatalf("after one Step: n=%d now=%v", n, e.Now())
	}
	if !e.Step() || e.Step() {
		t.Fatal("Step count mismatch")
	}
}

// TestEngineStepGuardsReentrancy: Step shares RunUntil's loop and so
// its guard — a handler may neither Step nor Run the engine that is
// running it, whichever of the two started it.
func TestEngineStepGuardsReentrancy(t *testing.T) {
	for _, tc := range []struct {
		name         string
		outer, inner func(e *Engine)
	}{
		{"step in run", func(e *Engine) { e.Run() }, func(e *Engine) { e.Step() }},
		{"run in step", func(e *Engine) { e.Step() }, func(e *Engine) { e.Run() }},
		{"step in step", func(e *Engine) { e.Step() }, func(e *Engine) { e.Step() }},
	} {
		e := NewEngine()
		panicked := false
		e.At(1, func(Time) {
			defer func() { panicked = recover() != nil }()
			tc.inner(e)
		})
		tc.outer(e)
		if !panicked {
			t.Errorf("%s: no reentrancy panic", tc.name)
		}
	}
}

func TestEnginePendingExcludesCancelled(t *testing.T) {
	e := NewEngine()
	e.After(1, func(Time) {})
	ref := e.After(2, func(Time) {})
	e.Cancel(ref)
	if got := e.Pending(); got != 1 {
		t.Fatalf("Pending = %d, want 1", got)
	}
}

// Property: for any batch of randomly ordered delays, events fire in
// nondecreasing time order and all of them fire.
func TestEngineOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		var fired []Time
		for _, d := range delays {
			e.After(Duration(d), func(now Time) { fired = append(fired, now) })
		}
		e.Run()
		if len(fired) != len(delays) {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: interleaving cancellations never loses or duplicates the
// surviving events.
func TestEngineCancelProperty(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 1))
		e := NewEngine()
		fired := map[int]int{}
		refs := make([]EventRef, n)
		for i := 0; i < int(n); i++ {
			i := i
			refs[i] = e.After(Duration(rng.IntN(100)), func(Time) { fired[i]++ })
		}
		cancelled := map[int]bool{}
		for i := range refs {
			if rng.IntN(2) == 0 {
				e.Cancel(refs[i])
				cancelled[i] = true
			}
		}
		e.Run()
		for i := 0; i < int(n); i++ {
			want := 1
			if cancelled[i] {
				want = 0
			}
			if fired[i] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestEngineEventPoolReuse(t *testing.T) {
	e := NewEngine()
	// Exercise the free list across many schedule/fire cycles.
	total := 0
	var tick func(now Time)
	tick = func(now Time) {
		total++
		if total < 1000 {
			e.After(1, tick)
		}
	}
	e.After(1, tick)
	e.Run()
	if total != 1000 {
		t.Fatalf("fired %d, want 1000", total)
	}
	if e.Executed() != 1000 {
		t.Fatalf("Executed = %d, want 1000", e.Executed())
	}
}
