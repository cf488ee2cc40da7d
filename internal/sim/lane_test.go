package sim

import "testing"

// deepEngine returns an engine whose heap is past shallowHeap, so that
// recurring delays are lane candidates from the first push. The ballast
// sits at Never and stays there: tests drain the engine down to it.
func deepEngine() *Engine {
	e := NewEngine()
	for i := 0; i < shallowHeap; i++ {
		e.AtTimer(Never, nopTimer{})
	}
	return e
}

func drainToBallast(e *Engine) {
	for e.Pending() > shallowHeap {
		e.Step()
	}
}

// afterEach schedules one event per delay, in order, and returns how
// many of them went to a lane.
func afterEach(e *Engine, delays ...Duration) int {
	before := e.QueueStats().LanePushes
	for _, d := range delays {
		e.After(d, func(Time) {})
	}
	return int(e.QueueStats().LanePushes - before)
}

func TestLaneAdmission(t *testing.T) {
	t.Run("a delay earns its lane by recurring", func(t *testing.T) {
		e := deepEngine()
		if n := afterEach(e, 7, 7, 7); n != 0 || e.queue.used != 0 {
			t.Fatalf("%d lane pushes and %d lanes after %d recurrences, want none before %d", n, e.queue.used, 3, laneAdmit)
		}
		if n := afterEach(e, 7, 7); n != 2 || e.queue.used != 1 {
			t.Fatalf("%d lane pushes, %d lanes from recurrence %d on, want 2 and 1", n, e.queue.used, laneAdmit)
		}
	})
	t.Run("a shallow heap keeps everything", func(t *testing.T) {
		e := NewEngine()
		for i := 0; i < 100; i++ {
			if afterEach(e, 7, 7, 7) != 0 { // never more than shallowHeap-1 pending
				t.Fatal("an event went to a lane past a heap with nothing to sift")
			}
			e.Run()
		}
	})
	t.Run("interleaved delays each count in a slot of their own", func(t *testing.T) {
		// fabric.kick schedules ser and ser+prop back to back: a rule
		// that wants a delay to repeat consecutively admits neither.
		e := deepEngine()
		for i := 0; i < laneAdmit; i++ {
			afterEach(e, 81920, 281920)
		}
		if n := afterEach(e, 81920, 281920); n != 2 || e.queue.used != 2 {
			t.Fatalf("%d lane pushes, %d lanes, want 2 and 2", n, e.queue.used)
		}
	})
	t.Run("one-off delays get no lane and take none", func(t *testing.T) {
		e := deepEngine()
		for i := 0; i < laneAdmit; i++ {
			afterEach(e, 5)
		}
		for d := Duration(1000); d < 3000; d++ {
			afterEach(e, d, 5) // every candidate slot is overwritten, many times
		}
		if s := e.QueueStats(); e.queue.used != 1 || s.HeapPushes != shallowHeap+laneAdmit-1+2000 {
			t.Fatalf("%d lanes, %d heap pushes, want 1 and %d", e.queue.used, s.HeapPushes, shallowHeap+laneAdmit-1+2000)
		}
	})
	t.Run("delays drawn at random from thousands get no lane", func(t *testing.T) {
		// Each value comes back every 4096 pushes or so, but new values
		// turn up in its candidate slots far more often than that.
		e := deepEngine()
		rng := uint64(1)
		for i := 0; i < 400000; i++ {
			rng = rng*6364136223846793005 + 1442695040888963407
			afterEach(e, Duration(1+rng>>52))
			e.Step()
		}
		if s := e.QueueStats(); e.queue.used != 0 || s.LanePushes != 0 {
			t.Fatalf("%d lanes assigned, %d lane pushes, want none", e.queue.used, s.LanePushes)
		}
	})
	t.Run("more recurring delays than lanes overflow to the heap", func(t *testing.T) {
		e := deepEngine()
		for round := 0; round < 2*laneAdmit; round++ {
			for d := Duration(1); d <= numLanes+3; d++ {
				afterEach(e, d)
			}
		}
		if e.queue.used != numLanes {
			t.Fatalf("%d lanes in use, want %d", e.queue.used, numLanes)
		}
		held := e.queue.delay
		// Every lane holds events: nothing may take one over, however
		// often it recurs.
		for i := 0; i < 3*laneAdmit; i++ {
			if n := afterEach(e, 999); n != 0 {
				t.Fatal("a delay was given a lane that holds events")
			}
		}
		if e.queue.delay != held {
			t.Fatalf("lane delays changed from %v to %v while every lane held events", held, e.queue.delay)
		}
		// Once a lane has drained, the next delay to qualify gets it.
		drainToBallast(e)
		if n := afterEach(e, 999); n != 1 || e.queue.delay == held {
			t.Fatalf("an emptied lane was not re-assigned (%d lane pushes, delays %v)", n, e.queue.delay)
		}
	})
}

// A lane is sorted only because now never decreases. Should a bug ever
// move the clock back, the push that would misorder a lane must panic,
// as scheduling before now does.
func TestLanePushBehindTailPanics(t *testing.T) {
	e := deepEngine()
	e.now = 100
	if n := afterEach(e, 5, 5, 5, 5, 5); n == 0 {
		t.Fatal("the delay never reached a lane")
	}
	e.now = 50
	defer func() {
		if recover() == nil {
			t.Fatal("a push behind its lane's tail did not panic")
		}
	}()
	e.After(5, func(Time) {})
}

// Engines come with no lane storage — a sharded run builds one per
// switch — rings appear with a lane's first event, and once they have
// grown to the run's depth scheduling through them allocates nothing.
func TestLaneAllocsOnlyWhileWarmingUp(t *testing.T) {
	g := NewGroup(GroupConfig{Domains: 3, Lookahead: 10, Workers: 1})
	defer g.Close()
	for _, e := range []*Engine{NewEngine(), g.Engine(1)} {
		for i := range e.queue.lanes {
			if e.queue.lanes[i].buf != nil {
				t.Fatal("a fresh engine holds lane storage")
			}
		}
	}
	e := deepEngine()
	tm := &selfRearm{eng: e}
	cycle := func() {
		// 100 events pending at each of three recurring delays, then a
		// chain that re-arms through the first.
		for i := 0; i < 100; i++ {
			e.AfterTimer(5, nopTimer{})
			e.AfterTimer(80, nopTimer{})
			e.AfterTimer(200, nopTimer{})
		}
		tm.left = 50
		e.AfterTimer(5, tm)
		drainToBallast(e)
	}
	cycle()
	if e.queue.used != 3 || len(e.queue.lanes[0].buf) < 100 {
		t.Fatalf("warm-up left %d lanes, the first with room for %d", e.queue.used, len(e.queue.lanes[0].buf))
	}
	if avg := testing.AllocsPerRun(20, cycle); avg != 0 {
		t.Fatalf("a warmed-up lane cycle allocates %.1f per run, want 0", avg)
	}
}

type nopTimer struct{}

func (nopTimer) Fire(Time) {}
