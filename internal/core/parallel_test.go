package core

import (
	"hash/fnv"
	"os"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"flowpulse/internal/collective"
	"flowpulse/internal/fabric"
	"flowpulse/internal/remediate"
	"flowpulse/internal/sim"
	"flowpulse/internal/telemetry"
	"flowpulse/internal/workload"
)

// fp64 is a running FNV-64a over uint64 words.
type fp64 struct{ h interface{ Sum64() uint64 } }

func newFP() (*fp64, func(v uint64)) {
	h := fnv.New64a()
	write := func(v uint64) {
		var b [8]byte
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	return &fp64{h: h}, write
}

// fatTreeFingerprint runs one full scenario — training, jitter,
// background noise, a silent fault, telemetry — at the given
// shard count and fingerprints the whole observable surface: every
// closed window, the final clock, and the fabric/transport counters.
func fatTreeFingerprint(t *testing.T, sc Scenario, shards int) uint64 {
	t.Helper()
	sc.Shards = shards
	rt, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	fp, u64 := newFP()
	coll := telemetry.AttachAll(rt.Net, int(sc.Job), func(w *telemetry.Window) {
		u64(uint64(w.Leaf))
		u64(uint64(w.Job))
		u64(uint64(w.Iter))
		u64(uint64(w.OpenedAt))
		u64(uint64(w.ClosedAt))
		u64(uint64(w.Packets))
		for _, b := range w.PortBytes {
			u64(uint64(b))
		}
		for _, b := range w.AggPortBytes {
			u64(uint64(b))
		}
	})

	if _, err := rt.Inject(FaultSpec{Kind: FaultBernoulli, Leaf: 1, Spine: 0, Rate: 0.02}); err != nil {
		t.Fatal(err)
	}
	rt.startJobs(nil)
	final := rt.Run()
	coll.FlushAll(rt.Engine.Now())

	if bad := rt.Net.AuditConservation(); len(bad) != 0 {
		t.Fatalf("shards=%d: conservation violated: %v", shards, bad)
	}
	u64(uint64(final))
	st := rt.Net.Stats()
	u64(st.Sent)
	u64(st.SentBytes)
	u64(st.Delivered)
	u64(st.DeliveredBytes)
	u64(st.PFCPauses)
	ts := rt.Stack.Stats()
	u64(ts.MessagesDelivered)
	u64(ts.DataPacketsSent)
	u64(ts.Retransmits)
	u64(ts.DuplicatesReceived)
	u64(ts.AcksSent)
	return fp.h.Sum64()
}

// TestShardedFingerprintAcrossWorkers is the end-to-end determinism
// contract: a sharded scenario produces bit-identical results for
// EVERY worker count — 1, 2, 3, GOMAXPROCS, and oversubscribed.
func TestShardedFingerprintAcrossWorkers(t *testing.T) {
	sc := Scenario{
		Leaves: 4, Spines: 3, HostsPerLeaf: 2,
		BytesPerRank: 64 << 10, Iterations: 3,
		JitterMax:  2 * sim.Microsecond,
		Background: 8 * sim.Microsecond,
		Seed:       11,
	}
	want := fatTreeFingerprint(t, sc, 1)
	for _, w := range []int{2, 3, runtime.GOMAXPROCS(0), 2 * runtime.GOMAXPROCS(0)} {
		if got := fatTreeFingerprint(t, sc, w); got != want {
			t.Fatalf("shards=%d: fingerprint %x, want %x", w, got, want)
		}
	}
}

// TestShardedPropertyRandomFatTrees is the satellite testing/quick
// property: on randomly drawn fat-tree shapes and seeds, the event
// stream fingerprint is identical for shards ∈ {1, 2, GOMAXPROCS}.
func TestShardedPropertyRandomFatTrees(t *testing.T) {
	f := func(leavesSeed, spinesSeed, hostsSeed uint8, seed uint64) bool {
		sc := Scenario{
			Leaves:       2 + int(leavesSeed)%4,
			Spines:       2 + int(spinesSeed)%3,
			HostsPerLeaf: 1 + int(hostsSeed)%2,
			BytesPerRank: 32 << 10, Iterations: 2,
			JitterMax: sim.Microsecond,
			Seed:      seed%64 + 1,
		}
		want := fatTreeFingerprint(t, sc, 1)
		for _, w := range []int{2, runtime.GOMAXPROCS(0)} {
			if fatTreeFingerprint(t, sc, w) != want {
				t.Logf("mismatch on %+v", sc)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4}); err != nil {
		t.Fatal(err)
	}
}

// clos3Fingerprint is fatTreeFingerprint for the three-level fabric,
// exercising both monitor levels and the core→spine fault path.
func clos3Fingerprint(t *testing.T, sc Scenario, shards int) uint64 {
	t.Helper()
	sc.Shards = shards
	rt, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	fp, u64 := newFP()
	coll := telemetry.AttachAll(rt.Net, int(sc.Job), func(w *telemetry.Window) {
		u64(uint64(w.Leaf))
		u64(uint64(w.SwitchKind))
		u64(uint64(w.Iter))
		u64(uint64(w.ClosedAt))
		u64(uint64(w.Packets))
		for _, b := range w.PortBytes {
			u64(uint64(b))
		}
	})
	if _, err := rt.Inject(FaultSpec{Kind: FaultBernoulli, CoreSpine: true, Rate: 0.03}); err != nil {
		t.Fatal(err)
	}
	rt.startJobs(nil)
	final := rt.Run()
	coll.FlushAll(rt.Engine.Now())

	u64(uint64(final))
	st := rt.Net.Stats()
	u64(st.Sent)
	u64(st.Delivered)
	u64(st.DeliveredBytes)
	return fp.h.Sum64()
}

// TestShardedPropertyRandomClos3 draws random three-level Clos shapes
// and checks the same shards ∈ {1, 2, GOMAXPROCS} property.
func TestShardedPropertyRandomClos3(t *testing.T) {
	f := func(podsSeed, widthSeed uint8, seed uint64) bool {
		sc := Scenario{
			Pods:   2 + int(podsSeed)%2,
			Leaves: 2, Spines: 2,
			CoresPerGroup: 1 + int(widthSeed)%2,
			BytesPerRank:  32 << 10, Iterations: 2,
			Seed: seed%64 + 1,
		}
		want := clos3Fingerprint(t, sc, 1)
		for _, w := range []int{2, runtime.GOMAXPROCS(0)} {
			if clos3Fingerprint(t, sc, w) != want {
				t.Logf("mismatch on %+v", sc)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3}); err != nil {
		t.Fatal(err)
	}
}

// TestShardedSystemDetectsAndRemediates drives the FULL closed loop —
// telemetry, detection, localization, quarantine, probing, re-admission
// — on a sharded engine, checking that a silent fault is detected and
// that the control plane's actions are identical for every worker
// count.
func TestShardedSystemDetectsAndRemediates(t *testing.T) {
	run := func(shards int) (uint64, int) {
		sc := Scenario{
			Leaves: 6, Spines: 3, BytesPerRank: 256 << 10,
			Iterations: 8, Seed: 9, Shards: shards,
			Faults: []FaultSpec{{Kind: FaultBernoulli, Leaf: 2, Spine: 1, Rate: 0.05, Onset: 2}},
		}
		rt, err := sc.Build()
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		sys, err := rt.Attach(AttachOptions{Remediate: &remediate.Config{}})
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.Train(nil); err != nil {
			t.Fatal(err)
		}

		fp, u64 := newFP()
		events := only(t, sys).Pipeline.Events
		for _, e := range events {
			u64(uint64(e.Alert.Leaf))
			u64(uint64(e.Alert.Uplink))
			u64(uint64(e.Alert.Iter))
		}
		u64(rt.Net.FIBRecomputes())
		u64(uint64(rt.Engine.Now()))
		return fp.h.Sum64(), len(events)
	}

	want, events := run(1)
	if events == 0 {
		t.Fatal("sharded system raised no detection events")
	}
	for _, w := range []int{2, runtime.GOMAXPROCS(0)} {
		if got, _ := run(w); got != want {
			t.Fatalf("shards=%d: control-plane fingerprint %x, want %x", w, got, want)
		}
	}
}

// TestShardedLargeClos3 is the scale smoke: a three-level Clos with a
// few thousand ranks runs a full ring iteration on the sharded engine
// without falling over — completes, conserves bytes, delivers every
// message. The datacenter-scale variant (tens of thousands of hosts,
// EXPERIMENTS.md "Large Clos") is the same scenario with
// FLOWPULSE_SCALE=big, kept out of the default suite for time.
func TestShardedLargeClos3(t *testing.T) {
	sc := Scenario{
		Pods: 4, Leaves: 8, Spines: 4, CoresPerGroup: 2,
		HostsPerLeaf: 32, BytesPerRank: 64 << 10, Iterations: 1, Seed: 3,
		Shards: runtime.GOMAXPROCS(0),
	}
	if os.Getenv("FLOWPULSE_SCALE") == "big" {
		sc.Pods, sc.Leaves, sc.Spines, sc.CoresPerGroup = 16, 16, 8, 4
		sc.HostsPerLeaf = 64
		sc.BytesPerRank = 16 << 20
	}
	rt, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	hosts := len(rt.Topo.Hosts)
	iters := 0
	t0 := time.Now()
	rt.startJobs(func(sim.Time, uint16, uint32) { iters++ })
	final := rt.Run()
	t.Logf("%d hosts (%d domains, %d workers): %d iteration(s), %v simulated, %d messages, %v wall",
		hosts, rt.EngineGroup.Domains(), sc.Shards,
		iters, sim.Duration(final), rt.Stack.Stats().MessagesSent, time.Since(t0).Round(time.Millisecond))
	if iters != sc.Iterations {
		t.Fatalf("completed %d iterations, want %d", iters, sc.Iterations)
	}
	if bad := rt.Net.AuditConservation(); len(bad) != 0 {
		t.Fatalf("conservation violated: %v", bad[:min(len(bad), 3)])
	}
	if st := rt.Stack.Stats(); st.MessagesDelivered != st.MessagesSent {
		t.Fatalf("delivered %d of %d messages", st.MessagesDelivered, st.MessagesSent)
	}
}

// TestShardedAgreesWithLegacyInvariants compares the sharded schedule
// against the classic single-threaded one. The two schedules are NOT
// byte-identical (DESIGN.md decision 12: per-host message ids change
// the spray draws), but every schedule-independent quantity must
// agree: iterations completed, the reduced checksums (the reduction
// order is the ring's step order, not arrival order), and byte
// conservation.
func TestShardedAgreesWithLegacyInvariants(t *testing.T) {
	run := func(shards int) (iters int, vals [][]float64) {
		sc := Scenario{Leaves: 4, Spines: 2, BytesPerRank: 64 << 10, Iterations: 3, Seed: 5, Shards: shards}
		rt, err := sc.Build()
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		job := workload.StartJob(rt.Stack, workload.JobConfig{
			Job: sc.Job, Collective: rt.Coll, Iterations: sc.Iterations,
			Priority: fabric.High, Sentinel: true, Seed: sc.Seed, TrackValues: true,
			OnIteration: func(_ sim.Time, _ uint32, res *collective.Result) {
				vals = res.Values
			},
		})
		rt.Run()
		if bad := rt.Net.AuditConservation(); len(bad) != 0 {
			t.Fatalf("shards=%d: conservation violated: %v", shards, bad)
		}
		return job.CompletedIterations, vals
	}

	legacyIters, legacyVals := run(0)
	shardIters, shardVals := run(runtime.GOMAXPROCS(0))
	if legacyIters != shardIters {
		t.Fatalf("iterations: legacy %d, sharded %d", legacyIters, shardIters)
	}
	if legacyIters != 3 {
		t.Fatalf("completed %d iterations, want 3", legacyIters)
	}
	if len(shardVals) != len(legacyVals) {
		t.Fatalf("value rows: legacy %d, sharded %d", len(legacyVals), len(shardVals))
	}
	for r := range legacyVals {
		for c := range legacyVals[r] {
			if legacyVals[r][c] != shardVals[r][c] {
				t.Fatalf("checksum [%d][%d]: legacy %v, sharded %v", r, c, legacyVals[r][c], shardVals[r][c])
			}
		}
	}
}

// TestFailedBuildReleasesShardWorkers: a Build that fails after the
// sharded engine's worker pool is up — here on the collective, the last
// thing built — must close the pool on its way out. Workers exit
// asynchronously once their start channel closes, so the count is
// polled back down to where it started.
func TestFailedBuildReleasesShardWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	if _, err := (Scenario{Leaves: 4, Spines: 2, Collective: "bogus", Shards: 2}).Build(); err == nil {
		t.Fatal("built a scenario with an unknown collective")
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the failed build, %d before it: shard workers leaked", runtime.NumGoroutine(), before)
		}
	}
}
