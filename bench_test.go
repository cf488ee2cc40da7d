package flowpulse

// Benchmark harness: one benchmark per paper table/figure (see
// DESIGN.md §3 for the experiment index) plus design-choice ablations
// and substrate micro-benchmarks. Benchmarks run scaled-down
// configurations so `go test -bench=.` completes in minutes on one
// core; the flowpulse-eval CLI runs the full-scale versions and
// EXPERIMENTS.md records their output.

import (
	"fmt"
	"testing"

	"flowpulse/internal/core"
	"flowpulse/internal/experiments"
	"flowpulse/internal/fabric"
	"flowpulse/internal/sim"
	"flowpulse/internal/spray"
	"flowpulse/internal/telemetry"
	"flowpulse/internal/topology"
	"flowpulse/internal/transport"
)

// BenchmarkFig2AnalyticalVsSim regenerates Figure 2: analytical
// per-port prediction vs simulated observation for a single flow.
func BenchmarkFig2AnalyticalVsSim(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig2(experiments.Fig2Config{Grid: experiments.Grid{
			Leaves: 16, Spines: 8, BytesPerRank: 8 << 20, CleanIters: 2, Seed: uint64(i),
		}})
		if err != nil {
			b.Fatal(err)
		}
		if res.MaxRelErr > 0.05 {
			b.Fatalf("prediction diverged: %v", res.MaxRelErr)
		}
	}
}

// BenchmarkFig3LearnedRebaseline regenerates Figure 3: the learned
// model replacing its baseline after a transient fault heals.
func BenchmarkFig3LearnedRebaseline(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig3(experiments.Fig3Config{
			// 12 iterations; the fault heals after the 5th.
			Grid:  experiments.Grid{Leaves: 8, Spines: 4, BytesPerRank: 4 << 20, FaultIters: 5, CleanIters: 7, Seed: uint64(i)},
			Fault: core.LeafSpineLink{LeafOrd: 2, SpineOrd: 1},
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.RebaselinedAtIter == 0 {
			b.Fatal("no rebaseline")
		}
	}
}

// BenchmarkFig4Localization regenerates Figure 4: local vs remote link
// attribution under all-to-all.
func BenchmarkFig4Localization(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig4(experiments.Fig4Config{Grid: experiments.Grid{
			Leaves: 8, Spines: 4, BytesPerRank: 16 << 20,
			Trials: 1, FaultIters: 2, Seed: uint64(i),
		}})
		if err != nil {
			b.Fatal(err)
		}
		if res.Downstream.Local == 0 {
			b.Fatal("downstream case produced no local verdicts")
		}
	}
}

// BenchmarkFig5aROC regenerates Figure 5(a): the threshold ROC across
// drop rates.
func BenchmarkFig5aROC(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig5a(experiments.Fig5aConfig{
			Grid:      experiments.Grid{Leaves: 8, Spines: 4, BytesPerRank: 4 << 20, Trials: 1, CleanIters: 2, FaultIters: 2, Seed: uint64(i)},
			DropRates: []float64{0.008, 0.03},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5bRadixSweep regenerates Figure 5(b): FPR/FNR across
// switch radixes at a fixed drop rate.
func BenchmarkFig5bRadixSweep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig5b(experiments.Fig5bConfig{
			Grid:    experiments.Grid{BytesPerRank: 4 << 20, Trials: 1, CleanIters: 2, FaultIters: 2, Seed: uint64(i)},
			Radixes: []int{8, 16},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5cSizeSweep regenerates Figure 5(c): FPR/FNR across
// collective sizes.
func BenchmarkFig5cSizeSweep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig5c(experiments.Fig5cConfig{
			Grid:      experiments.Grid{Leaves: 8, Spines: 4, Trials: 1, CleanIters: 2, FaultIters: 2, Seed: uint64(i)},
			Sizes:     []int64{1 << 20, 8 << 20},
			DropRates: []float64{0.025},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPreExistingFaults regenerates the §6 pre-existing-faults
// table: new-fault classification with known disconnections present.
func BenchmarkPreExistingFaults(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.PreExisting(experiments.PreExistingConfig{
			Grid:      experiments.Grid{Leaves: 8, Spines: 4, BytesPerRank: 8 << 20, Trials: 1, CleanIters: 2, FaultIters: 2, Seed: uint64(i)},
			Counts:    []int{0, 2},
			DropRates: []float64{0.03},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHeadlineDetection regenerates the abstract's headline: a
// 1.5% faulty link caught on the 32-leaf fat tree during
// Ring-AllReduce.
func BenchmarkHeadlineDetection(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Headline(experiments.HeadlineConfig{Grid: experiments.Grid{
			BytesPerRank: 16 << 20,
			CleanIters:   1, FaultIters: 2,
			Seed: uint64(i),
		}})
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
}

// BenchmarkAblationSprayPolicy quantifies DESIGN.md decision 2: the
// clean-network noise floor under each load-balancing policy, which
// bounds the usable detection threshold.
func BenchmarkAblationSprayPolicy(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Ablation(experiments.AblationConfig{
			Grid:     experiments.Grid{Leaves: 8, Spines: 4, BytesPerRank: 4 << 20, CleanIters: 2, FaultIters: 2, Seed: uint64(i)},
			Policies: []spray.Kind{spray.LeastLoaded, spray.Random},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPredictors compares the three §5.2 load models on
// the same faulty scenario (detection quality aside, this measures the
// cost of each pipeline, including the simulation model's reference
// run).
func BenchmarkAblationPredictors(b *testing.B) {
	b.ReportAllocs()
	for _, kind := range []core.PredictorKind{core.AnalyticalModel, core.SimulationModel, core.LearnedModel} {
		b.Run(string(kind), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tr := experiments.Trial{
					Scenario: core.Scenario{
						Leaves: 8, Spines: 4, BytesPerRank: 4 << 20, Iterations: 5, Seed: uint64(i),
						Faults: []core.FaultSpec{{Kind: core.FaultBernoulli, Leaf: 3, Spine: 1, Rate: 0.05, Onset: 3}},
					},
					Monitor: core.MonitorSpec{Predictor: kind},
				}
				if _, err := tr.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTrainingIteration measures the simulator's cost for one
// full Ring-AllReduce iteration on the paper topology (the unit every
// experiment above is built from).
func BenchmarkTrainingIteration(b *testing.B) {
	b.ReportAllocs()
	cluster, err := New(Scenario{Leaves: 32, Spines: 16, BytesPerRank: 4 << 20, Iterations: 1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	// Warm one run to size the pools, then measure fresh clusters.
	cluster.Train(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := New(Scenario{Leaves: 32, Spines: 16, BytesPerRank: 4 << 20, Iterations: 1, Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		c.Train(nil)
	}
}

// BenchmarkTrainingIterationParallel is BenchmarkTrainingIteration on
// the sharded engine across worker counts. Results are bit-identical
// at every shard count (DESIGN.md decision 12); what varies is
// wall-clock. On a single-core runner the shards>1 rows measure the
// synchronization overhead ceiling; on 8+ cores they show the parallel
// speedup recorded in README's Performance section.
func BenchmarkTrainingIterationParallel(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			// Warm one run to size the pools, then measure fresh clusters.
			warm, err := New(Scenario{Leaves: 32, Spines: 16, BytesPerRank: 4 << 20, Iterations: 1, Seed: 1, Shards: shards})
			if err != nil {
				b.Fatal(err)
			}
			warm.Train(nil)
			warm.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c, err := New(Scenario{Leaves: 32, Spines: 16, BytesPerRank: 4 << 20, Iterations: 1, Seed: uint64(i), Shards: shards})
				if err != nil {
					b.Fatal(err)
				}
				c.Train(nil)
				c.Close()
			}
		})
	}
}

// BenchmarkEngineEvents measures the raw discrete-event scheduler.
func BenchmarkEngineEvents(b *testing.B) {
	b.ReportAllocs()
	eng := sim.NewEngine()
	count := 0
	var tick func(now sim.Time)
	tick = func(now sim.Time) {
		count++
		if count < b.N {
			eng.After(10, tick)
		}
	}
	b.ResetTimer()
	eng.After(10, tick)
	eng.Run()
}

// holdHorizons are the four distances ahead of now at which a training
// run does nearly all of its scheduling: a 64 B ACK and a 4 KiB frame
// serializing at 400 Gb/s (1.28 ns, 81.92 ns), one link propagation
// delay (200 ns), and propagation plus queueing (≈450 ns). They are
// constants, as the run's are (`flowpulse-sim -stats`: 99.8% of a
// run's schedulings repeat one of five delays), so after the first few
// firings the timers below sit in the engine's FIFO lanes, not its heap.
var holdHorizons = [4]sim.Duration{1280, 81920, 200 * sim.Nanosecond, 450 * sim.Nanosecond}

// holdTimer is one resident event of BenchmarkEngineHold: every firing
// re-arms it one horizon ahead, and every 128th replaces its 8 µs RTO,
// leaving the cancelled one queued to be popped and skipped.
type holdTimer struct {
	eng  *sim.Engine
	left *int
	k    int
	rto  sim.EventRef
}

func (t *holdTimer) Fire(sim.Time) {
	if *t.left <= 0 {
		return
	}
	*t.left--
	t.k++
	t.eng.AfterTimer(holdHorizons[t.k&3], t)
	if t.k&127 == 0 {
		t.eng.Cancel(t.rto)
		t.rto = t.eng.AfterTimer(8*sim.Microsecond, nopTimer{})
	}
}

type nopTimer struct{}

func (nopTimer) Fire(sim.Time) {}

// BenchmarkEngineHold is the classic hold model of a priority queue:
// ≈1k events stay pending (768 resident timers plus the RTOs in
// flight) and each op pops one and pushes one. BenchmarkEngineEvents
// keeps a single event pending, so the queue is free in it; this row is
// the one that prices a pop at a training run's queue depth.
func BenchmarkEngineHold(b *testing.B) {
	b.ReportAllocs()
	eng := sim.NewEngine()
	left := b.N
	for i := 0; i < 768; i++ {
		eng.AtTimer(sim.Time(i*97), &holdTimer{eng: eng, left: &left, k: i})
	}
	b.ResetTimer()
	eng.Run()
}

// barrierToken is one circulating event of BenchmarkGroupBarrier: it
// re-arms on its own domain one frame time ahead, except every 8th
// firing, which posts it to the next worker domain across the barrier.
const barrierLookahead = 200 * sim.Nanosecond

type barrierToken struct {
	g    *sim.Group
	dom  int
	left *int
	k    int
}

func (t *barrierToken) Fire(now sim.Time) {
	if *t.left <= 0 {
		return
	}
	*t.left--
	t.k++
	if t.k&7 != 0 {
		t.g.Engine(t.dom).AtTimer(now.Add(81920), t)
		return
	}
	from := t.dom
	t.dom = from%(t.g.Domains()-1) + 1
	t.g.PostTimer(from, t.dom, now.Add(barrierLookahead+81920), t)
}

// BenchmarkGroupBarrier prices the sharded engine's window loop and
// mailbox drain with no fabric underneath: 48 domains (control plus 47
// workers) with 8 tokens each, 1 firing in 8 a cross-domain post. One
// worker, so the row is the barrier's own cost, not the box's core
// count.
func BenchmarkGroupBarrier(b *testing.B) {
	b.ReportAllocs()
	g := sim.NewGroup(sim.GroupConfig{Domains: 48, Lookahead: barrierLookahead, Workers: 1})
	defer g.Close()
	left := b.N
	for d := 1; d < g.Domains(); d++ {
		for i := 0; i < 8; i++ {
			g.Engine(d).AtTimer(sim.Time(d*131+i*9973), &barrierToken{g: g, dom: d, left: &left, k: d + i})
		}
	}
	b.ResetTimer()
	g.Run()
}

// BenchmarkFabricForwarding measures raw packet forwarding through the
// fat tree (no transport, no monitoring).
func BenchmarkFabricForwarding(b *testing.B) {
	b.ReportAllocs()
	topo, err := topology.NewFatTree(topology.FatTreeConfig{Leaves: 8, Spines: 4})
	if err != nil {
		b.Fatal(err)
	}
	eng := sim.NewEngine()
	net := fabric.MustNew(fabric.Config{Topo: topo, Engine: eng, Seed: 1})
	delivered := 0
	net.SetReceiver(topology.HostID(3), func(sim.Time, *fabric.Packet) { delivered++ })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Send(fabric.SendSpec{Src: 0, Dst: 3, Size: 4096, Msg: uint64(i)})
		if i%1024 == 1023 {
			eng.Run()
		}
	}
	eng.Run()
	b.ReportMetric(float64(delivered)/float64(b.N), "delivered/op")
}

// BenchmarkECNDCQCNTransport measures the transport-loop cost of the
// congestion machinery: "off" is the plain stack, "on" adds fabric CE
// marking at a sensitive knee plus DCQCN pacing reacting to the echoed
// marks. One op is one 64 KiB message in a 7→1 incast — the traffic
// shape that actually exercises marking — so the delta prices the whole
// ECN→ACK-echo→rate-limiter loop, not just the mark branch.
func BenchmarkECNDCQCNTransport(b *testing.B) {
	for _, mode := range []struct {
		name string
		on   bool
	}{{"off", false}, {"on", true}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			topo, err := topology.NewFatTree(topology.FatTreeConfig{Leaves: 8, Spines: 4})
			if err != nil {
				b.Fatal(err)
			}
			eng := sim.NewEngine()
			cfg := fabric.Config{Topo: topo, Engine: eng, Seed: 1}
			if mode.on {
				cfg.ECN = fabric.ECNConfig{Enabled: true, KMinBytes: 16 << 10, KMaxBytes: 64 << 10}
			}
			net := fabric.MustNew(cfg)
			stack := transport.NewStack(net, transport.Config{DCQCN: mode.on})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				stack.Send(&transport.Message{
					Src:   topology.HostID(1 + i%7),
					Dst:   0,
					Bytes: 64 << 10,
				})
				if i%64 == 63 {
					eng.Run()
				}
			}
			eng.Run()
		})
	}
}

// BenchmarkSharedTapMultiJob measures the per-packet dataplane cost of
// monitoring N concurrent jobs: the shared plane's ONE demuxing tap
// per switch versus N job-filtered taps each inspecting every packet
// (the pre-plane alternative). One op is one ingress packet through
// the full tap stack, so the shared tap's cost must stay flat as N
// grows — and allocation-free in steady state (the gate lives in
// internal/telemetry), which is what lets multi-job monitoring ride
// the zero-allocation forwarding hot path.
func BenchmarkSharedTapMultiJob(b *testing.B) {
	topo, err := topology.NewFatTree(topology.FatTreeConfig{Leaves: 8, Spines: 4})
	if err != nil {
		b.Fatal(err)
	}
	leaf := topo.Leaves()[0]
	src := topo.HostsOf(topo.Leaves()[1])[0]
	hostPorts := len(topo.HostsOf(leaf))
	uplinks := len(topo.Switch(leaf).Ports) - hostPorts
	for _, n := range []int{1, 2, 4} {
		pkts := make([]*fabric.Packet, n)
		for j := range pkts {
			pkts[j] = &fabric.Packet{
				Src: src, Size: 4096, Kind: fabric.Data,
				Tag: fabric.FlowTag{Sentinel: true, Job: uint16(j + 1), Iter: 1},
			}
		}
		warm := func(m *telemetry.LeafMonitor) {
			for i, p := range pkts {
				m.OnPacket(0, hostPorts+i%uplinks, p)
			}
		}
		// Jobs interleave in bursts of 8, the shape collective traffic
		// actually has on a shared uplink (and what the demux's
		// current-window cache is designed for); strict per-packet
		// alternation would instead measure the map-lookup slow path.
		b.Run(fmt.Sprintf("shared/jobs=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			mon := telemetry.NewLeafMonitor(topo, leaf, telemetry.JobAny, func(*telemetry.Window) {})
			warm(mon)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mon.OnPacket(0, hostPorts+i%uplinks, pkts[i/8%n])
			}
		})
		b.Run(fmt.Sprintf("filtered/jobs=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			mons := make([]*telemetry.LeafMonitor, n)
			for j := range mons {
				mons[j] = telemetry.NewLeafMonitor(topo, leaf, j+1, func(*telemetry.Window) {})
				warm(mons[j])
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, m := range mons {
					m.OnPacket(0, hostPorts+i%uplinks, pkts[i/8%n])
				}
			}
		})
	}
}

// BenchmarkMonitorOverhead measures the telemetry + detection pipeline
// cost per iteration relative to an unmonitored run — the paper's
// "low-overhead" claim, in simulator terms.
func BenchmarkMonitorOverhead(b *testing.B) {
	b.ReportAllocs()
	run := func(b *testing.B, monitored bool) {
		for i := 0; i < b.N; i++ {
			c, err := New(Scenario{Leaves: 8, Spines: 4, BytesPerRank: 4 << 20, Iterations: 2, Seed: uint64(i)})
			if err != nil {
				b.Fatal(err)
			}
			if monitored {
				if _, err := c.Monitor(MonitorConfig{}); err != nil {
					b.Fatal(err)
				}
			}
			c.Train(nil)
		}
	}
	b.Run("bare", func(b *testing.B) { b.ReportAllocs(); run(b, false) })
	b.Run("monitored", func(b *testing.B) { b.ReportAllocs(); run(b, true) })
}

// BenchmarkFaultTypes regenerates the §7 fault-type table: Bernoulli,
// black-hole, Gilbert-Elliott, and bit-error faults all detected via
// their drop signature.
func BenchmarkFaultTypes(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.FaultTypes(experiments.FaultTypesConfig{Grid: experiments.Grid{
			Leaves: 8, Spines: 4, BytesPerRank: 8 << 20,
			Trials: 1, CleanIters: 2, FaultIters: 2,
			Seed: uint64(i),
		}}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJitterSweep regenerates the §7 jitter-sensitivity table.
func BenchmarkJitterSweep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Jitter(experiments.JitterConfig{
			Grid:        experiments.Grid{Leaves: 8, Spines: 4, BytesPerRank: 8 << 20, Trials: 1, CleanIters: 2, FaultIters: 2, Seed: uint64(i)},
			JitterMaxes: []sim.Duration{0, 10 * sim.Microsecond},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrunkFault regenerates the §7 parallel-links table.
func BenchmarkTrunkFault(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Trunks(experiments.TrunkConfig{
			Grid:  experiments.Grid{Leaves: 8, Spines: 4, BytesPerRank: 8 << 20, Trials: 1, CleanIters: 2, FaultIters: 2, Seed: uint64(i)},
			Trunk: 2,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClos3DualLevel regenerates the §7 three-level-Clos
// experiment: dual-level monitoring catching spine-leaf and core-spine
// faults.
func BenchmarkClos3DualLevel(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Clos3(experiments.Clos3Config{
			// 8 iterations, the fault injected after the 4th.
			Grid: experiments.Grid{Leaves: 4, Spines: 2, BytesPerRank: 8 << 20, CleanIters: 4, FaultIters: 4, Seed: uint64(i)},
			Pods: 2, CoresPerGroup: 2,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBlockingNetwork regenerates the §7 blocking-network
// experiment: oversubscription plus saturating background, with the
// prioritized collective still cleanly measurable.
func BenchmarkBlockingNetwork(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Blocking(experiments.BlockingConfig{
			Grid:         experiments.Grid{Leaves: 8, Spines: 4, BytesPerRank: 8 << 20, Trials: 1, CleanIters: 2, FaultIters: 2, Seed: uint64(i)},
			HostsPerLeaf: 2,
		}); err != nil {
			b.Fatal(err)
		}
	}
}
