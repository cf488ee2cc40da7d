package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"time"

	"flowpulse/internal/collective"
	"flowpulse/internal/control"
	"flowpulse/internal/detect"
	"flowpulse/internal/fabric"
	"flowpulse/internal/localize"
	"flowpulse/internal/monitor"
	"flowpulse/internal/predict"
	"flowpulse/internal/remediate"
	"flowpulse/internal/serve"
	"flowpulse/internal/sim"
	"flowpulse/internal/telemetry"
	"flowpulse/internal/topology"
	"flowpulse/internal/trace"
	"flowpulse/internal/transport"
)

// Unit probes: each times one layer's public entry point in
// isolation, at the shape the workload uses it, so the accounting can
// multiply an exact count from the run by a unit cost. Costs are
// inclusive of the layers below (a transport message includes its
// fabric hops, a fabric hop its engine events).

// probeTime is how long one timed batch runs; smoke runs shrink it.
var probeTime = 60 * time.Millisecond

// nsPerOp grows n until fn(n) takes a measurable time, sizes n for
// about probeTime, and returns the best ns per op of three batches —
// the least disturbed one, since a probe has no queueing of its own to
// average over.
func nsPerOp(fn func(n int)) float64 {
	n := 64
	var d time.Duration
	for {
		t0 := time.Now()
		fn(n)
		d = time.Since(t0)
		if d >= probeTime/4 || n >= 1<<28 {
			break
		}
		n *= 4
	}
	n = int(float64(n) * float64(probeTime) / float64(d))
	if n < 64 {
		n = 64
	}
	best := 0.0
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		fn(n)
		per := float64(time.Since(t0)) / float64(n)
		if i == 0 || per < best {
			best = per
		}
	}
	return best
}

// bestOf returns the shortest of three timings of fn.
func bestOf(fn func() error) (time.Duration, error) {
	var best time.Duration
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		if d := time.Since(t0); i == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

// --- sim ---

// lcg steps a 64-bit linear congruential generator (probe-local
// pseudo-randomness with no allocation and no shared state).
func lcg(x uint64) uint64 { return x*6364136223846793005 + 1442695040888963407 }

type engineTimer struct {
	eng  *sim.Engine
	left *int
	rng  uint64
}

func (t *engineTimer) Fire(sim.Time) {
	if *t.left <= 0 {
		return
	}
	*t.left--
	t.rng = lcg(t.rng)
	t.eng.AfterTimer(sim.Duration(1+t.rng>>52), t)
}

// probeEngine times the classic engine: 4096 typed timers re-arming
// themselves at pseudo-random delays, so the heap holds ≈4k pending
// events as it does under a paper-scale iteration.
func probeEngine() float64 {
	eng := sim.NewEngine()
	left := 0
	timers := make([]*engineTimer, 4096)
	for i := range timers {
		timers[i] = &engineTimer{eng: eng, left: &left, rng: uint64(i + 1)}
	}
	// One op is 64 events, so that even the smallest batch fires far
	// more events than the 4096 it takes to arm the timers.
	return nsPerOp(func(n int) {
		left = 64 * n
		for _, t := range timers {
			eng.AfterTimer(sim.Duration(1+t.rng>>52), t)
		}
		eng.Run()
	}) / 64
}

type groupDomain struct {
	eng  *sim.Engine
	left int
}

type groupTimer struct {
	g    *sim.Group
	doms []groupDomain
	dom  int
	rng  uint64
}

const groupLookahead = 200 * sim.Nanosecond

func (t *groupTimer) Fire(now sim.Time) {
	d := &t.doms[t.dom]
	if d.left <= 0 {
		return
	}
	d.left--
	t.rng = lcg(t.rng)
	if t.rng>>61 == 0 { // one fire in eight hands off to another domain
		from := t.dom
		t.dom = 1 + int(t.rng>>32)%(len(t.doms)-1)
		t.g.PostTimer(from, t.dom, now.Add(groupLookahead), t)
		return
	}
	d.eng.AfterTimer(sim.Duration(1+t.rng%uint64(4*groupLookahead)), t)
}

// probeGroup times the sharded engine: 48 domains on 2 workers, ≈85
// timers per worker domain firing about every other 200 ns window, one
// fire in eight crossing to another domain through the barrier.
func probeGroup() float64 {
	const domains, perDomain = 48, 85
	g := sim.NewGroup(sim.GroupConfig{Domains: domains, Lookahead: groupLookahead, Workers: 2})
	defer g.Close()
	doms := make([]groupDomain, domains)
	for d := range doms {
		doms[d].eng = g.Engine(d)
	}
	var timers []*groupTimer
	for d := 1; d < domains; d++ {
		for i := 0; i < perDomain; i++ {
			timers = append(timers, &groupTimer{g: g, doms: doms, dom: d, rng: uint64(d*1000 + i)})
		}
	}
	// One op is one event in every worker domain.
	return nsPerOp(func(n int) {
		for d := 1; d < domains; d++ {
			doms[d].left = n
		}
		for _, t := range timers {
			doms[t.dom].eng.AfterTimer(sim.Duration(1+t.rng%uint64(4*groupLookahead)), t)
		}
		g.Run()
	}) / (domains - 1)
}

// --- fabric, transport, telemetry ---

func probeTopo(leaves, spines int) *topology.Topology {
	topo, err := topology.NewFatTree(topology.FatTreeConfig{Leaves: leaves, Spines: spines})
	if err != nil {
		panic(err) // dimensions are the harness's own constants
	}
	return topo
}

// probeFabric times a 4 KiB packet host → leaf → spine → leaf → host
// with no transport above it, and counts its heap allocations.
func probeFabric(leaves, spines int) (ns, allocs float64) {
	eng := sim.NewEngine()
	net := fabric.MustNew(fabric.Config{Topo: probeTopo(leaves, spines), Engine: eng, Seed: 1})
	dst := topology.HostID(leaves - 1)
	net.SetReceiver(dst, func(sim.Time, *fabric.Packet) {})
	send := func(n int) {
		for i := 0; i < n; i++ {
			net.Send(fabric.SendSpec{Src: 0, Dst: dst, Size: 4096, Msg: uint64(i)})
			if i%1024 == 1023 {
				eng.Run()
			}
		}
		eng.Run()
	}
	ns = nsPerOp(send)
	const n = 1 << 15
	before := markMallocs()
	send(n)
	return ns, float64(markMallocs()-before) / n
}

// probeTransport times a 64 KiB message through Stack.Send — 16 data
// packets and their ACKs — between neighbouring leaves, as a ring step
// sends it.
func probeTransport(leaves, spines int) float64 {
	eng := sim.NewEngine()
	net := fabric.MustNew(fabric.Config{Topo: probeTopo(leaves, spines), Engine: eng, Seed: 1})
	stack := transport.NewStack(net, transport.Config{})
	return nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			src := i % leaves
			stack.Send(&transport.Message{Src: topology.HostID(src), Dst: topology.HostID((src + 1) % leaves), Bytes: 64 << 10})
			if i%64 == 63 {
				eng.Run()
			}
		}
		eng.Run()
	})
}

// probeTap times the leaf tap's per-packet hook: jobs == 1 is the
// single-job filtered tap, jobs == 2 the shared demuxing tap with the
// jobs interleaved in bursts of 8 (the shape collective traffic has on
// a shared uplink).
func probeTap(leaves, spines, jobs int) float64 {
	topo := probeTopo(leaves, spines)
	leaf := topo.Leaves()[0]
	hostPorts := len(topo.HostsOf(leaf))
	uplinks := len(topo.Switch(leaf).Ports) - hostPorts
	filter := telemetry.JobAny
	if jobs == 1 {
		filter = 1
	}
	mon := telemetry.NewLeafMonitor(topo, leaf, filter, func(*telemetry.Window) {})
	pkts := make([]*fabric.Packet, jobs)
	for j := range pkts {
		pkts[j] = &fabric.Packet{
			Src: topo.HostsOf(topo.Leaves()[1])[0], Size: 4096, Kind: fabric.Data,
			Tag: fabric.FlowTag{Sentinel: true, Job: uint16(j + 1), Iter: 1},
		}
	}
	return nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			mon.OnPacket(0, hostPorts+i%uplinks, pkts[i/8%jobs])
		}
	})
}

// --- predict, remediate, control ---

// controlFixture is a fabric with a verified control plane over it.
type controlFixture struct {
	topo  *topology.Topology
	net   *fabric.Network
	plane *control.Plane
	link  topology.LinkID
}

func newControlFixture(leaves, spines int) *controlFixture {
	topo := probeTopo(leaves, spines)
	net := fabric.MustNew(fabric.Config{Topo: topo, Engine: sim.NewEngine(), Seed: 1})
	return &controlFixture{
		topo: topo, net: net,
		plane: control.New(control.Config{Verify: true}, net),
		link:  topo.TrunkLinks(topo.Leaves()[0], topo.Spines()[1])[0],
	}
}

// probePredict times the analytical model's build (it runs once per
// Monitor) and one re-baseline after a known-fault change (it runs
// once per quarantine).
func probePredict(leaves, spines int, bytesPerRank int64) (buildUs, rebaselineUs float64) {
	fx := newControlFixture(leaves, spines)
	stack := transport.NewStack(fx.net, transport.Config{})
	group := make([]topology.HostID, leaves)
	for i := range group {
		group[i] = topology.HostID(i)
	}
	demand := (&collective.RingAllReduce{Group: group, BytesPerRank: bytesPerRank}).Demand()
	var a *predict.Analytical
	buildUs = nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			a = predict.NewAnalytical(fx.topo, fx.plane, stack, demand)
		}
	}) / 1e3
	faults := predict.NewFaultSet()
	a.SetFaults(faults)
	rebaselineUs = nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			if !faults.Add(fx.link) {
				faults.Remove(fx.link)
			}
			a.Rebaseline()
		}
	}) / 1e3
	return buildUs, rebaselineUs
}

// probeRemediate times Remediator.Observe on a first-sighting deficit
// alert (the streak bookkeeping every alert pays; confirmations are
// counted separately as ChangeSets).
func probeRemediate(leaves, spines int) float64 {
	fx := newControlFixture(leaves, spines)
	rem := remediate.New(fx.plane, predict.NewFaultSet(), nil, remediate.Config{})
	verdict := localize.Verdict{Kind: localize.RemoteLink, Links: []topology.LinkID{fx.link}}
	iter := uint32(0)
	return nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			iter += 2 // never consecutive: every alert opens a fresh streak
			rem.Observe(detect.Alert{
				Leaf: fx.topo.Leaves()[i%leaves], LeafOrdinal: i % leaves, Uplink: i % spines,
				Iter: iter, Predicted: 1e6, Observed: 9.7e5, Deviation: -0.03,
			}, verdict)
		}
	})
}

// probeChangeSet times one verified ChangeSet: push, read-back,
// commit, believed-FIB reconvergence.
func probeChangeSet(leaves, spines int) float64 {
	fx := newControlFixture(leaves, spines)
	i := 0
	return nsPerOp(func(n int) {
		for end := i + n; i < end; i++ {
			fx.plane.Apply(sim.Time(i), "bench", []control.Op{{Link: fx.link, Up: i&1 == 1}})
		}
	}) / 1e3
}

// --- detect, localize, monitor, trace: fed from a recording ---

// windowSet is a recording's windows decoded into memory, with the
// detect → localize stack the offline replay would build for them.
type windowSet struct {
	topo    *topology.Topology
	hdr     *trace.Header
	records []*trace.WindowRecord
	wins    []telemetry.Window
	pred    *trace.SnapshotPredictor
	det     *detect.Detector
	loc     *localize.Localizer
}

// loadWindows decodes up to max windows of a recording.
func loadWindows(raw []byte, max int) (*windowSet, error) {
	rd, err := trace.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	ws := &windowSet{topo: rd.Topo(), hdr: rd.Header(), pred: &trace.SnapshotPredictor{}}
	for len(ws.records) < max {
		rec, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if rec.Kind != trace.KindWindow {
			continue
		}
		wr := rec.Window
		ws.records = append(ws.records, wr)
		ws.wins = append(ws.wins, telemetry.Window{
			Leaf: ws.topo.Leaves()[wr.LeafOrd], LeafOrdinal: wr.LeafOrd, Job: wr.Job, Iter: wr.Iter,
			PortBytes: wr.PortBytes, SenderBytes: wr.SenderBytes, Packets: wr.Packets,
			AggPortBytes: wr.AggPortBytes, OpenedAt: wr.OpenedAt, ClosedAt: wr.ClosedAt,
		})
	}
	if len(ws.wins) == 0 {
		return nil, fmt.Errorf("probe: recording holds no windows")
	}
	jh := ws.hdr.Jobs[0]
	ws.det = detect.New(ws.topo, ws.pred, detect.Config{Threshold: jh.Threshold, MinPredicted: jh.MinPredicted})
	ws.loc = localize.New(ws.topo, ws.det.Threshold(), 0)
	return ws, nil
}

func (ws *windowSet) set(i int) *telemetry.Window {
	wr := ws.records[i]
	ws.pred.Set(wr.Ready, wr.PortPred, wr.SenderPred)
	return &ws.wins[i]
}

// probeDetect times Score + Check on one window, as the pipeline
// invokes the detector at every window close.
func (ws *windowSet) probeDetect() float64 {
	return nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			w := ws.set(i % len(ws.wins))
			ws.det.Score(w)
			ws.det.Check(w)
		}
	})
}

// probeLocalize times Localize on the recording's planted alerts (0 if
// the decoded prefix holds none).
func (ws *windowSet) probeLocalize() float64 {
	type hit struct {
		ix    int
		alert detect.Alert
	}
	var hits []hit
	for i := range ws.wins {
		for _, a := range ws.det.Check(ws.set(i)) {
			hits = append(hits, hit{i, a})
		}
	}
	if len(hits) == 0 {
		return 0
	}
	return nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			h := hits[i%len(hits)]
			ws.loc.Localize(h.alert, &ws.wins[h.ix], ws.records[h.ix].SenderPred)
		}
	})
}

// probeOnWindow times the monitor pipeline's window-close path:
// history false is the serve path (OnOwnedWindow, nothing retained),
// history true the replay/simulate path (OnWindow clones and keeps).
func (ws *windowSet) probeOnWindow(history bool) float64 {
	return nsPerOp(func(n int) {
		p := monitor.NewPipeline(monitor.PipelineConfig{
			Pred: ws.pred, Detect: ws.det, Localize: ws.loc, NoHistory: !history,
			OnEvent: func(monitor.Event) {},
		})
		for i := 0; i < n; i++ {
			w := ws.set(i % len(ws.wins))
			if history {
				p.OnWindow(w)
			} else {
				p.OnOwnedWindow(w)
			}
		}
	})
}

// probeEncode times Writer.Window into io.Discard.
func (ws *windowSet) probeEncode() float64 {
	w := trace.NewWriter(io.Discard)
	if err := w.Begin(*ws.hdr); err != nil {
		panic(err) // io.Discard cannot fail
	}
	return nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			k := i % len(ws.wins)
			w.Window(&ws.wins[k], ws.records[k].Ready, ws.records[k].PortPred, ws.records[k].SenderPred)
		}
	})
}

// probeDecode times decoding a whole recording from memory, per
// window: reuse true is Reader.NextInto with one reused slot (the
// serve path), false the allocating Reader.Next (the replay path).
func probeDecode(rec *recording, reuse bool) (float64, error) {
	d, err := bestOf(func() error {
		rd, err := trace.NewReader(bytes.NewReader(rec.raw))
		if err != nil {
			return err
		}
		var slot trace.WindowRecord
		dest := func(uint16, int) *trace.WindowRecord { return &slot }
		for {
			if reuse {
				_, err = rd.NextInto(dest)
			} else {
				_, err = rd.Next()
			}
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
		}
	})
	return float64(d) / float64(rec.windows), err
}

// --- serve ---

// probeIngestMem times Server.IngestStream from memory: decode, ring
// hop, shard dispatch, detect — everything but the socket.
func probeIngestMem(rec *recording, mode string) (float64, error) {
	srv, err := serve.New(serve.Config{Shards: 2})
	if err != nil {
		return 0, err
	}
	defer srv.Drain(0)
	d, err := bestOf(func() error {
		st, err := srv.IngestStream(bytes.NewReader(rec.raw), mode, "probe")
		if err == nil && st.Windows != int64(rec.windows) {
			err = fmt.Errorf("probe: ingested %d of %d windows", st.Windows, rec.windows)
		}
		return err
	})
	return float64(d) / float64(rec.windows), err
}

// overLoopback sends raw over a fresh loopback TCP connection to a
// consumer goroutine and returns the time until the consumer has seen
// the end of the stream. It is the ladder's rig: the rungs differ only
// in what consume does with the bytes.
func overLoopback(raw []byte, consume func(io.Reader) error) (time.Duration, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	done := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		defer conn.Close()
		done <- consume(conn)
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	t0 := time.Now()
	if _, err := conn.Write(raw); err != nil {
		return 0, err
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		return 0, err
	}
	if err := <-done; err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

// ladder replays one recording over loopback TCP through successively
// more of the serve path, so each rung's self time is the difference
// to the rung below: bare socket → trace.decode → monitor.onwindow
// (sequential replayer, nothing retained). The top rung — the real
// server — is measured by the caller.
type ladder struct {
	socketNs, decodeNs, onWindowNs float64 // cumulative ns per window
}

func runLadder(rec *recording) (ladder, error) {
	var l ladder
	per := func(consume func(io.Reader) error) (float64, error) {
		d, err := bestOf(func() error {
			_, err := overLoopback(rec.raw, consume)
			return err
		})
		return float64(d) / float64(rec.windows), err
	}
	var err error
	if l.socketNs, err = per(func(r io.Reader) error {
		_, err := io.Copy(io.Discard, r)
		return err
	}); err != nil {
		return l, err
	}
	decode := func(r io.Reader, feed func(*trace.Reader, *trace.Record) error) error {
		rd := trace.NewFollowReader(r)
		var slot trace.WindowRecord
		dest := func(uint16, int) *trace.WindowRecord { return &slot }
		for {
			rec, err := rd.NextInto(dest)
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			if feed != nil {
				if err := feed(rd, &rec); err != nil {
					return err
				}
			}
		}
	}
	if l.decodeNs, err = per(func(r io.Reader) error { return decode(r, nil) }); err != nil {
		return l, err
	}
	l.onWindowNs, err = per(func(r io.Reader) error {
		var rp *trace.Replayer
		return decode(r, func(rd *trace.Reader, rec *trace.Record) error {
			if rp == nil {
				var err error
				if rp, err = trace.NewReplayer(rd.Header(), rd.Topo(), trace.ReplayOptions{NoHistory: true}); err != nil {
					return err
				}
			}
			return rp.Feed(rec)
		})
	})
	return l, err
}
