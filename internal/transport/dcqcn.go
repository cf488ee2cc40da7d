package transport

import (
	"math"

	"flowpulse/internal/fabric"
	"flowpulse/internal/sim"
	"flowpulse/internal/topology"
)

// The per-pair DCQCN-style rate limiter (Config.DCQCN) is the reaction
// point of the ECN loop: switches mark CE above a queue threshold,
// receivers echo the mark on ACKs, and the sender cuts its injection
// rate. Its parameters are the ones every run has used.
const (
	// dcqcnG is the alpha EWMA gain.
	dcqcnG = 1.0 / 16
	// dcqcnCutInterval is the minimum spacing between rate cuts — one cut
	// per congestion notification window, however many marked ACKs arrive
	// inside it.
	dcqcnCutInterval = 50 * sim.Microsecond
	// dcqcnAlphaDecay is the alpha-decay period while no marks arrive.
	dcqcnAlphaDecay = 55 * sim.Microsecond
	// dcqcnIncPeriod is the rate-increase period.
	dcqcnIncPeriod = 25 * sim.Microsecond
	// dcqcnFastRecovery is the number of increase rounds that halve toward
	// the pre-cut target before additive increase starts; hyper increase
	// (5x the step) starts after 3x as many uncut rounds.
	dcqcnFastRecovery = 5
	// The additive-increase step is the line rate / dcqcnAIDivisor, and the
	// paced rate never falls below the line rate / dcqcnMinDivisor.
	dcqcnAIDivisor  = 50
	dcqcnMinDivisor = 1000
)

// pacedRef is one queued first transmission awaiting its pacing slot.
// Retransmissions bypass the pacer entirely: RTO recovery must not sit
// behind a throttled queue, and DCQCN reacts to marks, not losses.
type pacedRef struct {
	st  *sendState
	seq int
}

// dcqcnState is one (src, dst) pair's rate limiter. It lives entirely
// on the source host's engine — Send, the pacer timer, and the ACK path
// all execute there — so sharded runs need no synchronization and stay
// bit-identical across worker counts. Alpha decay and rate recovery are
// computed lazily from elapsed time at each pacer or ACK event instead
// of standing timers, so an idle pair costs nothing.
type dcqcnState struct {
	s         *Stack
	eng       *sim.Engine
	src       topology.HostID
	line      float64 // source NIC line rate, bits/s
	ai, floor float64 // additive-increase step and rate floor, bits/s
	rc, rt    float64 // current / target rate, bits/s
	alpha     float64
	lastCut   sim.Time // spacing clock: at most one cut per dcqcnCutInterval
	lastAlpha sim.Time // decay clock: alpha halves-toward-0 while unmarked
	lastInc   sim.Time
	incStage  int

	queue      []pacedRef
	head       int
	timerArmed bool
}

// Fire releases the next paced packet.
func (d *dcqcnState) Fire(now sim.Time) {
	d.timerArmed = false
	d.s.pacerKick(d, now)
}

// advance applies the alpha decay and rate increases accrued since the
// pair's last event. Fully recovered pairs snap their clocks forward so
// long idle gaps never loop.
func (d *dcqcnState) advance(now sim.Time) {
	if elapsed := now.Sub(d.lastAlpha); d.alpha > 0 && elapsed >= dcqcnAlphaDecay {
		d.alpha *= math.Pow(1-dcqcnG, float64(elapsed/dcqcnAlphaDecay))
		if d.alpha < 1e-9 {
			d.alpha = 0
		}
		d.lastAlpha = now.Add(-(elapsed % dcqcnAlphaDecay))
	}
	if d.rc >= d.line {
		d.rc, d.rt = d.line, d.line
		d.lastInc = now
		return
	}
	for now.Sub(d.lastInc) >= dcqcnIncPeriod {
		d.lastInc = d.lastInc.Add(dcqcnIncPeriod)
		d.incStage++
		switch {
		case d.incStage <= dcqcnFastRecovery:
			// Fast recovery: halve toward the pre-cut target.
		case d.incStage > 3*dcqcnFastRecovery:
			d.rt += 5 * d.ai // hyper increase
		default:
			d.rt += d.ai // additive increase
		}
		if d.rt > d.line {
			d.rt = d.line
		}
		d.rc = (d.rt + d.rc) / 2
		if d.rc >= d.line {
			d.rc, d.rt = d.line, d.line
			d.lastInc = now
			return
		}
	}
}

// cut reacts to one congestion notification (a CE-echoed ACK): EWMA the
// congestion estimate up and multiplicatively cut the rate, at most
// once per dcqcnCutInterval.
func (d *dcqcnState) cut(now sim.Time) {
	d.advance(now)
	if d.lastCut != 0 && now.Sub(d.lastCut) < dcqcnCutInterval {
		return
	}
	d.alpha = (1-dcqcnG)*d.alpha + dcqcnG
	d.rt = d.rc
	d.rc *= 1 - d.alpha/2
	if d.rc < d.floor {
		d.rc = d.floor
	}
	d.incStage = 0
	d.lastCut = now
	d.lastAlpha = now
	d.lastInc = now
	d.s.hosts[d.src].stats.RateCuts++
}

// pacer returns (creating on first use) the rate limiter of a pair.
func (s *Stack) pacer(src, dst topology.HostID) *dcqcnState {
	ix := int(src)*s.nHosts + int(dst)
	d := s.pacers[ix]
	if d == nil {
		line := float64(s.net.Topology().Link(s.net.Topology().Host(src).Link).RateBPS)
		d = &dcqcnState{
			s: s, eng: s.net.EngineOf(src), src: src,
			line: line, rc: line, rt: line,
			ai: line / dcqcnAIDivisor, floor: line / dcqcnMinDivisor,
		}
		s.pacers[ix] = d
	}
	return d
}

// pacerEnqueue queues every first transmission of a message behind the
// pair's pacer and starts it if idle.
func (s *Stack) pacerEnqueue(st *sendState) {
	d := s.pacer(st.msg.Src, st.msg.Dst)
	for seq := 0; seq < st.msg.packets; seq++ {
		d.queue = append(d.queue, pacedRef{st: st, seq: seq})
	}
	if !d.timerArmed {
		s.pacerKick(d, d.eng.Now())
	}
}

// pacerKick releases the next sendable packet and re-arms the pacer one
// serialization-at-current-rate gap later. At line rate the gap equals
// the NIC's own serialization time, so an unthrottled pair flows at
// full speed; after a cut the gap stretches proportionally.
func (s *Stack) pacerKick(d *dcqcnState, now sim.Time) {
	for d.head < len(d.queue) {
		ref := d.queue[d.head]
		d.head++
		if ref.st.finished || ref.st.pkt[ref.seq].acked {
			continue
		}
		d.advance(now)
		size := s.payloadBytes(ref.st.msg, ref.seq) + s.cfg.HeaderBytes
		s.sendData(ref.st, ref.seq, false)
		d.timerArmed = true
		d.eng.AfterTimer(sim.SerializationDelay(size, int64(d.rc)), d)
		return
	}
	d.queue = d.queue[:0]
	d.head = 0
}

// onCongestionNotification is the ACK-path hook: a CE-echoed ACK cuts
// the pair's rate. Runs on the source host's engine.
func (s *Stack) onCongestionNotification(now sim.Time, p *fabric.Packet) {
	// The ACK arrived at the original sender: p.Dst is the message
	// source, p.Src its destination.
	s.pacer(p.Dst, p.Src).cut(now)
}

// PairRateBPS reports a pair's current paced rate in bits/s (the line
// rate when DCQCN is disabled or the pair has never sent). Test and
// experiment hook.
func (s *Stack) PairRateBPS(src, dst topology.HostID) float64 {
	if s.pacers == nil {
		return float64(s.net.Topology().Link(s.net.Topology().Host(src).Link).RateBPS)
	}
	d := s.pacer(src, dst)
	d.advance(s.net.EngineOf(src).Now())
	return d.rc
}
