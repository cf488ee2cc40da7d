package monitor

import (
	"fmt"

	"flowpulse/internal/fabric"
	"flowpulse/internal/sim"
	"flowpulse/internal/telemetry"
	"flowpulse/internal/topology"
)

// Key names one pipeline on a Plane: the tier of the switches whose
// windows it analyzes (leaves; on a three-level fabric also spines, §7
// "Network Topology") and the job those windows measured.
type Key struct {
	Tier topology.SwitchKind
	Job  uint16
}

// Plane is the shared monitoring plane: ONE telemetry tap per switch
// (measuring every sentinel-tagged job, demultiplexed per job id by
// the monitors), fanning each closed window out to the pipeline that
// owns its (tier, job). N jobs cost one per-packet hook instead of N —
// the tap is on the forwarding hot path, the pipelines are not (they
// run once per window close).
//
// Windows arrive on the control engine, one at a time (see
// telemetry.AttachAll), so neither the Plane nor the pipelines behind
// it are synchronized.
type Plane struct {
	collector *telemetry.Collector
	pipelines map[Key]*Pipeline

	// unrouted counts closed windows whose (tier, job) has no pipeline
	// (e.g. a tagged job deployed without a monitor); they are dropped,
	// not misattributed.
	unrouted int64
}

// NewPlane deploys the shared tap on every monitored switch of the
// network and routes closed windows to the given pipelines, which the
// Plane keeps (the caller must not modify the map afterwards).
func NewPlane(net *fabric.Network, pipelines map[Key]*Pipeline) *Plane {
	for k, pipe := range pipelines {
		if pipe == nil {
			panic(fmt.Sprintf("monitor: no pipeline for %s tier, job %d", k.Tier, k.Job))
		}
	}
	p := &Plane{pipelines: pipelines}
	p.collector = telemetry.AttachAll(net, telemetry.JobAny, p.route)
	return p
}

// route is the demux point between the fabric-scoped tap and the
// job-scoped pipelines.
func (p *Plane) route(w *telemetry.Window) {
	pipe := p.pipelines[Key{w.SwitchKind, w.Job}]
	if pipe == nil {
		p.unrouted++
		return
	}
	pipe.OnWindow(w)
}

// UnroutedWindows reports how many closed windows had no pipeline for
// their (tier, job).
func (p *Plane) UnroutedWindows() int64 { return p.unrouted }

// Flush closes all open telemetry windows (end of training): switch by
// switch — leaves, then spines — and per switch in ascending job order.
func (p *Plane) Flush(now sim.Time) { p.collector.FlushAll(now) }
