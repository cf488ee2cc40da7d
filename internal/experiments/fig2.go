package experiments

import (
	"fmt"
	"math"
	"strings"

	"flowpulse/internal/collective"
	"flowpulse/internal/core"
	"flowpulse/internal/predict"
	"flowpulse/internal/telemetry"
	"flowpulse/internal/topology"
)

// Fig2Config reproduces Figure 2: "Analytical prediction matches the
// simulation for a single flow." One bulk flow crosses the fabric
// repeatedly; the analytical per-port prediction is compared with the
// volume the simulated leaf switch actually measures, in the presence
// of pre-existing (known) faults that skew the expected distribution.
type Fig2Config struct {
	// Grid: the fabric (paper default 32×16), the single flow's payload
	// per iteration as BytesPerRank (16 MiB), and CleanIters fault-free
	// iterations averaging the observation (4).
	Grid
}

// Fig2Port is one bar pair of the figure.
type Fig2Port struct {
	Uplink              int
	Predicted, Observed float64
	RelErr              float64 // |obs−pred|/pred, 0 when both ~0
}

// Fig2Result is the reproduced figure.
type Fig2Result struct {
	Config Fig2Config
	// PreExisting lists the known-faulty links disconnected up front.
	PreExisting []core.LeafSpineLink
	Ports       []Fig2Port
	// MaxRelErr is the worst per-port relative error across ports with
	// expected traffic — the figure's "close agreement" quantified.
	MaxRelErr float64
}

// Fig2 runs the experiment.
func Fig2(cfg Fig2Config) (*Fig2Result, error) {
	cfg = resolve("fig2", cfg)
	sc := core.Scenario{
		Leaves: cfg.Leaves, Spines: cfg.Spines,
		Iterations: cfg.CleanIters,
		// Known faults touching the flow's destination leaf and source
		// leaf, so the prediction must use d/(s−f).
		PreExisting: []core.LeafSpineLink{
			{LeafOrd: cfg.Leaves - 1, SpineOrd: 2},
			{LeafOrd: 0, SpineOrd: 7 % cfg.Spines},
		},
		Seed: cfg.Seed,
	}
	// No detector here — the raw windows are the result — so Fig2 drives
	// its own runtime instead of going through core.Run.
	rt, err := sc.Build()
	if err != nil {
		return nil, err
	}
	defer rt.Close()
	// Replace the default collective with the single flow 0 → last.
	src := topology.HostID(0)
	dst := topology.HostID(len(rt.Group) - 1)
	flow := &collective.SingleFlow{Src: src, Dst: dst, Bytes: cfg.BytesPerRank}
	rt.Jobs[0].Coll = flow

	dstLeafOrd := cfg.Leaves - 1
	pred := predict.NewAnalytical(rt.Topo, rt.Net, rt.Stack, flow.Demand())
	expected := pred.PortLoad(dstLeafOrd)

	observed := make([]float64, cfg.Spines)
	windows := 0
	coll := telemetry.AttachAll(rt.Net, int(sc.Job), func(w *telemetry.Window) {
		if w.LeafOrdinal != dstLeafOrd {
			return
		}
		windows++
		for u, b := range w.PortBytes {
			observed[u] += float64(b)
		}
	})
	if err := rt.Train(nil); err != nil {
		return nil, err
	}
	coll.FlushAll(rt.Engine.Now())
	if windows == 0 {
		return nil, fmt.Errorf("fig2: no measurement windows closed")
	}
	for u := range observed {
		observed[u] /= float64(windows)
	}

	res := &Fig2Result{Config: cfg, PreExisting: sc.PreExisting, Ports: make([]Fig2Port, 0, cfg.Spines)}
	for u := 0; u < cfg.Spines; u++ {
		p := Fig2Port{Uplink: u, Predicted: expected[u], Observed: observed[u]}
		if expected[u] > 1 {
			p.RelErr = math.Abs(observed[u]-expected[u]) / expected[u]
			if p.RelErr > res.MaxRelErr {
				res.MaxRelErr = p.RelErr
			}
		}
		res.Ports = append(res.Ports, p)
	}
	return res, nil
}

// String renders the figure as the table of per-port bars.
func (r *Fig2Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2 — analytical prediction vs simulation, single %d MiB flow, %dx%d fat tree, %d known faults\n",
		r.Config.BytesPerRank>>20, r.Config.Leaves, r.Config.Spines, len(r.PreExisting))
	fmt.Fprintf(&b, "%-8s %14s %14s %8s\n", "uplink", "predicted B", "observed B", "err")
	for _, p := range r.Ports {
		fmt.Fprintf(&b, "%-8d %14.0f %14.0f %8s\n", p.Uplink, p.Predicted, p.Observed, pct(p.RelErr))
	}
	fmt.Fprintf(&b, "max relative error: %s\n", pct(r.MaxRelErr))
	return b.String()
}
