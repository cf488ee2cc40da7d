package experiments

import (
	"fmt"
	"strings"

	"flowpulse/internal/core"
	"flowpulse/internal/localize"
)

// Fig4Config reproduces Figure 4's localization logic end to end: by
// comparing per-sender volumes on the deviating port, the receiving
// leaf distinguishes a fault on its own (local) spine link from a
// fault on a remote sender's link to the same spine. The workload is
// AllToAll so each monitored port carries traffic from many senders.
type Fig4Config struct {
	// Grid: the fabric (default 16×8, kept modest: the all-to-all
	// workload is quadratic in leaves), BytesPerRank (32 MiB, split
	// across peers), Trials per case (2) and FaultIters per trial (4,
	// fault present throughout). DropRate is the injected fault's
	// (default 5%): much heavier rates push the RTO-recovery transport
	// into a duplicate-heavy regime that smears volume surpluses across
	// every port (see EXPERIMENTS.md).
	Grid
	// UpstreamDropRate is the severity of the remote-link case
	// (default 15%): an upstream fault's port-level deviation is
	// diluted by the number of senders sharing the port, so it must be
	// several times the detection threshold times the sender count to
	// alert at all.
	UpstreamDropRate float64
}

// Fig4Case is the outcome for one fault direction.
type Fig4Case struct {
	Name string
	// Verdicts counts localization outcomes by kind.
	Local, Remote, Indeterminate int
	// CorrectLink counts verdicts naming the actually faulty link.
	CorrectLink int
	// Accuracy = CorrectLink / all verdicts.
	Accuracy float64
}

// Fig4Result is the reproduced figure.
type Fig4Result struct {
	Config     Fig4Config
	Downstream Fig4Case // fault on spine→leaf: expect local-link verdicts
	Upstream   Fig4Case // fault on leaf→spine: expect remote-link verdicts
}

// Fig4 runs both cases.
func Fig4(cfg Fig4Config) (*Fig4Result, error) {
	cfg = resolve("fig4", cfg)
	res := &Fig4Result{Config: cfg}

	runCase := func(name string, upstream bool, rate float64) (Fig4Case, error) {
		c := Fig4Case{Name: name}
		results, _, err := runCell(cfg.Trials, func(tr int) Trial {
			sc := cfg.scenario(cfg.Seed + uint64(tr)*101)
			sc.Collective = core.AllToAllKind
			f := faultFor(sc, tr, rate)
			f.Upstream = upstream
			sc.Iterations, sc.Faults = cfg.FaultIters, []core.FaultSpec{f}
			return Trial{Scenario: sc}
		})
		if err != nil {
			return c, err
		}
		total := 0
		for _, out := range results {
			for _, e := range out.Events {
				if e.Alert.Deviation >= 0 {
					continue
				}
				total++
				switch e.Verdict.Kind {
				case localize.LocalLink:
					c.Local++
				case localize.RemoteLink:
					c.Remote++
				default:
					c.Indeterminate++
				}
				for _, l := range e.Verdict.Links {
					if l == out.FaultLink {
						c.CorrectLink++
						break
					}
				}
			}
		}
		if total > 0 {
			c.Accuracy = float64(c.CorrectLink) / float64(total)
		}
		return c, nil
	}

	var err error
	if res.Downstream, err = runCase("downstream (local link)", false, cfg.DropRate); err != nil {
		return nil, err
	}
	if res.Upstream, err = runCase("upstream (remote link)", true, cfg.UpstreamDropRate); err != nil {
		return nil, err
	}
	return res, nil
}

// String renders the two cases.
func (r *Fig4Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4 — localization: local vs remote link, all-to-all on %dx%d, %s drop\n",
		r.Config.Leaves, r.Config.Spines, pct(r.Config.DropRate))
	for _, c := range []Fig4Case{r.Downstream, r.Upstream} {
		fmt.Fprintf(&b, "%-26s local=%d remote=%d indeterminate=%d correct-link=%s\n",
			c.Name+":", c.Local, c.Remote, c.Indeterminate, pct(c.Accuracy))
	}
	return b.String()
}
