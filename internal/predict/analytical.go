package predict

import (
	"math/bits"

	"flowpulse/internal/collective"
	"flowpulse/internal/topology"
)

// Analytical is §5.2's closed-form model: in a fault-free network the
// traffic of each source-destination pair is evenly balanced across
// all spines; a known fault between source (or destination) and a
// spine removes that spine, so each of the surviving s−f spines
// carries d/(s−f) of the pair's d bytes, which then lands on the
// destination leaf's ingress port from that spine. Summing over the
// pairs destined to each leaf yields the per-port prediction.
//
// With parallel links (§7), the spray set contains one entry per
// admin-up (spine, trunk) pair on the source side, and each spine's
// share splits evenly again over the admin-up trunks on the
// destination side.
//
// When a quarantine leaves different senders with *different* spray
// sets toward the same destination leaf (one sender forced onto a
// subset of spines, another free to use all of them), the per-pair
// even split stops describing the fabric: adaptive spraying drains the
// flexible senders away from the ports the constrained sender is
// forced onto, equalizing total ingress per port wherever it can. For
// those destination leaves the model solves that equilibrium exactly —
// min-max water-filling over the senders' allowed port sets — instead
// of summing even splits. Destinations whose senders all share one
// spray set (every fault-free fabric, and most faulted ones) keep the
// closed-form path bit-for-bit.
type Analytical struct {
	topo   *topology.Topology
	fib    FIBView
	wire   WireSizer
	demand *collective.DemandMatrix
	faults *FaultSet // nil: FIB administrative state only

	ports   [][]float64   // [leafOrd][uplink]
	senders [][][]float64 // [leafOrd][uplink][senderLeafOrd]
}

// NewAnalytical computes the model once for a demand matrix against
// the current routing state. Call it again after known faults change
// (routing reconvergence invalidates the shares).
//
// The closed form is specific to the two-level spray geometry (§5.2);
// three-level fabrics use the learned model (core.Attach rejects the
// others with an error), so NewAnalytical panics on them rather than
// silently producing wrong shares.
func NewAnalytical(topo *topology.Topology, fib FIBView, wire WireSizer, demand *collective.DemandMatrix) *Analytical {
	if topo.Levels != 2 {
		panic("predict: the analytical model covers two-level fabrics; use the learned model for multi-level Clos")
	}
	a := &Analytical{topo: topo, fib: fib, wire: wire, demand: demand}
	a.Rebaseline()
	return a
}

// SetDemand swaps the demand matrix the closed form is computed from —
// the predictor half of a workload re-plan: after the resilience layer
// re-ranks or shrinks the collective, its traffic pattern changes and
// the old per-port shares would raise false alerts on a healthy
// fabric. Call Rebaseline after the swap (the re-plan path does, via
// the remediator's single rebaseline hook).
func (a *Analytical) SetDemand(d *collective.DemandMatrix) { a.demand = d }

// SetFaults attaches a mutable known-fault set: links in the set are
// excluded from spray geometry in addition to admin-down links, so the
// model can be updated at quarantine time without waiting for (or
// relying on) routing reconvergence. Call Rebaseline after the set
// changes.
func (a *Analytical) SetFaults(fs *FaultSet) { a.faults = fs }

// linkUp reports whether the model should treat a link as carrying
// traffic: administratively up and not in the known-fault set.
func (a *Analytical) linkUp(l topology.LinkID) bool {
	return a.fib.LinkAdminUp(l) && !a.faults.Has(l)
}

// Rebaseline implements Rebaseliner: it recomputes every per-port
// share from the demand matrix against the *current* routing state and
// known-fault set. The closed form is cheap (O(hosts² + leaves·spines)
// at paper scale), so the remediation loop calls this on every
// quarantine and re-admission.
func (a *Analytical) Rebaseline() {
	topo := a.topo
	nLeaf := len(topo.Leaves())
	a.ports = make([][]float64, nLeaf)
	a.senders = make([][][]float64, nLeaf)
	for lo, leaf := range topo.Leaves() {
		uplinks := len(topo.Switch(leaf).Ports) - len(topo.HostsOf(leaf))
		a.ports[lo] = make([]float64, uplinks)
		a.senders[lo] = make([][]float64, uplinks)
		for u := range a.senders[lo] {
			a.senders[lo][u] = make([]float64, nLeaf)
		}
	}

	// First pass: per destination leaf, find whether every sender's
	// spray set lands on the same ingress port set. Where they differ
	// (only possible with faults or admin-down asymmetry), the even
	// split is replaced by the water-filling equilibrium below.
	asym := a.findAsymmetric()

	var contribs map[int][]contrib
	for i, srcHost := range a.demand.Hosts {
		for j, dstHost := range a.demand.Hosts {
			payload := a.demand.Bytes[i][j]
			if payload == 0 {
				continue
			}
			srcLeaf, dstLeaf := topo.LeafOf(srcHost), topo.LeafOf(dstHost)
			if srcLeaf == dstLeaf {
				continue // local traffic never reaches the spines
			}
			var wireBytes float64
			for _, msg := range a.demand.Msgs[i][j] {
				wireBytes += float64(a.wire.WireBytesFor(int(msg)))
			}
			dl := topo.LeafOrdinal(dstLeaf)
			if asym[dl] {
				mask := a.pairPortMask(srcLeaf, dstLeaf)
				if mask != 0 {
					if contribs == nil {
						contribs = map[int][]contrib{}
					}
					contribs[dl] = append(contribs[dl], contrib{
						src: topo.LeafOrdinal(srcLeaf), mask: mask, bytes: wireBytes,
					})
				}
				continue
			}
			a.spread(srcLeaf, dstLeaf, wireBytes)
		}
	}
	for dl, cs := range contribs {
		a.waterfill(dl, cs)
	}
}

// contrib is one sender's crossing volume toward a destination leaf,
// with the ingress ports (bitmask) its spray set can land on.
type contrib struct {
	src   int
	mask  uint64
	bytes float64
}

// findAsymmetric returns, per destination leaf ordinal, whether two
// senders with demand toward it have different ingress port sets. Port
// indexes ≥ 64 (beyond the bitmask) conservatively report symmetric,
// falling back to the even-split path.
func (a *Analytical) findAsymmetric() []bool {
	topo := a.topo
	nLeaf := len(topo.Leaves())
	asym := make([]bool, nLeaf)
	seen := make([]uint64, nLeaf) // first sender's mask, 0 = none yet
	wide := make([]bool, nLeaf)   // some port index does not fit the mask
	for i, srcHost := range a.demand.Hosts {
		for j, dstHost := range a.demand.Hosts {
			if a.demand.Bytes[i][j] == 0 {
				continue
			}
			srcLeaf, dstLeaf := topo.LeafOf(srcHost), topo.LeafOf(dstHost)
			if srcLeaf == dstLeaf {
				continue
			}
			dl := topo.LeafOrdinal(dstLeaf)
			mask := a.pairPortMask(srcLeaf, dstLeaf)
			if mask == maskOverflow {
				wide[dl] = true
				continue
			}
			if mask == 0 {
				continue
			}
			switch {
			case seen[dl] == 0:
				seen[dl] = mask
			case seen[dl] != mask:
				asym[dl] = true
			}
		}
	}
	for dl := range asym {
		if wide[dl] {
			asym[dl] = false
		}
	}
	return asym
}

// maskOverflow marks a pair whose ingress ports exceed the 64-bit
// mask; such destinations keep the even-split path.
const maskOverflow = ^uint64(0)

// pairPortMask returns the destination-leaf ingress ports (as a
// bitmask) one source leaf's spray set can land on, mirroring spread's
// pruning exactly.
func (a *Analytical) pairPortMask(srcLeaf, dstLeaf topology.SwitchID) uint64 {
	topo := a.topo
	hostPorts := len(topo.HostsOf(dstLeaf))
	var mask uint64
	for _, p := range a.fib.LeafUplinkCandidates(srcLeaf, dstLeaf) {
		if a.faults != nil && a.faults.Len() > 0 &&
			a.faults.Has(topo.Switch(srcLeaf).Ports[p].Link) {
			continue
		}
		so, _ := topo.SpineOrdinalOfLeafPort(srcLeaf, p)
		for k, link := range topo.TrunkLinks(topo.Spines()[so], dstLeaf) {
			if !a.linkUp(link) {
				continue
			}
			u := topo.LeafUpPort(dstLeaf, so, k) - hostPorts
			if u >= 64 {
				return maskOverflow
			}
			mask |= 1 << u
		}
	}
	return mask
}

// waterfill fills one destination leaf's ingress ports with the
// min-max equilibrium of its senders: adaptive spraying pushes every
// flexible sender away from overloaded ports until no port can be
// relieved, which is exactly the divisible restricted-assignment
// optimum. The optimum is found by the classic binding-set recursion:
// the most-loaded port set B maximizes W(B)/|B| over subsets (W(B) =
// total bytes of senders confined to B), its ports all carry that
// level, and the remaining senders place nothing on B.
func (a *Analytical) waterfill(dl int, cs []contrib) {
	var union uint64
	for _, c := range cs {
		union |= c.mask
	}
	for len(cs) > 0 && union != 0 {
		bestMask, bestRatio, bestBits := uint64(0), -1.0, 0
		for b := union; b != 0; b = (b - 1) & union {
			var w float64
			for _, c := range cs {
				if c.mask&^b == 0 {
					w += c.bytes
				}
			}
			n := bits.OnesCount64(b)
			ratio := w / float64(n)
			if ratio > bestRatio || (ratio == bestRatio && n > bestBits) {
				bestMask, bestRatio, bestBits = b, ratio, n
			}
		}
		if bestRatio <= 0 {
			return // only zero-byte senders remain
		}
		var in, rest []contrib
		for _, c := range cs {
			if c.mask&^bestMask == 0 {
				in = append(in, c)
			} else {
				c.mask &^= bestMask
				rest = append(rest, c)
			}
		}
		for b := bestMask; b != 0; b &= b - 1 {
			a.ports[dl][bits.TrailingZeros64(b)] = bestRatio
		}
		a.attribute(dl, bestMask, bestRatio, in)
		union &^= bestMask
		cs = rest
	}
}

// attribute splits one binding set's port loads back into per-sender
// shares (the localizer's reference) by iterative proportional
// fitting: rows converge to each sender's volume, columns to the
// common port level. Port totals are set exactly by waterfill; the
// sender breakdown is the IPF fixed point, which the feasibility of
// the binding set guarantees exists.
func (a *Analytical) attribute(dl int, mask uint64, level float64, cs []contrib) {
	var ports []int
	for b := mask; b != 0; b &= b - 1 {
		ports = append(ports, bits.TrailingZeros64(b))
	}
	f := make([][]float64, len(cs))
	for i, c := range cs {
		f[i] = make([]float64, len(ports))
		even := c.bytes / float64(bits.OnesCount64(c.mask))
		for j, p := range ports {
			if c.mask&(1<<p) != 0 {
				f[i][j] = even
			}
		}
	}
	for it := 0; it < 64; it++ {
		for j := range ports {
			var col float64
			for i := range f {
				col += f[i][j]
			}
			if col > 0 {
				s := level / col
				for i := range f {
					f[i][j] *= s
				}
			}
		}
		for i, c := range cs {
			var row float64
			for j := range ports {
				row += f[i][j]
			}
			if row > 0 {
				s := c.bytes / row
				for j := range ports {
					f[i][j] *= s
				}
			}
		}
	}
	for i, c := range cs {
		for j, p := range ports {
			a.senders[dl][p][c.src] += f[i][j]
		}
	}
}

// spread distributes one pair's wire bytes over the destination leaf's
// ingress ports according to the source leaf's spray set.
func (a *Analytical) spread(srcLeaf, dstLeaf topology.SwitchID, wireBytes float64) {
	topo := a.topo
	srcPorts := a.fib.LeafUplinkCandidates(srcLeaf, dstLeaf)
	if a.faults != nil && a.faults.Len() > 0 {
		// Known faults leave the spray set even if the FIB has not
		// reconverged yet.
		kept := make([]int, 0, len(srcPorts))
		for _, p := range srcPorts {
			if !a.faults.Has(topo.Switch(srcLeaf).Ports[p].Link) {
				kept = append(kept, p)
			}
		}
		srcPorts = kept
	}
	if len(srcPorts) == 0 {
		return // unreachable: nothing arrives
	}
	perSrcPort := wireBytes / float64(len(srcPorts))

	srcLeafOrd := topo.LeafOrdinal(srcLeaf)
	dstLeafOrd := topo.LeafOrdinal(dstLeaf)
	hostPorts := len(topo.HostsOf(dstLeaf))

	// Aggregate the source-side split per spine, then split each
	// spine's share across its admin-up trunks to the destination.
	perSpine := map[int]float64{}
	for _, p := range srcPorts {
		so, _ := topo.SpineOrdinalOfLeafPort(srcLeaf, p)
		perSpine[so] += perSrcPort
	}
	for so, share := range perSpine {
		spine := topo.Spines()[so]
		var upTrunks []int
		for k, link := range topo.TrunkLinks(spine, dstLeaf) {
			if a.linkUp(link) {
				upTrunks = append(upTrunks, k)
			}
		}
		if len(upTrunks) == 0 {
			continue // FIB would not have sprayed here
		}
		perTrunk := share / float64(len(upTrunks))
		for _, k := range upTrunks {
			uplink := topo.LeafUpPort(dstLeaf, so, k) - hostPorts
			a.ports[dstLeafOrd][uplink] += perTrunk
			a.senders[dstLeafOrd][uplink][srcLeafOrd] += perTrunk
		}
	}
}

// Name implements Predictor.
func (a *Analytical) Name() string { return "analytical" }

// Ready implements Predictor; the analytical model is always ready.
func (a *Analytical) Ready(int) bool { return true }

// PortLoad implements Predictor.
func (a *Analytical) PortLoad(leafOrdinal int) []float64 { return a.ports[leafOrdinal] }

// SenderLoad implements Predictor.
func (a *Analytical) SenderLoad(leafOrdinal int) [][]float64 { return a.senders[leafOrdinal] }
