package deploy

import (
	"fmt"
	"math"
	"slices"
)

// AP placement optimization over room geometry and the wall map. The
// fixed line placement (APPositions) ignores where the devices actually
// are and what the walls do to their links; the optimizer places the k
// APs for the fleet the deployment carries, scored by a combined-PER
// proxy under the soft (non-coherent power) cross-AP combining decode
// path: each device's effective strength is the *sum* of its linear
// SNRs to the chosen APs, exactly the energy the combined spectral
// decode integrates.
//
// The search is deterministic — a pure function of (plan, budget,
// device positions, k) with no randomness — in two phases over the
// candidates: the half-room lattice (room centers, wall intersections
// and wall midpoints, clamped to the floor's placeable band) plus the
// k line-placement points.
//
//  1. Greedy coverage: each step adds the candidate that most lowers
//     the fleet's summed PER proxy given the APs chosen so far.
//  2. Swap refinement: best-improvement hill climbing from whichever of
//     the greedy and the line placement scores lower — replace one
//     chosen AP with one unchosen candidate while any swap lowers the
//     score. Starting no worse than the line placement, the result
//     never scores worse than it. (Simulated-annealing refinement over
//     the continuous floor is the noted follow-on; the discrete climb
//     already converges on this lattice.)

// perKneeDB and perWidthDB shape the logistic PER surrogate
// 1/(1+exp((snr−knee)/width)): a smooth, strictly decreasing function
// of combined SNR that saturates at both ends, so the optimizer spends
// placement on devices near the decode threshold instead of chasing
// already-strong or hopeless ones. It is a comparison surrogate between
// placements, not a calibrated PER prediction; the exper sweep measures
// the real PER of the result.
const (
	perKneeDB  = 2.0
	perWidthDB = 2.0
)

// perProxy returns the surrogate PER for one device's combined linear
// SNR (sum over APs of 10^(SNRdB/10)).
func perProxy(combLin float64) float64 {
	if combLin <= 0 {
		return 1
	}
	combDB := 10 * math.Log10(combLin)
	return 1 / (1 + math.Exp((combDB-perKneeDB)/perWidthDB))
}

// PlacementPERProxy returns the fleet-mean combined-PER surrogate of an
// AP placement: for each device, the linear uplink SNRs to every AP in
// pts (over the deployment's bandwidth, wall-aware) are summed and run
// through the logistic surrogate; the mean over devices comes back.
// Lower is better. Exported so tests and experiments can score the line
// placement against the optimized one with the optimizer's own metric.
func (d *Deployment) PlacementPERProxy(pts []Point) float64 {
	if len(d.Devices) == 0 {
		return 0
	}
	bw := d.bandwidth()
	total := 0.0
	for i := range d.Devices {
		dev := &d.Devices[i]
		comb := 0.0
		for _, ap := range pts {
			dist := dev.Pos.Distance(ap)
			walls := d.Plan.WallsBetween(dev.Pos, ap)
			comb += math.Pow(10, d.Budget.UplinkSNRdB(dist, walls, 0, bw)/10)
		}
		total += perProxy(comb)
	}
	return total / float64(len(d.Devices))
}

// placementCandidates returns the half-room lattice: grid points at
// every half room width/height step, clamped to the floor's placeable
// band (0.5 m margin, matching Generate). Room centers, wall
// intersections and wall midpoints are all on it.
func placementCandidates(plan FloorPlan) []Point {
	nx, ny := 2*plan.RoomsX, 2*plan.RoomsY
	pts := make([]Point, 0, (nx+1)*(ny+1))
	for gx := 0; gx <= nx; gx++ {
		for gy := 0; gy <= ny; gy++ {
			pts = append(pts, Point{
				X: clamp(float64(gx)*plan.Width/float64(nx), 0.5, plan.Width-0.5),
				Y: clamp(float64(gy)*plan.Height/float64(ny), 0.5, plan.Height-0.5),
			})
		}
	}
	return pts
}

// OptimizeAPPlacement returns k AP positions tuned to this deployment's
// device fleet (greedy coverage plus swap refinement over the half-room
// lattice and the line points, scored by the combined-PER surrogate;
// never worse than the line placement under it). It does not modify
// the deployment; apply the result with PlaceAPsAt, or call
// PlaceAPsOptimized to do both. Deterministic: equal deployments
// produce equal placements.
func (d *Deployment) OptimizeAPPlacement(k int) []Point {
	if k < 1 {
		panic(fmt.Sprintf("deploy: OptimizeAPPlacement with k = %d", k))
	}
	if len(d.Devices) == 0 {
		// No fleet to score against; the geometric line placement is as
		// good as any.
		return APPositions(d.Plan, k)
	}
	// The line points join the candidates (once each), so the climb can
	// start from the placement it must beat.
	cands := placementCandidates(d.Plan)
	line := make([]int, k)
	for a, p := range APPositions(d.Plan, k) {
		line[a] = slices.Index(cands, p)
		if line[a] < 0 {
			line[a] = len(cands)
			cands = append(cands, p)
		}
	}
	if k > len(cands) {
		panic(fmt.Sprintf("deploy: OptimizeAPPlacement k = %d exceeds %d lattice candidates", k, len(cands)))
	}
	bw := d.bandwidth()

	// Precompute every (candidate, device) linear SNR once; the greedy
	// and refinement loops then run on sums of this matrix.
	nDev := len(d.Devices)
	lin := make([]float64, len(cands)*nDev)
	for c, ap := range cands {
		row := lin[c*nDev : (c+1)*nDev]
		for i := range d.Devices {
			dev := &d.Devices[i]
			dist := dev.Pos.Distance(ap)
			walls := d.Plan.WallsBetween(dev.Pos, ap)
			row[i] = math.Pow(10, d.Budget.UplinkSNRdB(dist, walls, 0, bw)/10)
		}
	}
	// comb[i] is device i's combined linear SNR over the chosen APs.
	comb := make([]float64, nDev)
	scoreWith := func(swapOut, swapIn int) float64 {
		total := 0.0
		for i := 0; i < nDev; i++ {
			c := comb[i]
			if swapOut >= 0 {
				c -= lin[swapOut*nDev+i]
			}
			if swapIn >= 0 {
				c += lin[swapIn*nDev+i]
			}
			total += perProxy(c)
		}
		return total
	}

	chosen := make([]int, 0, k)
	inUse := make([]bool, len(cands))
	// place resets the chosen set (and comb) to the candidates cs.
	place := func(cs []int) {
		clear(comb)
		clear(inUse)
		chosen = append(chosen[:0], cs...)
		for _, c := range cs {
			inUse[c] = true
			for i := 0; i < nDev; i++ {
				comb[i] += lin[c*nDev+i]
			}
		}
	}
	for len(chosen) < k {
		bestC, bestScore := -1, math.Inf(1)
		for c := range cands {
			if inUse[c] {
				continue
			}
			if s := scoreWith(-1, c); s < bestScore {
				bestC, bestScore = c, s
			}
		}
		chosen = append(chosen, bestC)
		inUse[bestC] = true
		for i := 0; i < nDev; i++ {
			comb[i] += lin[bestC*nDev+i]
		}
	}

	// Swap refinement from the better of the greedy and line starts
	// (both scored from fresh sums): while some (chosen, candidate) swap
	// improves the score, take the best one. The pass bound is a safety
	// valve; the climb converges long before it on any real floor.
	greedy := slices.Clone(chosen)
	cur := scoreWith(-1, -1)
	place(line)
	if lineScore := scoreWith(-1, -1); lineScore < cur {
		cur = lineScore
	} else {
		place(greedy)
	}
	for pass := 0; pass < 64; pass++ {
		bestAt, bestC, bestScore := -1, -1, cur
		for at, out := range chosen {
			for c := range cands {
				if inUse[c] {
					continue
				}
				if s := scoreWith(out, c); s < bestScore {
					bestAt, bestC, bestScore = at, c, s
				}
			}
		}
		if bestAt < 0 {
			break
		}
		out := chosen[bestAt]
		for i := 0; i < nDev; i++ {
			comb[i] += lin[bestC*nDev+i] - lin[out*nDev+i]
		}
		inUse[out], inUse[bestC] = false, true
		chosen[bestAt] = bestC
		cur = bestScore
	}

	pts := make([]Point, k)
	for i, c := range chosen {
		pts[i] = cands[c]
	}
	return pts
}

// PlaceAPsOptimized optimizes a k-AP placement for this deployment and
// applies it (OptimizeAPPlacement + PlaceAPsAt), returning the placed
// positions.
func (d *Deployment) PlaceAPsOptimized(k int) []Point {
	return d.PlaceAPsAt(d.OptimizeAPPlacement(k))
}
