package core

import (
	"math"

	"sdpfloor/internal/geom"
	"sdpfloor/internal/linalg"
	"sdpfloor/internal/netlist"
)

// adaptiveA returns the iteration-t adjacency A⁽ᵗ⁾ of Eq. (20):
// A⁽ᵗ⁾_ij = (M_ij/D_ij)·A_ij with M, D the Manhattan distance and squared
// Euclidean distance of the previous iterate. When hyperEdge is set,
// multi-pin nets contribute only between module pairs on the boundary of the
// net's bounding box at the previous iterate (the Kraftwerk2-style [11]
// adaptation the paper references); two-pin nets are unaffected.
//
// centers may be nil (first iteration): the base clique adjacency is
// returned unscaled. The assembly runs sequentially in net order: the per-net
// work is tiny next to the SDP solve it feeds, and merging chunked partial
// sums would make the last bits depend on the worker count.
func adaptiveA(nl *netlist.Netlist, centers []geom.Point, manhattan, hyperEdge bool) *linalg.Dense {
	n := nl.N()
	if centers == nil || (!manhattan && !hyperEdge) {
		return nl.Adjacency()
	}
	a := linalg.NewDense(n, n)
	ratio := func(i, j int) float64 {
		if !manhattan {
			return 1
		}
		d := centers[i].DistSq(centers[j])
		m := centers[i].Manhattan(centers[j])
		// Guard: for coincident modules keep the base weight (the limit of
		// M/D as the points merge diverges; the paper's update assumes the
		// iterates stay separated, which the distance constraints enforce).
		const tiny = 1e-9
		if d < tiny || m < tiny {
			return 1
		}
		return m / d
	}
	for _, e := range nl.Nets {
		mods := e.Modules
		if len(mods) < 2 {
			continue
		}
		if len(mods) == 2 || !hyperEdge {
			w := e.Weight / float64(len(mods)-1)
			for x := 0; x < len(mods); x++ {
				for y := x + 1; y < len(mods); y++ {
					i, j := mods[x], mods[y]
					v := w * ratio(i, j)
					a.Add(i, j, v)
					a.Add(j, i, v)
				}
			}
			continue
		}
		// Hyper-edge: find the pins on the bounding box of the net at the
		// previous iterate; only those pairs are connected this iteration.
		var bb geom.BBox
		for _, i := range mods {
			bb.Extend(centers[i])
		}
		for _, p := range e.Pads {
			bb.Extend(nl.Pads[p].Pos)
		}
		r := bb.Rect()
		tol := 1e-9 * (1 + r.W() + r.H())
		var boundary []int
		for _, i := range mods {
			if bb.OnBoundary(centers[i], tol) {
				boundary = append(boundary, i)
			}
		}
		if len(boundary) < 2 {
			// Degenerate (all pins coincide): fall back to the clique.
			boundary = mods
		}
		w := e.Weight / float64(len(boundary)-1)
		for x := 0; x < len(boundary); x++ {
			for y := x + 1; y < len(boundary); y++ {
				i, j := boundary[x], boundary[y]
				v := w * ratio(i, j)
				a.Add(i, j, v)
				a.Add(j, i, v)
			}
		}
	}
	return a
}

// distanceBound returns the squared-distance lower bound for the pair (i, j)
// — Eq. (11) in the basic model, Eq. (26) with the non-square adaptation.
// radii are the model radii (already inflated by √k in non-square mode),
// aspect the per-module maximum aspect ratios, a the base adjacency, and
// deg its weighted degrees.
func distanceBound(i, j int, radii, aspect []float64, a *linalg.Dense, deg []float64, nonSquare bool) float64 {
	ri, rj := radii[i], radii[j]
	if !nonSquare {
		s := ri + rj
		return s * s
	}
	kij := blendedAspect(i, j, aspect[i], a, deg)
	kji := blendedAspect(j, i, aspect[j], a, deg)
	b1 := rj - ri + 2*ri/kij
	b2 := ri - rj + 2*rj/kji
	return math.Max(b1*b1, b2*b2)
}

// blendedAspect computes k_ij = A_ij/(Σ_l A_il)·(k−1) + 1 (Eq. 26): a heavily
// connected neighbour is allowed closer (k_ij → k), a weakly connected one is
// kept at the full circle distance (k_ij → 1).
func blendedAspect(i, j int, k float64, a *linalg.Dense, deg []float64) float64 {
	if deg[i] <= 0 {
		return 1
	}
	kij := a.At(i, j)/deg[i]*(k-1) + 1
	if kij < 1 {
		kij = 1
	}
	if kij > k {
		kij = k
	}
	return kij
}
