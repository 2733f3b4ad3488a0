// Package netlist models the input of the global floorplanning problem: a
// set of modules with minimum-area constraints, boundary pads (terminals),
// and a hyperedge netlist connecting them. It also builds the matrices the
// SDP formulation needs: the pairwise adjacency A (clique net model), the
// Laplacian-like B matrix of Eq. (8), and the pad connectivity of Eq. (21).
package netlist

import (
	"fmt"
	"math"

	"sdpfloor/internal/geom"
	"sdpfloor/internal/linalg"
	"sdpfloor/internal/parallel"
)

// Module is a design block. Its shape is unknown during global floorplanning;
// it carries a minimum area sᵢ and an aspect-ratio bound k (the final shape
// must satisfy w/h, h/w ≤ MaxAspect).
type Module struct {
	Name      string
	MinArea   float64
	MaxAspect float64    // ≥ 1; 1 means the module must be (near) square
	Fixed     bool       // pre-placed module (PPM constraint)
	FixedPos  geom.Point // center position when Fixed
}

// Pad is a fixed terminal (e.g. an I/O pad on the chip boundary).
type Pad struct {
	Name string
	Pos  geom.Point
}

// Net is a hyperedge connecting modules and pads. Weight is the number of
// signals carried (A_ij accumulates Weight for each connected pair under the
// clique model).
type Net struct {
	Name    string
	Weight  float64
	Modules []int // indices into Netlist.Modules
	Pads    []int // indices into Netlist.Pads
}

// Netlist is a complete global-floorplanning instance.
type Netlist struct {
	Modules []Module
	Pads    []Pad
	Nets    []Net
}

// Validate checks index ranges, that areas, aspect bounds, weights and pad
// positions are finite, and the positivity of areas and weights.
func (nl *Netlist) Validate() error {
	for i, m := range nl.Modules {
		if !isFinite(m.MinArea) {
			return fmt.Errorf("netlist: module %d (%s) has non-finite area %g", i, m.Name, m.MinArea)
		}
		if m.MinArea <= 0 {
			return fmt.Errorf("netlist: module %d (%s) has non-positive area %g", i, m.Name, m.MinArea)
		}
		if !isFinite(m.MaxAspect) {
			return fmt.Errorf("netlist: module %d (%s) has non-finite MaxAspect %g", i, m.Name, m.MaxAspect)
		}
		if m.MaxAspect < 1 {
			return fmt.Errorf("netlist: module %d (%s) has MaxAspect %g < 1", i, m.Name, m.MaxAspect)
		}
		if m.Fixed && (!isFinite(m.FixedPos.X) || !isFinite(m.FixedPos.Y)) {
			return fmt.Errorf("netlist: module %d (%s) has non-finite fixed position (%g, %g)", i, m.Name, m.FixedPos.X, m.FixedPos.Y)
		}
	}
	for i, p := range nl.Pads {
		if !isFinite(p.Pos.X) || !isFinite(p.Pos.Y) {
			return fmt.Errorf("netlist: pad %d (%s) has non-finite position (%g, %g)", i, p.Name, p.Pos.X, p.Pos.Y)
		}
	}
	for i, e := range nl.Nets {
		if !isFinite(e.Weight) {
			return fmt.Errorf("netlist: net %d (%s) has non-finite weight %g", i, e.Name, e.Weight)
		}
		if e.Weight < 0 {
			return fmt.Errorf("netlist: net %d (%s) has negative weight", i, e.Name)
		}
		if len(e.Modules)+len(e.Pads) < 2 {
			return fmt.Errorf("netlist: net %d (%s) has fewer than two pins", i, e.Name)
		}
		seen := make(map[int]bool, len(e.Modules))
		for _, m := range e.Modules {
			if m < 0 || m >= len(nl.Modules) {
				return fmt.Errorf("netlist: net %d (%s) references module %d out of range", i, e.Name, m)
			}
			if seen[m] {
				return fmt.Errorf("netlist: net %d (%s) references module %d twice", i, e.Name, m)
			}
			seen[m] = true
		}
		for _, p := range e.Pads {
			if p < 0 || p >= len(nl.Pads) {
				return fmt.Errorf("netlist: net %d (%s) references pad %d out of range", i, e.Name, p)
			}
		}
	}
	return nil
}

// isFinite reports whether v is neither NaN nor ±Inf.
func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// N returns the number of modules.
func (nl *Netlist) N() int { return len(nl.Modules) }

// TotalArea returns Σ sᵢ.
func (nl *Netlist) TotalArea() float64 {
	s := 0.0
	for _, m := range nl.Modules {
		s += m.MinArea
	}
	return s
}

// Adjacency builds the symmetric module-to-module weight matrix A under the
// clique net model: a net of weight w with d module pins contributes
// w/(d−1) to A_ij for every pin pair (the standard clique weighting, which
// keeps the total attraction per net proportional to w). Two-pin nets
// contribute exactly w.
func (nl *Netlist) Adjacency() *linalg.Dense {
	n := nl.N()
	a := linalg.NewDense(n, n)
	for _, e := range nl.Nets {
		d := len(e.Modules)
		if d < 2 {
			continue
		}
		w := e.Weight / float64(d-1)
		for x := 0; x < d; x++ {
			for y := x + 1; y < d; y++ {
				i, j := e.Modules[x], e.Modules[y]
				a.Add(i, j, w)
				a.Add(j, i, w)
			}
		}
	}
	return a
}

// PadAdjacency builds the n×m module-to-pad weight matrix Ā of Eq. (21):
// Ā_ij is the total weight of nets connecting module i to pad j. Hyperedges
// with several module pins distribute their weight the same way Adjacency
// does (w divided by the number of other pins on the net).
func (nl *Netlist) PadAdjacency() *linalg.Dense {
	n, m := nl.N(), len(nl.Pads)
	a := linalg.NewDense(n, m)
	for _, e := range nl.Nets {
		total := len(e.Modules) + len(e.Pads)
		if total < 2 || len(e.Pads) == 0 || len(e.Modules) == 0 {
			continue
		}
		w := e.Weight / float64(total-1)
		for _, i := range e.Modules {
			for _, j := range e.Pads {
				a.Add(i, j, w)
			}
		}
	}
	return a
}

// BuildB constructs the constant matrix B of Eq. (8) from a (possibly
// asymmetric) adjacency matrix A, such that ⟨B, G⟩ = Σᵢⱼ A_ij‖xᵢ−xⱼ‖².
// The rows split across the worker pool from n ≥ 64 on; every row is
// computed independently in the sequential element order, so the result is
// bitwise identical for every worker count.
func BuildB(a *linalg.Dense, workers int) *linalg.Dense {
	n := a.Rows
	if a.Cols != n {
		panic("netlist: BuildB requires square A")
	}
	b := linalg.NewDense(n, n)
	parallel.For(workers, n, 64, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			rowSum, colSum := 0.0, 0.0
			for k := 0; k < n; k++ {
				rowSum += a.At(i, k)
				colSum += a.At(k, i)
			}
			b.Set(i, i, rowSum+colSum)
			for j := 0; j < n; j++ {
				if i != j {
					b.Set(i, j, -2*a.At(i, j))
				}
			}
		}
	})
	return b
}

// Radii returns the circle radii of the SDP model. With nonSquare false this
// is rᵢ = √(sᵢ/4) (Section IV-A); with nonSquare true it is rᵢ = √(k·sᵢ/4)
// so that the forbidden-zone rectangle 2rᵢ × 2rᵢ/k has area sᵢ (Eq. 25
// discussion).
func (nl *Netlist) Radii(nonSquare bool) []float64 {
	r := make([]float64, nl.N())
	for i, m := range nl.Modules {
		k := 1.0
		if nonSquare {
			k = m.MaxAspect
		}
		r[i] = math.Sqrt(k * m.MinArea / 4)
	}
	return r
}

// HPWL returns the half-perimeter wirelength of the design with modules at
// the given center positions: Σ over nets of Weight × half-perimeter of the
// bounding box of the net's pins (module centers and pad locations).
func (nl *Netlist) HPWL(centers []geom.Point) float64 {
	if len(centers) != nl.N() {
		panic("netlist: HPWL position count mismatch")
	}
	total := 0.0
	for _, e := range nl.Nets {
		var bb geom.BBox
		for _, i := range e.Modules {
			bb.Extend(centers[i])
		}
		for _, p := range e.Pads {
			bb.Extend(nl.Pads[p].Pos)
		}
		total += e.Weight * bb.HalfPerimeter()
	}
	return total
}

// PinHPWL returns HPWL using exact pin locations supplied per module (for
// post-legalization reporting, pins offset from the module origin could be
// used; the floorplanning literature evaluates at block centers, which is
// what HPWL does — PinHPWL exists for callers that place pins elsewhere).
func (nl *Netlist) PinHPWL(pins [][]geom.Point) float64 {
	total := 0.0
	for _, e := range nl.Nets {
		var bb geom.BBox
		for _, i := range e.Modules {
			for _, p := range pins[i] {
				bb.Extend(p)
			}
		}
		for _, p := range e.Pads {
			bb.Extend(nl.Pads[p].Pos)
		}
		total += e.Weight * bb.HalfPerimeter()
	}
	return total
}

// WeightedPairDistance returns Σᵢⱼ A_ij·dist(xᵢ, xⱼ) for the given distance
// function — the paper's Eq. (1) objective when dist is the Manhattan
// distance, or Eq. (6) when dist is the squared Euclidean distance.
func WeightedPairDistance(a *linalg.Dense, centers []geom.Point, dist func(p, q geom.Point) float64) float64 {
	n := a.Rows
	total := 0.0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if w := a.At(i, j); w != 0 {
				total += w * dist(centers[i], centers[j])
			}
		}
	}
	return total
}

// Degrees returns the weighted degree Σⱼ A_ij of each module (used by the
// non-square constraint's k_ij blending, Eq. 26).
func Degrees(a *linalg.Dense) []float64 {
	n := a.Rows
	deg := make([]float64, n)
	for i := 0; i < n; i++ {
		row := a.Row(i)
		s := 0.0
		for _, v := range row {
			s += v
		}
		deg[i] = s
	}
	return deg
}
