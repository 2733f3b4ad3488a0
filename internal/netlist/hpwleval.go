package netlist

import (
	"math"

	"sdpfloor/internal/geom"
)

// HPWLEval evaluates HPWL for one netlist many times over, as the annealers'
// move loops do. It keeps the nets' module lists in one flat CSR
// (compressed sparse row) array and gives each net one seed box, built at
// construction since pads never move: the bounding box of the net's pads,
// or +Inf minima and −Inf maxima for a net with module pins and no pads,
// or zeros for a net with neither. Folding the module pins into the seed
// with the builtin min and max gives the net's pin bounding box with no
// pad branch. Those builtins are exact, commutative and associative, and
// min(+Inf, x) = x = max(−Inf, x) for every x that is not NaN, so the Go
// loop (hpwlGo) returns the bits of Netlist.HPWL, up to the payload of a
// NaN result.
//
// On amd64 (without -race) HPWL runs the packed SSE2 kernel of
// hpwl_amd64.s, which holds each net's (minX, minY) and (maxX, maxY) in
// one XMM register each and folds the pins in with MINPD and MAXPD. Those
// differ from the builtins only on a NaN operand and on a tie between +0
// and −0, where they return the second operand. A NaN never reaches the
// kernel: HPWL sends the evaluation to the Go loop when a center is NaN,
// and the evaluator does so for good when a seed box is NaN (a NaN pad).
// A zero tie can make a net's minimum or maximum +0 where the builtin's is
// −0, or the reverse, and nothing else. A side length max − min with one
// zero operand does not depend on that zero's sign unless the other
// operand is a zero too, and then it is ±0. So the side lengths, their
// sum and w times the sum can differ from the Go loop's only as +0
// against −0 (w = ±Inf gives the same NaN either way). Adding ±0 to the
// running total changes nothing: a nonzero total keeps its bits, and a
// zero total is +0, since it starts at +0 and a rounded sum is −0 only
// when both addends are. So the kernel returns the Go loop's bits.
//
// The evaluator holds a copy of the netlist's connectivity: later edits to
// the netlist are not seen.
type HPWLEval struct {
	n      int         // module count
	start  []int32     // net e's modules are mods[start[e]:start[e+1]]
	mods   []int32     // module indices, net by net
	weight []float64   // net weights
	seed   []geom.Rect // each net's seed box
	goLoop bool        // a NaN seed or an invalid module index: always run hpwlGo
}

// NewHPWLEval builds the evaluator of nl.
func NewHPWLEval(nl *Netlist) *HPWLEval {
	ev := &HPWLEval{
		n:      nl.N(),
		start:  make([]int32, len(nl.Nets)+1),
		weight: make([]float64, len(nl.Nets)),
		seed:   make([]geom.Rect, len(nl.Nets)),
	}
	pins := 0
	for _, e := range nl.Nets {
		pins += len(e.Modules)
	}
	ev.mods = make([]int32, 0, pins)
	inf := math.Inf(1)
	for k, e := range nl.Nets {
		for _, i := range e.Modules {
			// The kernel does not check indices; the Go loop panics on a
			// bad one, as Netlist.HPWL does.
			if i < 0 || i >= ev.n {
				ev.goLoop = true
			}
			ev.mods = append(ev.mods, int32(i))
		}
		ev.start[k+1] = int32(len(ev.mods))
		ev.weight[k] = e.Weight
		var bb geom.BBox
		for _, p := range e.Pads {
			bb.Extend(nl.Pads[p].Pos)
		}
		s := bb.Rect()
		if bb.Empty() && len(e.Modules) > 0 {
			s = geom.Rect{MinX: inf, MinY: inf, MaxX: -inf, MaxY: -inf}
		}
		if math.IsNaN(s.MinX) || math.IsNaN(s.MinY) || math.IsNaN(s.MaxX) || math.IsNaN(s.MaxY) {
			ev.goLoop = true
		}
		ev.seed[k] = s
	}
	return ev
}

// HPWL returns Netlist.HPWL(centers): Σ over nets of Weight × the
// half-perimeter of the net's pin bounding box, summed in net order.
//
//sdpvet:hotpath
func (ev *HPWLEval) HPWL(centers []geom.Point) float64 {
	if len(centers) != ev.n {
		panic("netlist: HPWL position count mismatch")
	}
	return ev.hpwl(centers)
}

// hpwlGo is the Go loop: the reference the kernel is tested against, and
// the evaluator on builds without it.
//
//sdpvet:hotpath
func (ev *HPWLEval) hpwlGo(centers []geom.Point) float64 {
	total := 0.0
	for k, w := range ev.weight {
		s := &ev.seed[k]
		minX, minY, maxX, maxY := s.MinX, s.MinY, s.MaxX, s.MaxY
		for _, i := range ev.mods[ev.start[k]:ev.start[k+1]] {
			q := centers[i]
			minX = min(minX, q.X)
			maxX = max(maxX, q.X)
			minY = min(minY, q.Y)
			maxY = max(maxY, q.Y)
		}
		total += w * ((maxX - minX) + (maxY - minY))
	}
	return total
}
