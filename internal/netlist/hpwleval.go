package netlist

import "sdpfloor/internal/geom"

// HPWLEval evaluates HPWL for one netlist many times over, as the annealers'
// move loops do. It keeps the nets' module lists in one flat CSR
// (compressed sparse row) array and folds each net's pads into a bounding
// box once, at construction, since pads never move. The builtin min and
// max are exact, commutative and associative, so HPWL returns the same bits
// as Netlist.HPWL (up to the payload of a NaN result).
//
// The evaluator holds a copy of the netlist's connectivity: later edits to
// the netlist are not seen.
type HPWLEval struct {
	n      int       // module count
	start  []int32   // net e's modules are mods[start[e]:start[e+1]]
	mods   []int32   // module indices, net by net
	weight []float64 // net weights
	pads   []padBox  // each net's pad bounding box
}

// padBox is the bounding box of one net's pads, with its half-perimeter
// for nets that have no module pins.
type padBox struct {
	set  bool
	box  geom.Rect
	half float64
}

// NewHPWLEval builds the evaluator of nl.
func NewHPWLEval(nl *Netlist) *HPWLEval {
	ev := &HPWLEval{
		n:      nl.N(),
		start:  make([]int32, len(nl.Nets)+1),
		weight: make([]float64, len(nl.Nets)),
		pads:   make([]padBox, len(nl.Nets)),
	}
	pins := 0
	for _, e := range nl.Nets {
		pins += len(e.Modules)
	}
	ev.mods = make([]int32, 0, pins)
	for k, e := range nl.Nets {
		for _, i := range e.Modules {
			ev.mods = append(ev.mods, int32(i))
		}
		ev.start[k+1] = int32(len(ev.mods))
		ev.weight[k] = e.Weight
		var bb geom.BBox
		for _, p := range e.Pads {
			bb.Extend(nl.Pads[p].Pos)
		}
		if !bb.Empty() {
			ev.pads[k] = padBox{set: true, box: bb.Rect(), half: bb.HalfPerimeter()}
		}
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
	total := 0.0
	for k, w := range ev.weight {
		lo, hi := ev.start[k], ev.start[k+1]
		pb := &ev.pads[k]
		half := 0.0
		switch {
		case lo < hi:
			p := centers[ev.mods[lo]]
			minX, maxX, minY, maxY := p.X, p.X, p.Y, p.Y
			for _, i := range ev.mods[lo+1 : hi] {
				q := centers[i]
				minX = min(minX, q.X)
				maxX = max(maxX, q.X)
				minY = min(minY, q.Y)
				maxY = max(maxY, q.Y)
			}
			if pb.set {
				minX = min(minX, pb.box.MinX)
				maxX = max(maxX, pb.box.MaxX)
				minY = min(minY, pb.box.MinY)
				maxY = max(maxY, pb.box.MaxY)
			}
			half = (maxX - minX) + (maxY - minY)
		case pb.set:
			half = pb.half
		}
		total += w * half
	}
	return total
}
