//go:build amd64 && !race

package netlist

import (
	"math"

	"sdpfloor/internal/geom"
)

// hpwl runs the packed SSE2 kernel unless the evaluator is set to the Go
// loop (a NaN seed box or an out-of-range module index) or a center is
// NaN. The Go loop's builtin min and max propagate a NaN, where MINPD and
// MAXPD can drop it.
//
//sdpvet:hotpath
func (ev *HPWLEval) hpwl(centers []geom.Point) float64 {
	if ev.goLoop || hasNaN(centers) {
		return ev.hpwlGo(centers)
	}
	return hpwlSSE2(centers, ev.start, ev.mods, ev.weight, ev.seed)
}

// hasNaN reports whether a coordinate of ps is NaN.
//
//sdpvet:hotpath
func hasNaN(ps []geom.Point) bool {
	for _, p := range ps {
		if math.IsNaN(p.X) || math.IsNaN(p.Y) {
			return true
		}
	}
	return false
}

// hpwlSSE2 is implemented in hpwl_amd64.s. It reads centers[mods[j]] for
// every j < start[len(weight)], and start[0:len(weight)+1] and
// seed[0:len(weight)], unchecked: NewHPWLEval builds start, mods, weight
// and seed to fit, and sets goLoop when a module index is out of range.
//
//go:noescape
func hpwlSSE2(centers []geom.Point, start, mods []int32, weight []float64, seed []geom.Rect) float64
