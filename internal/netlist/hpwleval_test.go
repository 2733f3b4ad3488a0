package netlist

import (
	"math"
	"math/rand"
	"testing"

	"sdpfloor/internal/geom"
)

// specialCoord draws a coordinate that is usually an ordinary number and
// sometimes ±0 or ±Inf, or NaN when withNaN is set.
func specialCoord(rng *rand.Rand, withNaN bool) float64 {
	switch rng.Intn(16) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return math.Inf(1)
	case 3:
		return math.Inf(-1)
	case 4:
		if withNaN {
			return math.NaN()
		}
	}
	return rng.NormFloat64() * 100
}

// randomEvalNetlist builds a netlist the evaluator must handle even though
// Validate would reject parts of it: empty, pad-only and module-only nets,
// repeated module pins, zero weights, and special coordinates when special
// is 1 (±0 and ±Inf) or 2 (NaN as well).
func randomEvalNetlist(rng *rand.Rand, special int) (*Netlist, []geom.Point) {
	coord := func() float64 { return rng.NormFloat64() * 100 }
	if special > 0 {
		coord = func() float64 { return specialCoord(rng, special == 2) }
	}
	n, m := 1+rng.Intn(12), rng.Intn(6)
	nl := &Netlist{Modules: make([]Module, n), Pads: make([]Pad, m)}
	for j := range nl.Pads {
		nl.Pads[j].Pos = geom.Point{X: coord(), Y: coord()}
	}
	for k := rng.Intn(20); k > 0; k-- {
		var e Net
		switch rng.Intn(4) {
		case 0:
			e.Weight = 0
		case 1:
			e.Weight = 1
		default:
			e.Weight = rng.Float64() * 5
		}
		mods, pads := rng.Intn(6), 0
		if m > 0 {
			pads = rng.Intn(4)
		}
		switch rng.Intn(5) {
		case 0:
			mods = 0 // pad-only (or empty)
		case 1:
			pads = 0 // module-only (or empty)
		}
		for i := 0; i < mods; i++ {
			e.Modules = append(e.Modules, rng.Intn(n)) // repeats allowed
		}
		for i := 0; i < pads; i++ {
			e.Pads = append(e.Pads, rng.Intn(m))
		}
		nl.Nets = append(nl.Nets, e)
	}
	centers := make([]geom.Point, n)
	for i := range centers {
		centers[i] = geom.Point{X: coord(), Y: coord()}
	}
	return nl, centers
}

// sameBits reports whether a and b have the same Float64bits, treating
// any two NaNs as equal: on amd64 the builtin min and max merge the bits of
// both arguments into a NaN result, so its payload depends on the order the
// pins were folded in, and neither order is the specified one.
func sameBits(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// TestHPWLEvalMatchesHPWL checks, on seeded random netlists, that the
// evaluator returns Netlist.HPWL's bits, and keeps doing so as the centers
// move under one evaluator. A third of the netlists draw ±0 and ±Inf
// coordinates, another third NaN as well.
func TestHPWLEvalMatchesHPWL(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 3000; trial++ {
		nl, centers := randomEvalNetlist(rng, trial%3)
		ev := NewHPWLEval(nl)
		for move := 0; move < 5; move++ {
			want, got := nl.HPWL(centers), ev.HPWL(centers)
			if !sameBits(got, want) {
				t.Fatalf("trial %d move %d: evaluator %v (%#x), HPWL %v (%#x)\nnets %+v\npads %+v\ncenters %v",
					trial, move, got, math.Float64bits(got), want, math.Float64bits(want), nl.Nets, nl.Pads, centers)
			}
			i := rng.Intn(len(centers))
			centers[i] = geom.Point{X: centers[i].X + rng.NormFloat64(), Y: rng.NormFloat64() * 100}
		}
	}
}

func TestHPWLEvalEdgeNets(t *testing.T) {
	nl := &Netlist{
		Modules: make([]Module, 2),
		Pads:    []Pad{{Pos: geom.Point{X: 0, Y: 0}}, {Pos: geom.Point{X: 3, Y: 4}}},
		Nets: []Net{
			{Weight: 2, Pads: []int{0, 1}},                 // pad-only: 2·(3+4)
			{Weight: 1, Modules: []int{0, 0}},              // one module twice: 0
			{Weight: 1},                                    // empty: 0
			{Weight: 0, Modules: []int{0, 1}},              // zero weight: 0
			{Weight: 1, Modules: []int{1}, Pads: []int{0}}, // 1+1
		},
	}
	centers := []geom.Point{{X: 5, Y: 5}, {X: 1, Y: 1}}
	if got := NewHPWLEval(nl).HPWL(centers); got != 16 {
		t.Fatalf("HPWL = %v, want 16", got)
	}
}
