//go:build amd64 && !race

package netlist

import (
	"math"
	"math/rand"
	"testing"

	"sdpfloor/internal/geom"
)

// TestHPWLKernelMatchesGo pins the SSE2 kernel to the Go loop bit for bit:
// nets of 0–13 module pins (both pin-pair accumulators and the odd tail),
// with and without pads, module-less nets, zero weights, and coordinates
// drawn from ordinary values, ±0 and ±Inf, and from {±0, ±1} alone so that
// zero ties are common. No input is NaN, so every NaN result is the
// default NaN of an invalid operation and the bits must match exactly.
// NaN centers and NaN pads are checked to take the Go loop.
func TestHPWLKernelMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tiny := []float64{0, math.Copysign(0, -1), 1, -1}
	draws := []struct {
		name  string
		coord func() float64
	}{
		{"ordinary", func() float64 { return rng.NormFloat64() * 100 }},
		{"special", func() float64 { return specialCoord(rng, false) }},
		{"zeros", func() float64 { return tiny[rng.Intn(len(tiny))] }},
	}
	// build returns a netlist whose k-th net has degs[k] module pins and
	// pads[k] pads, and its centers.
	build := func(n int, degs, pads []int, coord func() float64) (*Netlist, []geom.Point) {
		nl := &Netlist{Modules: make([]Module, n), Pads: make([]Pad, 4)}
		for j := range nl.Pads {
			nl.Pads[j].Pos = geom.Point{X: coord(), Y: coord()}
		}
		for k, d := range degs {
			e := Net{Weight: []float64{0, 1, rng.Float64() * 5}[rng.Intn(3)]}
			for ; d > 0; d-- {
				e.Modules = append(e.Modules, rng.Intn(n))
			}
			for p := 0; p < pads[k]; p++ {
				e.Pads = append(e.Pads, rng.Intn(len(nl.Pads)))
			}
			nl.Nets = append(nl.Nets, e)
		}
		centers := make([]geom.Point, n)
		for i := range centers {
			centers[i] = geom.Point{X: coord(), Y: coord()}
		}
		return nl, centers
	}
	name := ""
	check := func(nl *Netlist, centers []geom.Point) {
		t.Helper()
		ev := NewHPWLEval(nl)
		if ev.goLoop {
			t.Fatalf("%s: a NaN-free netlist was routed to the Go loop", name)
		}
		want := ev.hpwlGo(centers)
		got := hpwlSSE2(centers, ev.start, ev.mods, ev.weight, ev.seed)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: kernel %v (%#x), Go loop %v (%#x)\nnets %+v\npads %+v\ncenters %v",
				name, got, math.Float64bits(got), want, math.Float64bits(want), nl.Nets, nl.Pads, centers)
		}
		if h := ev.HPWL(centers); math.Float64bits(h) != math.Float64bits(want) {
			t.Fatalf("%s: HPWL %v, Go loop %v", name, h, want)
		}
	}
	for _, dr := range draws {
		name = dr.name
		coord := dr.coord
		// One net of every degree, each pad count, alone and with its
		// neighbours before and after it (the kernel's pin cursor runs
		// across nets).
		for d := 0; d <= 13; d++ {
			for p := 0; p <= 2; p++ {
				for trial := 0; trial < 20; trial++ {
					check(build(1+rng.Intn(16), []int{d}, []int{p}, coord))
					check(build(1+rng.Intn(16), []int{rng.Intn(14), d, rng.Intn(14)}, []int{rng.Intn(3), p, rng.Intn(3)}, coord))
				}
			}
		}
		// Whole netlists of mixed nets, including none.
		for trial := 0; trial < 500; trial++ {
			nets := rng.Intn(30)
			degs, pads := make([]int, nets), make([]int, nets)
			for k := range degs {
				degs[k], pads[k] = rng.Intn(14), rng.Intn(4)
			}
			check(build(1+rng.Intn(16), degs, pads, coord))
		}
	}

	// A NaN center must take the Go loop. The kernel alone loses this one:
	// MINPD returns its second operand when either is NaN, so the even
	// pins' accumulator takes the NaN from module 0 and drops it again at
	// module 2.
	nan := math.NaN()
	nl := &Netlist{
		Modules: make([]Module, 3),
		Nets:    []Net{{Weight: 1, Modules: []int{0, 1, 2}}},
	}
	centers := []geom.Point{{X: nan, Y: nan}, {X: 1, Y: 2}, {X: 3, Y: 5}}
	ev := NewHPWLEval(nl)
	if k := hpwlSSE2(centers, ev.start, ev.mods, ev.weight, ev.seed); math.IsNaN(k) {
		t.Fatalf("kernel returned NaN on a NaN center; the case no longer shows the Go loop route")
	}
	if got, want := ev.HPWL(centers), nl.HPWL(centers); !math.IsNaN(got) || !math.IsNaN(want) {
		t.Fatalf("NaN center: HPWL %v, Netlist.HPWL %v, want NaN from both", got, want)
	}
	// A NaN pad sets the evaluator to the Go loop at construction.
	nl.Pads = []Pad{{Pos: geom.Point{X: 4, Y: nan}}}
	nl.Nets = append(nl.Nets, Net{Weight: 1, Modules: []int{1}, Pads: []int{0}})
	centers[0] = geom.Point{X: 0, Y: 0}
	ev = NewHPWLEval(nl)
	if !ev.goLoop {
		t.Fatal("a NaN pad did not route the evaluator to the Go loop")
	}
	if got := ev.HPWL(centers); !math.IsNaN(got) {
		t.Fatalf("NaN pad: HPWL %v, want NaN", got)
	}
}

// TestHPWLEvalBadModuleIndex checks that an out-of-range module index
// takes the Go loop, which panics as Netlist.HPWL does, instead of the
// kernel, which does not check indices.
func TestHPWLEvalBadModuleIndex(t *testing.T) {
	nl := &Netlist{Modules: make([]Module, 2), Nets: []Net{{Weight: 1, Modules: []int{0, 2}}}}
	ev := NewHPWLEval(nl)
	if !ev.goLoop {
		t.Fatal("an out-of-range module index did not route the evaluator to the Go loop")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("HPWL with an out-of-range module index did not panic")
		}
	}()
	ev.HPWL(make([]geom.Point, 2))
}
