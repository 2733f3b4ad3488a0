package netlist

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// lseLegalizeRef is the legalizer's scalar LSE evaluator as it stood
// before LSEEval replaced it: stride 3, each pin's two exponentials kept
// between the sum and gradient passes.
func lseLegalizeRef(nl *Netlist, v []float64, gamma float64, g []float64) float64 {
	var expP, expN []float64
	total := 0.0
	for _, e := range nl.Nets {
		for axis := 0; axis < 2; axis++ {
			var vmax, vmin float64
			first := true
			padCoord := func(p int) float64 {
				if axis == 0 {
					return nl.Pads[p].Pos.X
				}
				return nl.Pads[p].Pos.Y
			}
			for _, m := range e.Modules {
				c := v[3*m+axis]
				if first || c > vmax {
					vmax = c
				}
				if first || c < vmin {
					vmin = c
				}
				first = false
			}
			for _, p := range e.Pads {
				c := padCoord(p)
				if first || c > vmax {
					vmax = c
				}
				if first || c < vmin {
					vmin = c
				}
				first = false
			}
			if first {
				continue
			}
			var sumP, sumN float64
			expP, expN = expP[:0], expN[:0]
			for _, m := range e.Modules {
				c := v[3*m+axis]
				ep := math.Exp((c - vmax) / gamma)
				en := math.Exp((vmin - c) / gamma)
				sumP += ep
				sumN += en
				expP = append(expP, ep)
				expN = append(expN, en)
			}
			for _, p := range e.Pads {
				sumP += math.Exp((padCoord(p) - vmax) / gamma)
				sumN += math.Exp((vmin - padCoord(p)) / gamma)
			}
			for k, m := range e.Modules {
				g[3*m+axis] += e.Weight * (expP[k]/sumP - expN[k]/sumN)
			}
			total += e.Weight * (gamma*(math.Log(sumP)+math.Log(sumN)) + (vmax - vmin))
		}
	}
	return total
}

// lseAnalyticRef is the analytic placer's scalar LSE evaluator as it stood
// before LSEEval replaced it: stride 2, the exponentials computed again in
// the gradient pass.
func lseAnalyticRef(nl *Netlist, xv []float64, gamma float64, g []float64) float64 {
	total := 0.0
	for _, e := range nl.Nets {
		for axis := 0; axis < 2; axis++ {
			total += e.Weight * lseSpanRef(nl, e, xv, gamma, axis, e.Weight, g)
		}
	}
	return total
}

func lseSpanRef(nl *Netlist, e Net, xv []float64, gamma float64, axis int, weight float64, g []float64) float64 {
	var vmax, vmin float64
	first := true
	coord := func(m int) float64 { return xv[2*m+axis] }
	padCoord := func(p int) float64 {
		if axis == 0 {
			return nl.Pads[p].Pos.X
		}
		return nl.Pads[p].Pos.Y
	}
	visit := func(v float64) {
		if first {
			vmax, vmin = v, v
			first = false
			return
		}
		if v > vmax {
			vmax = v
		}
		if v < vmin {
			vmin = v
		}
	}
	for _, m := range e.Modules {
		visit(coord(m))
	}
	for _, p := range e.Pads {
		visit(padCoord(p))
	}
	if first {
		return 0
	}
	var sumP, sumN float64
	for _, m := range e.Modules {
		sumP += math.Exp((coord(m) - vmax) / gamma)
		sumN += math.Exp((vmin - coord(m)) / gamma)
	}
	for _, p := range e.Pads {
		sumP += math.Exp((padCoord(p) - vmax) / gamma)
		sumN += math.Exp((vmin - padCoord(p)) / gamma)
	}
	for _, m := range e.Modules {
		dP := math.Exp((coord(m)-vmax)/gamma) / sumP
		dN := math.Exp((vmin-coord(m))/gamma) / sumN
		g[2*m+axis] += weight * (dP - dN)
	}
	return gamma*(math.Log(sumP)+math.Log(sumN)) + (vmax - vmin)
}

// randomLSENetlist builds a netlist with n modules and m pads whose nets
// are empty, pad-only, degree-1, of more than 64 pins, or small, with
// repeated pins and finite weights (Validate rejects others; the analytic
// placer validates its netlist). spread scales the coordinates, and
// special mixes in ±0, ±Inf and NaN.
func randomLSENetlist(rng *rand.Rand, spread float64, special bool) (*Netlist, []float64) {
	coord := func() float64 {
		if special && rng.Intn(8) == 0 {
			return specialCoord(rng, true)
		}
		return rng.NormFloat64() * spread
	}
	n, m := 1+rng.Intn(80), rng.Intn(7)
	nl := &Netlist{Modules: make([]Module, n), Pads: make([]Pad, m)}
	for j := range nl.Pads {
		nl.Pads[j].Pos.X, nl.Pads[j].Pos.Y = coord(), coord()
	}
	for k := rng.Intn(25); k > 0; k-- {
		e := Net{Weight: []float64{0, 1, rng.Float64() * 5, -0.5}[rng.Intn(4)]}
		mods, pads := 0, 0
		switch rng.Intn(6) {
		case 0: // empty
		case 1: // pad-only
			if m > 0 {
				pads = 1 + rng.Intn(3)
			}
		case 2: // degree 1
			mods = 1
		case 3: // more than 64 pins
			mods = 60 + rng.Intn(40)
			if m > 0 {
				pads = rng.Intn(6)
			}
		default:
			mods = rng.Intn(7)
			if m > 0 {
				pads = rng.Intn(3)
			}
		}
		for i := 0; i < mods; i++ {
			e.Modules = append(e.Modules, rng.Intn(n))
		}
		for i := 0; i < pads; i++ {
			e.Pads = append(e.Pads, rng.Intn(m))
		}
		nl.Nets = append(nl.Nets, e)
	}
	xy := make([]float64, 2*n)
	for i := range xy {
		xy[i] = coord()
	}
	return nl, xy
}

// TestLSEEvalMatchesReference pins LSEEval to the legalizer's (stride 3)
// and the analytic placer's (stride 2) scalar evaluators it replaced: the
// value and every gradient entry bit for bit (any NaN matching any NaN),
// accumulated onto a nonzero gradient and over several moves of one
// evaluator. The netlists have empty, pad-only, degree-1 and >64-pin nets;
// the spreads and widths include pins so far apart that their
// exponentials underflow, and a quarter of the netlists draw ±0, ±Inf and
// NaN coordinates. The width entries of the stride-3 gradient must not
// change.
func TestLSEEvalMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	spreads := []float64{1, 100, 1e4}
	gammas := []float64{1e-3, 0.5, 5, 50}
	for trial := 0; trial < 1500; trial++ {
		nl, xy := randomLSENetlist(rng, spreads[rng.Intn(len(spreads))], trial%4 == 3)
		gamma := gammas[rng.Intn(len(gammas))]
		n := nl.N()
		for _, stride := range []int{2, 3} {
			ev := NewLSEEval(nl, stride)
			v := make([]float64, stride*n)
			g := make([]float64, stride*n)
			for i := range g {
				g[i] = rng.NormFloat64()
			}
			gRef := append([]float64(nil), g...)
			for move := 0; move < 3; move++ {
				for i := 0; i < n; i++ {
					v[stride*i], v[stride*i+1] = xy[2*i], xy[2*i+1]
					if stride == 3 {
						v[stride*i+2] = 1 + rng.Float64()
					}
				}
				var want float64
				if stride == 3 {
					want = lseLegalizeRef(nl, v, gamma, gRef)
				} else {
					want = lseAnalyticRef(nl, v, gamma, gRef)
				}
				got := ev.Eval(v, gamma, g)
				where := fmt.Sprintf("trial %d stride %d move %d (γ %g)", trial, stride, move, gamma)
				if !sameBits(got, want) {
					t.Fatalf("%s: Eval %v (%#x), reference %v (%#x)", where, got, math.Float64bits(got), want, math.Float64bits(want))
				}
				for i := range g {
					if !sameBits(g[i], gRef[i]) {
						t.Fatalf("%s: g[%d] = %v (%#x), reference %v (%#x)", where, i, g[i], math.Float64bits(g[i]), gRef[i], math.Float64bits(gRef[i]))
					}
				}
				i := rng.Intn(n)
				xy[2*i] += rng.NormFloat64() * 10
			}
		}
	}
}

// TestLSEEvalZeroAlloc checks that an evaluation allocates nothing: the
// scratch is sized at construction from the largest net, here one of more
// than 64 pins, with pins far enough apart that some blocks of
// exponentials leave the packed kernel for math.Exp.
func TestLSEEvalZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	nl, xy := randomLSENetlist(rng, 1e4, false)
	nl.Nets = append(nl.Nets, Net{Weight: 1, Modules: make([]int, 90)})
	for i := range nl.Nets[len(nl.Nets)-1].Modules {
		nl.Nets[len(nl.Nets)-1].Modules[i] = rng.Intn(nl.N())
	}
	ev := NewLSEEval(nl, 2)
	g := make([]float64, len(xy))
	if a := testing.AllocsPerRun(100, func() { ev.Eval(xy, 0.5, g) }); a != 0 {
		t.Fatalf("Eval allocated %v times per run, want 0", a)
	}
}

func TestLSEEvalPanicsOnPositionCount(t *testing.T) {
	nl := &Netlist{Modules: make([]Module, 3), Nets: []Net{{Weight: 1, Modules: []int{0, 2}}}}
	ev := NewLSEEval(nl, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("Eval with stride-2 positions on a stride-3 evaluator did not panic")
		}
	}()
	ev.Eval(make([]float64, 6), 1, make([]float64, 6))
}
