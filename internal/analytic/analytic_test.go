package analytic

import (
	"math"
	"math/rand"
	"testing"

	"sdpfloor/internal/geom"
	"sdpfloor/internal/netlist"
)

func testNL(n int, rng *rand.Rand) *netlist.Netlist {
	nl := &netlist.Netlist{}
	for i := 0; i < n; i++ {
		nl.Modules = append(nl.Modules, netlist.Module{Name: "m", MinArea: 1 + 2*rng.Float64(), MaxAspect: 3})
	}
	for i := 0; i+1 < n; i++ {
		nl.Nets = append(nl.Nets, netlist.Net{Name: "n", Weight: 1, Modules: []int{i, i + 1}})
	}
	return nl
}

func TestSolveSpreadsModules(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	nl := testNL(9, rng)
	side := math.Sqrt(nl.TotalArea() * 1.4)
	out := geom.Rect{MinX: 0, MinY: 0, MaxX: side, MaxY: side}
	res, err := Solve(nl, Options{Outline: out, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Density control enforces bin capacity, not pairwise disjointness
	// (residual overlaps are the legalizer's job, as in [7]): assert that
	// the placement is spread over the die rather than collapsed.
	var bb geom.BBox
	for _, c := range res.Centers {
		bb.Extend(c)
	}
	if bb.HalfPerimeter() < 0.5*(out.W()+out.H()) {
		t.Fatalf("placement collapsed: centers span %g of die %g",
			bb.HalfPerimeter(), out.W()+out.H())
	}
	// Bin density is controlled: no bin holds more than half the design.
	dg := newDensityGrid(nl, out, 5)
	xv := make([]float64, 2*len(res.Centers))
	for i, c := range res.Centers {
		xv[2*i], xv[2*i+1] = c.X, c.Y
	}
	g := make([]float64, len(xv))
	dg.penalty(xv, g, 0)
	for _, d := range dg.d {
		if d > 0.5*nl.TotalArea() {
			t.Fatalf("bin density %g out of control (total %g)", d, nl.TotalArea())
		}
	}
	// All centers inside the die.
	for i, c := range res.Centers {
		if !out.Contains(c) {
			t.Fatalf("module %d center %v escaped the outline", i, c)
		}
	}
}

func TestSolveKeepsConnectedModulesClose(t *testing.T) {
	// Two clusters with one weak cross-link: intra-cluster distances should
	// be below the typical inter-cluster distance.
	nl := &netlist.Netlist{}
	for i := 0; i < 6; i++ {
		nl.Modules = append(nl.Modules, netlist.Module{Name: "m", MinArea: 1, MaxAspect: 3})
	}
	for _, pr := range [][2]int{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}} {
		nl.Nets = append(nl.Nets, netlist.Net{Name: "n", Weight: 4, Modules: []int{pr[0], pr[1]}})
	}
	nl.Nets = append(nl.Nets, netlist.Net{Name: "x", Weight: 0.1, Modules: []int{2, 3}})
	out := geom.Rect{MinX: 0, MinY: 0, MaxX: 5, MaxY: 5}
	res, err := Solve(nl, Options{Outline: out, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	intra := res.Centers[0].Dist(res.Centers[1])
	inter := res.Centers[0].Dist(res.Centers[4])
	if intra >= inter {
		t.Fatalf("clustering lost: intra %g >= inter %g", intra, inter)
	}
}

func TestLSEHPWLApproachesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	nl := testNL(5, rng)
	xv := make([]float64, 10)
	for i := range xv {
		xv[i] = rng.Float64() * 10
	}
	centers := make([]geom.Point, 5)
	for i := range centers {
		centers[i] = geom.Point{X: xv[2*i], Y: xv[2*i+1]}
	}
	exact := nl.HPWL(centers)
	g := make([]float64, 10)
	lse := netlist.NewLSEEval(nl, 2)
	coarse := lse.Eval(xv, 1.0, g)
	fine := lse.Eval(xv, 0.01, g)
	// LSE overestimates and converges to the exact HPWL as γ → 0.
	if fine < exact-1e-6 {
		t.Fatalf("LSE(0.01) = %g below exact %g", fine, exact)
	}
	if math.Abs(fine-exact) > 0.05*exact+1e-9 {
		t.Fatalf("LSE(0.01) = %g too far from exact %g", fine, exact)
	}
	if math.Abs(coarse-exact) < math.Abs(fine-exact) {
		t.Fatal("smoothing did not tighten with smaller gamma")
	}
}

func TestLSEGradientFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	nl := testNL(4, rng)
	xv := make([]float64, 8)
	for i := range xv {
		xv[i] = rng.Float64() * 4
	}
	g := make([]float64, 8)
	lse := netlist.NewLSEEval(nl, 2)
	lse.Eval(xv, 0.5, g)
	tmp := make([]float64, 8)
	const h = 1e-6
	for i := range xv {
		xp := append([]float64(nil), xv...)
		xm := append([]float64(nil), xv...)
		xp[i] += h
		xm[i] -= h
		for k := range tmp {
			tmp[k] = 0
		}
		fp := lse.Eval(xp, 0.5, tmp)
		for k := range tmp {
			tmp[k] = 0
		}
		fm := lse.Eval(xm, 0.5, tmp)
		fd := (fp - fm) / (2 * h)
		if math.Abs(fd-g[i]) > 1e-4*(1+math.Abs(fd)) {
			t.Fatalf("gradient[%d] = %g, fd %g", i, g[i], fd)
		}
	}
}

func TestDensityPenaltyGradientFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	nl := testNL(4, rng)
	out := geom.Rect{MinX: 0, MinY: 0, MaxX: 6, MaxY: 6}
	dg := newDensityGrid(nl, out, 4)
	xv := make([]float64, 8)
	for i := range xv {
		xv[i] = 1 + rng.Float64()*4
	}
	g := make([]float64, 8)
	dg.penalty(xv, g, 1)
	tmp := make([]float64, 8)
	const h = 1e-6
	for i := range xv {
		xp := append([]float64(nil), xv...)
		xm := append([]float64(nil), xv...)
		xp[i] += h
		xm[i] -= h
		fp := dg.penalty(xp, tmp, 0)
		fm := dg.penalty(xm, tmp, 0)
		fd := (fp - fm) / (2 * h)
		if math.Abs(fd-g[i]) > 1e-4*(1+math.Abs(fd)) {
			t.Fatalf("density gradient[%d] = %g, fd %g", i, g[i], fd)
		}
	}
}

func TestDensityPenaltyDropsWhenSpread(t *testing.T) {
	nl := testNL(4, rand.New(rand.NewSource(2)))
	out := geom.Rect{MinX: 0, MinY: 0, MaxX: 8, MaxY: 8}
	dg := newDensityGrid(nl, out, 4)
	g := make([]float64, 8)
	clumped := []float64{4, 4, 4, 4, 4, 4, 4, 4}
	spread := []float64{2, 2, 6, 2, 2, 6, 6, 6}
	pc := dg.penalty(clumped, g, 0)
	ps := dg.penalty(spread, g, 0)
	if ps >= pc {
		t.Fatalf("spread penalty %g >= clumped %g", ps, pc)
	}
}

func TestSolveErrors(t *testing.T) {
	if _, err := Solve(&netlist.Netlist{}, Options{Outline: geom.Rect{MaxX: 1, MaxY: 1}}); err == nil {
		t.Fatal("expected empty netlist error")
	}
	nl := testNL(3, rand.New(rand.NewSource(1)))
	if _, err := Solve(nl, Options{}); err == nil {
		t.Fatal("expected outline error")
	}
}
