package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"sdpfloor/internal/geom"
	"sdpfloor/internal/linalg"
	"sdpfloor/internal/netlist"
	"sdpfloor/internal/sdp"
	"sdpfloor/internal/trace"
)

// chainNL builds n unit-area modules in a chain with two pads at (±span, 0).
func chainNL(n int, span float64) *netlist.Netlist {
	nl := &netlist.Netlist{}
	for i := 0; i < n; i++ {
		nl.Modules = append(nl.Modules, netlist.Module{
			Name: "m", MinArea: 1, MaxAspect: 3,
		})
	}
	for i := 0; i+1 < n; i++ {
		nl.Nets = append(nl.Nets, netlist.Net{Name: "n", Weight: 1, Modules: []int{i, i + 1}})
	}
	nl.Pads = []netlist.Pad{
		{Name: "pl", Pos: geom.Point{X: -span, Y: 0}},
		{Name: "pr", Pos: geom.Point{X: span, Y: 0}},
	}
	nl.Nets = append(nl.Nets,
		netlist.Net{Name: "pnl", Weight: 1, Modules: []int{0}, Pads: []int{0}},
		netlist.Net{Name: "pnr", Weight: 1, Modules: []int{n - 1}, Pads: []int{1}},
	)
	return nl
}

func TestSolveTwoModulesWithPads(t *testing.T) {
	nl := chainNL(2, 4)
	res, err := Solve(nl, Options{MaxIter: 20})
	if err != nil {
		t.Fatal(err)
	}
	if !res.RankOK {
		t.Fatalf("rank constraint not satisfied: <W,Z> = %g", res.WZ)
	}
	// The two modules must respect the distance constraint r0 + r1 = 1.
	d := res.Centers[0].Dist(res.Centers[1])
	if d < 1-1e-3 {
		t.Fatalf("distance %g violates bound 1", d)
	}
	// Pulled by the pads, module 0 should be left of module 1.
	if res.Centers[0].X >= res.Centers[1].X {
		t.Fatalf("ordering wrong: %v", res.Centers)
	}
	// Centers stay within the pad span.
	for _, c := range res.Centers {
		if math.Abs(c.X) > 4+1e-6 || math.Abs(c.Y) > 4+1e-6 {
			t.Fatalf("center out of range: %v", c)
		}
	}
}

func TestSolveDistanceConstraintsAllPairs(t *testing.T) {
	nl := chainNL(5, 6)
	res, err := Solve(nl, Options{MaxIter: 15})
	if err != nil {
		t.Fatal(err)
	}
	radii := nl.Radii(false)
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			d := res.Centers[i].DistSq(res.Centers[j])
			bound := (radii[i] + radii[j]) * (radii[i] + radii[j])
			if d < bound*(1-1e-2) {
				t.Fatalf("pair (%d,%d): D = %g < bound %g", i, j, d, bound)
			}
		}
	}
}

func TestSolveRankTwoAchieved(t *testing.T) {
	nl := chainNL(4, 5)
	res, err := Solve(nl, Options{MaxIter: 25})
	if err != nil {
		t.Fatal(err)
	}
	if !res.RankOK {
		t.Fatalf("rank constraint not reached; <W,Z>=%g alpha=%g", res.WZ, res.AlphaFinal)
	}
	if res.Rank > 2 {
		t.Fatalf("numerical rank %d > 2", res.Rank)
	}
	// With rank 2 achieved, G == XᵀX: check G_ii ≈ ‖xᵢ‖².
	for i, c := range res.Centers {
		gii := res.Z.At(2+i, 2+i)
		n2 := c.X*c.X + c.Y*c.Y
		if math.Abs(gii-n2) > 1e-2*(1+n2) {
			t.Fatalf("G[%d][%d] = %g but ‖x‖² = %g", i, i, gii, n2)
		}
	}
}

func TestSolvePPMKeepsModuleFixed(t *testing.T) {
	nl := chainNL(3, 4)
	nl.Modules[1].Fixed = true
	nl.Modules[1].FixedPos = geom.Point{X: 0.5, Y: 0.25}
	res, err := Solve(nl, Options{MaxIter: 20})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Centers[1]
	if math.Abs(got.X-0.5) > 1e-4 || math.Abs(got.Y-0.25) > 1e-4 {
		t.Fatalf("fixed module moved to %v", got)
	}
}

func TestSolveOutlineRespected(t *testing.T) {
	nl := chainNL(3, 10)
	out := geom.Rect{MinX: -2, MinY: -2, MaxX: 2, MaxY: 2}
	res, err := Solve(nl, Options{MaxIter: 20, Outline: &out})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range res.Centers {
		if c.X < out.MinX-1e-6 || c.X > out.MaxX+1e-6 || c.Y < out.MinY-1e-6 || c.Y > out.MaxY+1e-6 {
			t.Fatalf("module %d center %v escapes outline", i, c)
		}
	}
}

func TestSolveLazyMatchesFull(t *testing.T) {
	nl := chainNL(5, 6)
	full, err := Solve(nl, Options{MaxIter: 12})
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := Solve(nl, Options{MaxIter: 12, LazyConstraints: true})
	if err != nil {
		t.Fatal(err)
	}
	// Same final objective within a small relative tolerance.
	if math.Abs(full.Objective-lazy.Objective) > 0.05*(1+math.Abs(full.Objective)) {
		t.Fatalf("lazy objective %g vs full %g", lazy.Objective, full.Objective)
	}
	// And the lazy solution is feasible for every pair.
	radii := nl.Radii(false)
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			d := lazy.Centers[i].DistSq(lazy.Centers[j])
			bound := (radii[i] + radii[j]) * (radii[i] + radii[j])
			if d < bound*(1-1e-2) {
				t.Fatalf("lazy pair (%d,%d) violated: %g < %g", i, j, d, bound)
			}
		}
	}
}

func TestDirectionMatrixClosedFormMatchesSDP(t *testing.T) {
	// Cross-check the Ky-Fan closed form of sub-problem 2 against solving
	// Eq. 19 with the interior-point solver on a random Z.
	rng := rand.New(rand.NewSource(11))
	dim, n := 5, 3
	z := linalg.NewDense(dim, dim)
	for i := 0; i < dim; i++ {
		for j := i; j < dim; j++ {
			v := rng.NormFloat64()
			z.Set(i, j, v)
			z.Set(j, i, v)
		}
	}
	w, wz, err := DirectionMatrix(z, n)
	if err != nil {
		t.Fatal(err)
	}
	// W properties: 0 ⪯ W ⪯ I, tr W = n.
	if math.Abs(w.Trace()-float64(n)) > 1e-9 {
		t.Fatalf("tr W = %g, want %d", w.Trace(), n)
	}
	eg, err := linalg.NewSymEig(w)
	if err != nil {
		t.Fatal(err)
	}
	if eg.MinEigenvalue() < -1e-9 || eg.MaxEigenvalue() > 1+1e-9 {
		t.Fatalf("W eigenvalues out of [0,1]: %v", eg.Values)
	}
	if math.Abs(linalg.InnerProd(w, z)-wz) > 1e-9*(1+math.Abs(wz)) {
		t.Fatalf("reported <W,Z> %g != actual %g", wz, linalg.InnerProd(w, z))
	}

	// SDP formulation: min ⟨Z,W⟩, 0 ⪯ W, I−W ⪯... encoded as W + T = I.
	var cons []sdp.Constraint
	for i := 0; i < dim; i++ {
		for j := i; j < dim; j++ {
			rhs := 0.0
			if i == j {
				rhs = 1
			}
			cons = append(cons, sdp.Constraint{
				PSD: [][]sdp.Entry{{{I: i, J: j, V: 1}}, {{I: i, J: j, V: 1}}},
				B:   rhs,
			})
		}
	}
	tr := make([]sdp.Entry, dim)
	for i := 0; i < dim; i++ {
		tr[i] = sdp.Entry{I: i, J: i, V: 1}
	}
	cons = append(cons, sdp.Constraint{PSD: [][]sdp.Entry{tr}, B: float64(n)})
	prob := &sdp.Problem{
		PSDDims: []int{dim, dim},
		C:       []*linalg.Dense{z, linalg.NewDense(dim, dim)},
		Cons:    cons,
	}
	sol, err := sdp.SolveIPM(prob, sdp.IPMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != sdp.StatusOptimal {
		t.Fatalf("IPM status %v", sol.Status)
	}
	if math.Abs(sol.PrimalObj-wz) > 1e-5*(1+math.Abs(wz)) {
		t.Fatalf("SDP sub-problem 2 objective %g != closed form %g", sol.PrimalObj, wz)
	}
}

func TestExtractBestRank2RecoversGeometry(t *testing.T) {
	// Build Z from a known rank-2 configuration; best-rank-2 extraction must
	// reproduce pairwise distances.
	pts := []geom.Point{{X: 0, Y: 0}, {X: 2, Y: 0}, {X: 1, Y: 2}}
	n := len(pts)
	z := linalg.NewDense(n+2, n+2)
	z.Set(0, 0, 1)
	z.Set(1, 1, 1)
	for i, p := range pts {
		z.Set(0, 2+i, p.X)
		z.Set(2+i, 0, p.X)
		z.Set(1, 2+i, p.Y)
		z.Set(2+i, 1, p.Y)
		for j, q := range pts {
			z.Set(2+i, 2+j, p.X*q.X+p.Y*q.Y)
		}
	}
	got, err := ExtractBestRank2(z)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			want := pts[i].Dist(pts[j])
			have := got[i].Dist(got[j])
			if math.Abs(want-have) > 1e-8 {
				t.Fatalf("pair (%d,%d): distance %g, want %g", i, j, have, want)
			}
		}
	}
	// ExtractCenters reproduces the X block exactly.
	cs := ExtractCenters(z)
	for i := range pts {
		if cs[i] != pts[i] {
			t.Fatalf("ExtractCenters[%d] = %v, want %v", i, cs[i], pts[i])
		}
	}
}

func TestDistanceBoundReducesToBasic(t *testing.T) {
	// Eq. 26 with k = 1 must equal Eq. 11.
	radii := []float64{1, 2}
	aspect := []float64{1, 1}
	a := linalg.NewDenseFrom([][]float64{{0, 3}, {3, 0}})
	deg := netlist.Degrees(a)
	got := distanceBound(0, 1, radii, aspect, a, deg, true)
	want := (radii[0] + radii[1]) * (radii[0] + radii[1])
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("bound = %g, want %g", got, want)
	}
}

func TestDistanceBoundTightensWithConnectivity(t *testing.T) {
	// A strongly connected neighbour is allowed closer than a weak one.
	radii := []float64{1, 1, 1}
	aspect := []float64{3, 3, 3}
	a := linalg.NewDenseFrom([][]float64{
		{0, 10, 1},
		{10, 0, 0},
		{1, 0, 0},
	})
	deg := netlist.Degrees(a)
	strong := distanceBound(0, 1, radii, aspect, a, deg, true)
	weak := distanceBound(0, 2, radii, aspect, a, deg, true)
	if strong >= weak {
		t.Fatalf("strong pair bound %g should be smaller than weak %g", strong, weak)
	}
}

func TestDistanceBoundSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		n := 4
		radii := make([]float64, n)
		aspect := make([]float64, n)
		a := linalg.NewDense(n, n)
		for i := 0; i < n; i++ {
			radii[i] = 0.5 + rng.Float64()
			aspect[i] = 1 + rng.Float64()*2
			for j := i + 1; j < n; j++ {
				w := rng.Float64() * 5
				a.Set(i, j, w)
				a.Set(j, i, w)
			}
		}
		deg := netlist.Degrees(a)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				b1 := distanceBound(i, j, radii, aspect, a, deg, true)
				b2 := distanceBound(j, i, radii, aspect, a, deg, true)
				if math.Abs(b1-b2) > 1e-12 {
					t.Fatalf("bound not symmetric: %g vs %g", b1, b2)
				}
			}
		}
	}
}

func TestAdaptiveAManhattanScaling(t *testing.T) {
	nl := &netlist.Netlist{
		Modules: []netlist.Module{
			{Name: "a", MinArea: 1, MaxAspect: 1},
			{Name: "b", MinArea: 1, MaxAspect: 1},
		},
		Nets: []netlist.Net{{Name: "n", Weight: 2, Modules: []int{0, 1}}},
	}
	centers := []geom.Point{{X: 0, Y: 0}, {X: 3, Y: 4}}
	a := adaptiveA(nl, centers, true, false)
	// M = 7, D = 25 → weight 2·7/25.
	want := 2 * 7.0 / 25.0
	if math.Abs(a.At(0, 1)-want) > 1e-12 {
		t.Fatalf("adaptive weight = %g, want %g", a.At(0, 1), want)
	}
	// Nil centers → base adjacency.
	base := adaptiveA(nl, nil, true, false)
	if base.At(0, 1) != 2 {
		t.Fatalf("base weight = %g, want 2", base.At(0, 1))
	}
}

func TestAdaptiveAHyperEdgeBoundaryOnly(t *testing.T) {
	nl := &netlist.Netlist{
		Modules: []netlist.Module{
			{Name: "a", MinArea: 1, MaxAspect: 1},
			{Name: "b", MinArea: 1, MaxAspect: 1},
			{Name: "c", MinArea: 1, MaxAspect: 1},
		},
		Nets: []netlist.Net{{Name: "n", Weight: 2, Modules: []int{0, 1, 2}}},
	}
	// Module 1 strictly inside the bbox of {0, 2}.
	centers := []geom.Point{{X: 0, Y: 0}, {X: 5, Y: 5}, {X: 10, Y: 10}}
	a := adaptiveA(nl, centers, false, true)
	if a.At(0, 2) == 0 {
		t.Fatal("boundary pair (0,2) should be connected")
	}
	if a.At(0, 1) != 0 || a.At(1, 2) != 0 {
		t.Fatalf("interior module should be disconnected this iteration: %v", a)
	}
}

func TestSolveNonSquareRunsAndSatisfiesBounds(t *testing.T) {
	nl := chainNL(4, 5)
	res, err := Solve(nl, Options{MaxIter: 15, NonSquare: true, Manhattan: true})
	if err != nil {
		t.Fatal(err)
	}
	bld := newBuilder(nl, &Options{NonSquare: true})
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			d := res.Centers[i].DistSq(res.Centers[j])
			bound := bld.bound(pair{i, j})
			if d < bound*(1-2e-2) {
				t.Fatalf("non-square pair (%d,%d): D=%g < bound %g", i, j, d, bound)
			}
		}
	}
}

func TestSolveTraceRecordsIterations(t *testing.T) {
	nl := chainNL(3, 4)
	ring := trace.NewRing(4096)
	res, err := Solve(nl, Options{MaxIter: 10, Trace: ring})
	if err != nil {
		t.Fatal(err)
	}
	if ring.Dropped() > 0 {
		t.Fatalf("ring dropped %d events", ring.Dropped())
	}
	iters := 0
	for _, ev := range ring.Snapshot() {
		if ev.Solver != "core" || ev.Kind != trace.KindIter {
			continue
		}
		iters++
		var alpha, cons float64
		for _, f := range ev.Fields {
			switch f.Key {
			case "alpha":
				alpha = f.Val
			case "cons":
				cons = f.Val
			}
		}
		if alpha <= 0 || cons <= 0 {
			t.Fatalf("bad core iter event: %+v", ev)
		}
	}
	if iters == 0 || iters != res.Iterations {
		t.Fatalf("%d core iter events, %d iterations", iters, res.Iterations)
	}
}

// TestSolveManyNetsBitwiseAcrossWorkers: the netlist matrices are assembled
// in net order whatever the worker count, so a netlist with enough nets to
// split into chunks (≥512) still yields a bitwise-identical Z at w1 and w4.
func TestSolveManyNetsBitwiseAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const n, pads, nets = 6, 4, 600
	nl := &netlist.Netlist{}
	for i := 0; i < n; i++ {
		nl.Modules = append(nl.Modules, netlist.Module{Name: "m", MinArea: 1 + rng.Float64(), MaxAspect: 2})
	}
	for j := 0; j < pads; j++ {
		a := 2 * math.Pi * float64(j) / pads
		nl.Pads = append(nl.Pads, netlist.Pad{Name: "p", Pos: geom.Point{X: 6 * math.Cos(a), Y: 6 * math.Sin(a)}})
	}
	for k := 0; k < nets; k++ {
		perm := rng.Perm(n)
		e := netlist.Net{Name: "e", Weight: 0.1 + 3*rng.Float64(), Modules: perm[:2+rng.Intn(3)]}
		if rng.Intn(3) == 0 {
			e.Pads = []int{rng.Intn(pads)}
		}
		nl.Nets = append(nl.Nets, e)
	}
	var ref *Result
	for _, workers := range []int{1, 4} {
		res, err := Solve(nl, Options{MaxIter: 3, AlphaMaxDoublings: 1, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if ref == nil {
			ref = res
			continue
		}
		for i, v := range res.Z.Data {
			if math.Float64bits(v) != math.Float64bits(ref.Z.Data[i]) {
				t.Fatalf("workers=%d: Z[%d] = %v, workers=1 gave %v", workers, i, v, ref.Z.Data[i])
			}
		}
	}
}

func TestSolveEmptyNetlistErrors(t *testing.T) {
	if _, err := Solve(&netlist.Netlist{}, Options{}); err == nil {
		t.Fatal("expected error for empty netlist")
	}
}

func TestOptionsWithAllEnhancements(t *testing.T) {
	o := Options{}.WithAllEnhancements()
	if !o.NonSquare || !o.Manhattan || !o.HyperEdge {
		t.Fatalf("enhancements not enabled: %+v", o)
	}
}

func TestSolverKindString(t *testing.T) {
	if SolverIPM.String() != "ipm" || SolverADMM.String() != "admm" {
		t.Fatal("SolverKind strings wrong")
	}
}

func TestSolveDistanceCapEnforced(t *testing.T) {
	// Two anchored modules pulled apart by pads, plus a proximity cap that
	// forces them within distance 2 of each other.
	nl := &netlist.Netlist{
		Modules: []netlist.Module{
			{Name: "a", MinArea: 1, MaxAspect: 1},
			{Name: "b", MinArea: 1, MaxAspect: 1},
		},
		Pads: []netlist.Pad{
			{Name: "pl", Pos: geom.Point{X: -6, Y: 0}},
			{Name: "pr", Pos: geom.Point{X: 6, Y: 0}},
		},
		Nets: []netlist.Net{
			{Name: "al", Weight: 3, Modules: []int{0}, Pads: []int{0}},
			{Name: "br", Weight: 3, Modules: []int{1}, Pads: []int{1}},
		},
	}
	// Without the cap, the pads pull the modules ~12 apart.
	free, err := Solve(nl, Options{MaxIter: 15})
	if err != nil {
		t.Fatal(err)
	}
	if d := free.Centers[0].Dist(free.Centers[1]); d < 6 {
		t.Fatalf("uncapped distance %g unexpectedly small", d)
	}
	capped, err := Solve(nl, Options{
		MaxIter:      15,
		DistanceCaps: []DistanceCap{{I: 0, J: 1, MaxDist: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := capped.Centers[0].Dist(capped.Centers[1]); d > 2.1 {
		t.Fatalf("capped distance %g exceeds MaxDist 2", d)
	}
	// The separation lower bound still holds alongside the cap.
	if d := capped.Centers[0].Dist(capped.Centers[1]); d < 1-1e-2 {
		t.Fatalf("capped distance %g violates separation bound 1", d)
	}
}

func TestSolveWithADMMSolver(t *testing.T) {
	nl := chainNL(3, 4)
	ipm, err := Solve(nl, Options{MaxIter: 8})
	if err != nil {
		t.Fatal(err)
	}
	admm, err := Solve(nl, Options{MaxIter: 8, Solver: SolverADMM, SolverMaxIter: 20000})
	if err != nil {
		t.Fatal(err)
	}
	// The two solvers must agree on the objective within first-order accuracy.
	if math.Abs(ipm.Objective-admm.Objective) > 0.05*(1+math.Abs(ipm.Objective)) {
		t.Fatalf("ADMM objective %g vs IPM %g", admm.Objective, ipm.Objective)
	}
}

func TestSolveContextCancellation(t *testing.T) {
	nl := chainNL(5, 6)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: the solve must stop at the first check
	_, err := Solve(nl, Options{MaxIter: 20, Context: ctx})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("expected context.Canceled, got %v", err)
	}
}
