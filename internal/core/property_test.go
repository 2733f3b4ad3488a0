package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"sdpfloor/internal/geom"
	"sdpfloor/internal/linalg"
	"sdpfloor/internal/netlist"
)

// randomSmallNL builds a random connected netlist with 3–6 modules and two
// anchoring pads.
func randomSmallNL(rng *rand.Rand) *netlist.Netlist {
	n := 3 + rng.Intn(4)
	nl := &netlist.Netlist{}
	for i := 0; i < n; i++ {
		nl.Modules = append(nl.Modules, netlist.Module{
			Name:      "m",
			MinArea:   0.5 + rng.Float64()*2,
			MaxAspect: 1 + rng.Float64()*2,
		})
	}
	// Spanning tree plus extras.
	for i := 1; i < n; i++ {
		nl.Nets = append(nl.Nets, netlist.Net{
			Name: "t", Weight: 0.5 + rng.Float64()*2, Modules: []int{rng.Intn(i), i},
		})
	}
	for e := 0; e < n; e++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			nl.Nets = append(nl.Nets, netlist.Net{
				Name: "r", Weight: rng.Float64(), Modules: []int{a, b},
			})
		}
	}
	span := 2 + rng.Float64()*4
	nl.Pads = []netlist.Pad{
		{Name: "pl", Pos: geom.Point{X: -span, Y: -span / 2}},
		{Name: "pr", Pos: geom.Point{X: span, Y: span / 2}},
	}
	nl.Nets = append(nl.Nets,
		netlist.Net{Name: "pa", Weight: 1, Modules: []int{0}, Pads: []int{0}},
		netlist.Net{Name: "pb", Weight: 1, Modules: []int{n - 1}, Pads: []int{1}},
	)
	return nl
}

// TestSolveDistanceFeasibilityProperty: for random instances, every pair of
// the returned floorplan satisfies its distance bound whenever the rank
// constraint was reached (the G-block constraints always hold; the 2-D
// readout inherits them exactly when rank 2 is certified).
func TestSolveDistanceFeasibilityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nl := randomSmallNL(rng)
		res, err := Solve(nl, Options{MaxIter: 12})
		if err != nil {
			return false
		}
		if !res.RankOK {
			return true // no certificate, nothing to check at rank-2 level
		}
		bld := newBuilder(nl, &Options{})
		for i := 0; i < nl.N(); i++ {
			for j := i + 1; j < nl.N(); j++ {
				d := res.Centers[i].DistSq(res.Centers[j])
				if d < bld.bound(pair{i, j})*(1-5e-2) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestDirectionMatrixProjectorProperty: W from sub-problem 2 is an
// orthogonal projector (W² = W) of trace n.
func TestDirectionMatrixProjectorProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dim := 3 + rng.Intn(6)
		n := 1 + rng.Intn(dim-1)
		z := linalg.NewDense(dim, dim)
		for i := 0; i < dim; i++ {
			for j := i; j < dim; j++ {
				v := rng.NormFloat64()
				z.Set(i, j, v)
				z.Set(j, i, v)
			}
		}
		w, _, _, err := DirectionMatrix(z, n, 1)
		if err != nil {
			return false
		}
		w2 := linalg.MatMul(w, w)
		diff := w2.Clone()
		diff.AddScaled(-1, w)
		return diff.MaxAbs() < 1e-8 && math.Abs(w.Trace()-float64(n)) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestDirectionMatrixLowerBoundsObjective: for ANY feasible W' of
// sub-problem 2, ⟨W', Z⟩ ≥ the Ky-Fan optimum. Sampled with random
// projector-like W'.
func TestDirectionMatrixLowerBoundsObjective(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		dim := 4 + rng.Intn(4)
		n := 1 + rng.Intn(dim-1)
		z := linalg.NewDense(dim, dim)
		for i := 0; i < dim; i++ {
			for j := i; j < dim; j++ {
				v := rng.NormFloat64()
				z.Set(i, j, v)
				z.Set(j, i, v)
			}
		}
		_, opt, _, err := DirectionMatrix(z, n, 1)
		if err != nil {
			t.Fatal(err)
		}
		// Random feasible W': projector onto n random orthonormal vectors.
		m := linalg.NewDense(dim, dim)
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
		}
		q := gramSchmidt(m, n)
		wp := linalg.MatMul(q, q.T())
		if got := linalg.InnerProd(wp, z); got < opt-1e-8*(1+math.Abs(opt)) {
			t.Fatalf("random feasible W' beat the Ky-Fan optimum: %g < %g", got, opt)
		}
	}
}

// gramSchmidt returns dim×n with orthonormal columns from the first n
// columns of m.
func gramSchmidt(m *linalg.Dense, n int) *linalg.Dense {
	dim := m.Rows
	q := linalg.NewDense(dim, n)
	for c := 0; c < n; c++ {
		v := make([]float64, dim)
		for r := 0; r < dim; r++ {
			v[r] = m.At(r, c)
		}
		for p := 0; p < c; p++ {
			dot := 0.0
			for r := 0; r < dim; r++ {
				dot += v[r] * q.At(r, p)
			}
			for r := 0; r < dim; r++ {
				v[r] -= dot * q.At(r, p)
			}
		}
		nrm := linalg.Norm2(v)
		if nrm < 1e-12 {
			nrm = 1
		}
		for r := 0; r < dim; r++ {
			q.Set(r, c, v[r]/nrm)
		}
	}
	return q
}

// TestBaseBMatrixIsPSD: B of Eq. 8 from a symmetric adjacency is a scaled
// graph Laplacian, hence positive semidefinite.
func TestBaseBMatrixIsPSD(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		a := linalg.NewDense(n, n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.5 {
					w := rng.Float64() * 3
					a.Set(i, j, w)
					a.Set(j, i, w)
				}
			}
		}
		b := netlist.BuildB(a, 1)
		eg, err := linalg.NewSymEig(b, 1)
		if err != nil {
			return false
		}
		return eg.MinEigenvalue() > -1e-9*(1+b.MaxAbs())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestSolveObjectiveDecreasesWithWeakerConstraints: shrinking every module
// (smaller radii) can only improve the optimal squared wirelength.
func TestSolveObjectiveDecreasesWithWeakerConstraints(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	nl := randomSmallNL(rng)
	big, err := Solve(nl, Options{MaxIter: 10})
	if err != nil {
		t.Fatal(err)
	}
	shrunk := &netlist.Netlist{Pads: nl.Pads, Nets: nl.Nets}
	for _, m := range nl.Modules {
		m.MinArea *= 0.25
		shrunk.Modules = append(shrunk.Modules, m)
	}
	small, err := Solve(shrunk, Options{MaxIter: 10})
	if err != nil {
		t.Fatal(err)
	}
	if small.Objective > big.Objective*(1+0.05) {
		t.Fatalf("smaller modules gave worse objective: %g > %g", small.Objective, big.Objective)
	}
}
