package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSymEigKnown2x2(t *testing.T) {
	a := NewDenseFrom([][]float64{{2, 1}, {1, 2}})
	eg, err := NewSymEig(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(eg.Values[0]-1) > 1e-12 || math.Abs(eg.Values[1]-3) > 1e-12 {
		t.Fatalf("eigenvalues = %v, want [1 3]", eg.Values)
	}
}

func TestSymEigDiagonal(t *testing.T) {
	a := NewDenseFrom([][]float64{{5, 0, 0}, {0, -2, 0}, {0, 0, 1}})
	eg, err := NewSymEig(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{-2, 1, 5}
	for i := range want {
		if math.Abs(eg.Values[i]-want[i]) > 1e-12 {
			t.Fatalf("eigenvalues = %v, want %v", eg.Values, want)
		}
	}
}

func TestSymEigReconstructProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(12)
		a := randSym(r, n)
		eg, err := NewSymEig(a, 1)
		if err != nil {
			return false
		}
		rec := eg.Reconstruct()
		for i := range a.Data {
			if math.Abs(rec.Data[i]-a.Data[i]) > 1e-9*(1+a.MaxAbs()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSymEigOrthonormalProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(12)
		a := randSym(r, n)
		eg, err := NewSymEig(a, 1)
		if err != nil {
			return false
		}
		vtv := MatMul(eg.V.T(), eg.V)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := 0.0
				if i == j {
					want = 1
				}
				if math.Abs(vtv.At(i, j)-want) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSymEigSortedProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(10)
		eg, err := NewSymEig(randSym(r, n), 1)
		if err != nil {
			return false
		}
		for i := 1; i < n; i++ {
			if eg.Values[i] < eg.Values[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSymEigTraceInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randSym(rng, 20)
	eg, err := NewSymEig(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range eg.Values {
		sum += v
	}
	if math.Abs(sum-a.Trace()) > 1e-9 {
		t.Fatalf("Σλ = %g, trace = %g", sum, a.Trace())
	}
}

// psdProject returns the PSD-cone projection of the symmetric matrix a
// through EigWork.PSDProjectInto, the form the ADMM solver runs.
func psdProject(t *testing.T, a *Dense) *Dense {
	t.Helper()
	var w EigWork
	if _, err := w.Factor(a, 1); err != nil {
		t.Fatal(err)
	}
	p := NewDense(a.Rows, a.Cols)
	w.PSDProjectInto(p, 1)
	return p
}

func TestPSDProject(t *testing.T) {
	a := NewDenseFrom([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3 and -1
	p := psdProject(t, a)
	eg, err := NewSymEig(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if eg.MinEigenvalue() < -1e-12 {
		t.Fatalf("projection not PSD: λmin = %g", eg.MinEigenvalue())
	}
	// Projection of a PSD matrix is itself.
	spd := NewDenseFrom([][]float64{{2, 1}, {1, 2}})
	matApproxEqual(t, psdProject(t, spd), spd, 1e-10, "PSD projection of PSD matrix")
}

func TestPSDProjectIsNearestProperty(t *testing.T) {
	// ‖A − P(A)‖F ≤ ‖A − B‖F for random PSD B (verified by sampling).
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(5)
		a := randSym(rng, n)
		p := psdProject(t, a)
		diff := a.Clone()
		diff.AddScaled(-1, p)
		dp := diff.FrobNorm()
		for s := 0; s < 10; s++ {
			b := randSPD(rng, n)
			d2 := a.Clone()
			d2.AddScaled(-1, b)
			if d2.FrobNorm() < dp-1e-9 {
				t.Fatalf("found PSD matrix closer than projection: %g < %g", d2.FrobNorm(), dp)
			}
		}
	}
}

func TestNumericalRank(t *testing.T) {
	// Rank-2 Gram matrix.
	x := NewDense(2, 5)
	rng := rand.New(rand.NewSource(2))
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	g := MatMul(x.T(), x)
	eg, err := NewSymEig(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r := eg.NumericalRank(1e-9); r != 2 {
		t.Fatalf("NumericalRank = %d, want 2", r)
	}
}

func TestSymEigEmptyAndOne(t *testing.T) {
	if _, err := NewSymEig(NewDense(0, 0), 1); err != nil {
		t.Fatal(err)
	}
	eg, err := NewSymEig(NewDenseFrom([][]float64{{42}}), 1)
	if err != nil {
		t.Fatal(err)
	}
	if eg.Values[0] != 42 || eg.V.At(0, 0) != 1 {
		t.Fatalf("1x1 eig wrong: %v %v", eg.Values, eg.V)
	}
}

func TestSymEigRepeatedEigenvalues(t *testing.T) {
	// A multiple of the identity: all eigenvalues equal, V orthonormal.
	a := Identity(5)
	a.Scale(3)
	eg, err := NewSymEig(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range eg.Values {
		if math.Abs(v-3) > 1e-12 {
			t.Fatalf("eigenvalues = %v", eg.Values)
		}
	}
	matApproxEqual(t, MatMul(eg.V.T(), eg.V), Identity(5), 1e-10, "VᵀV")
}

func BenchmarkSymEig100(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := randSym(rng, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewSymEig(a, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCholesky200(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := randSPD(rng, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewCholesky(a, 1); err != nil {
			b.Fatal(err)
		}
	}
}
