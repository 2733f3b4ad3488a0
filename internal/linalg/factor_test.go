package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCholeskyKnown(t *testing.T) {
	a := NewDenseFrom([][]float64{{4, 2}, {2, 3}})
	c, err := NewCholesky(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	// L = [[2,0],[1, sqrt(2)]]
	if math.Abs(c.L.At(0, 0)-2) > 1e-15 || math.Abs(c.L.At(1, 0)-1) > 1e-15 ||
		math.Abs(c.L.At(1, 1)-math.Sqrt2) > 1e-15 {
		t.Fatalf("unexpected factor:\n%v", c.L)
	}
}

func TestCholeskyReconstructProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(10)
		a := randSPD(r, n)
		c, err := NewCholesky(a, 1)
		if err != nil {
			return false
		}
		rec := MatMul(c.L, c.L.T())
		for i := range a.Data {
			if math.Abs(rec.Data[i]-a.Data[i]) > 1e-9*(1+a.MaxAbs()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCholeskySolveProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(10)
		a := randSPD(r, n)
		xTrue := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = r.NormFloat64()
		}
		b := a.MulVec(xTrue)
		c, err := NewCholesky(a, 1)
		if err != nil {
			return false
		}
		x := c.SolveVec(CloneVec(b))
		for i := range x {
			if math.Abs(x[i]-xTrue[i]) > 1e-7*(1+NormInf(xTrue)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := NewDenseFrom([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := NewCholesky(a, 1); !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("err = %v, want ErrNotPositiveDefinite", err)
	}
}

func TestCholeskyInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randSPD(rng, 6)
	c, err := NewCholesky(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	inv := NewDense(6, 6)
	c.InverseInto(inv, 1)
	prod := MatMul(a, inv)
	id := Identity(6)
	matApproxEqual(t, prod, id, 1e-8, "A * A^-1")
}

func TestCG(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	n := 30
	a := randSPD(rng, n)
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	b := a.MulVec(xTrue)
	x := make([]float64, n)
	res := CG(&CGWork{}, func(dst, v []float64) {
		copy(dst, a.MulVec(v))
	}, b, x, 1e-12, 10*n)
	if !res.Converged {
		t.Fatalf("CG did not converge: %+v", res)
	}
	for i := range x {
		if math.Abs(x[i]-xTrue[i]) > 1e-6 {
			t.Fatalf("CG solution off at %d: %g vs %g", i, x[i], xTrue[i])
		}
	}
}

func TestCGExactArithmeticTermination(t *testing.T) {
	// On an n-dimensional SPD system CG must converge in ≤ n iterations up to
	// roundoff; give it 2n and require convergence.
	a := NewDenseFrom([][]float64{{2, 1, 0}, {1, 2, 1}, {0, 1, 2}})
	b := []float64{1, 0, 1}
	x := make([]float64, 3)
	res := CG(&CGWork{}, func(dst, v []float64) { copy(dst, a.MulVec(v)) }, b, x, 1e-10, 6)
	if !res.Converged {
		t.Fatalf("CG failed on tiny system: %+v", res)
	}
}
