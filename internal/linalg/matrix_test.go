package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randSym returns a random symmetric n×n matrix with entries in [-1, 1].
func randSym(rng *rand.Rand, n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := 2*rng.Float64() - 1
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	return m
}

// randSPD returns a random symmetric positive-definite matrix A = RᵀR + δI.
func randSPD(rng *rand.Rand, n int) *Dense {
	r := NewDense(n, n)
	for i := range r.Data {
		r.Data[i] = 2*rng.Float64() - 1
	}
	a := MatMul(r.T(), r)
	for i := 0; i < n; i++ {
		a.Add(i, i, 0.5)
	}
	return a
}

func matApproxEqual(t *testing.T, a, b *Dense, tol float64, msg string) {
	t.Helper()
	if a.Rows != b.Rows || a.Cols != b.Cols {
		t.Fatalf("%s: dimension mismatch %dx%d vs %dx%d", msg, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	for i := range a.Data {
		if d := math.Abs(a.Data[i] - b.Data[i]); d > tol {
			t.Fatalf("%s: element %d differs by %g (tol %g)", msg, i, d, tol)
		}
	}
}

func TestNewDenseFrom(t *testing.T) {
	m := NewDenseFrom([][]float64{{1, 2}, {3, 4}})
	if m.At(0, 1) != 2 || m.At(1, 0) != 3 {
		t.Fatalf("unexpected contents: %v", m)
	}
}

func TestNewDenseFromRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on ragged input")
		}
	}()
	NewDenseFrom([][]float64{{1, 2}, {3}})
}

func TestIdentity(t *testing.T) {
	id := Identity(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if id.At(i, j) != want {
				t.Fatalf("Identity(3)[%d,%d] = %g", i, j, id.At(i, j))
			}
		}
	}
}

func TestMatMulKnown(t *testing.T) {
	a := NewDenseFrom([][]float64{{1, 2}, {3, 4}})
	b := NewDenseFrom([][]float64{{5, 6}, {7, 8}})
	got := MatMul(a, b)
	want := NewDenseFrom([][]float64{{19, 22}, {43, 50}})
	matApproxEqual(t, got, want, 0, "MatMul 2x2")
}

func TestMatMulIdentityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(8)
		m := randSym(rng, n)
		p := MatMul(m, Identity(n))
		for i := range m.Data {
			if math.Abs(p.Data[i]-m.Data[i]) > 1e-14 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestTranspose(t *testing.T) {
	a := NewDenseFrom([][]float64{{1, 2, 3}, {4, 5, 6}})
	at := a.T()
	if at.Rows != 3 || at.Cols != 2 {
		t.Fatalf("T dims = %dx%d", at.Rows, at.Cols)
	}
	if at.At(2, 1) != 6 || at.At(0, 1) != 4 {
		t.Fatalf("T values wrong: %v", at)
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := NewDense(1+r.Intn(6), 1+r.Intn(6))
		for i := range a.Data {
			a.Data[i] = r.NormFloat64()
		}
		b := a.T().T()
		for i := range a.Data {
			if a.Data[i] != b.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMulABtMatchesMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randMat(rng, 90, 40)
	b := randMat(rng, 110, 40)
	// Values, not bits: MulABt uses the unrolled dot kernel with its own
	// association.
	matApproxEqual(t, MulABt(a, b, 1), MatMul(a, b.T()), 1e-9, "MulABt vs MatMul(a, bᵀ)")
}

func TestMulVecMatchesMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := NewDense(4, 3)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	x := []float64{1, -2, 0.5}
	got := a.MulVec(x)
	xm := NewDense(3, 1)
	copy(xm.Data, x)
	want := MatMul(a, xm)
	for i := range got {
		if math.Abs(got[i]-want.At(i, 0)) > 1e-14 {
			t.Fatalf("MulVec mismatch at %d: %g vs %g", i, got[i], want.At(i, 0))
		}
	}
}

func TestMulVecT(t *testing.T) {
	a := NewDenseFrom([][]float64{{1, 2}, {3, 4}, {5, 6}})
	x := []float64{1, 1, 1}
	got := a.MulVecT(x)
	want := []float64{9, 12}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("MulVecT = %v, want %v", got, want)
		}
	}
}

func TestInnerProdTraceIdentity(t *testing.T) {
	// ⟨A, B⟩ == trace(AᵀB) for random matrices.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(6)
		a, b := NewDense(n, n), NewDense(n, n)
		for i := range a.Data {
			a.Data[i] = r.NormFloat64()
			b.Data[i] = r.NormFloat64()
		}
		ip := InnerProd(a, b)
		tr := MatMul(a.T(), b).Trace()
		return math.Abs(ip-tr) <= 1e-10*(1+math.Abs(tr))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSymmetrize(t *testing.T) {
	a := NewDenseFrom([][]float64{{1, 4}, {2, 3}})
	a.Symmetrize()
	if a.At(0, 1) != 3 || a.At(1, 0) != 3 {
		t.Fatalf("Symmetrize wrong: %v", a)
	}
	if !a.IsSymmetric(0) {
		t.Fatal("IsSymmetric false after Symmetrize")
	}
}

func TestSubmatrix(t *testing.T) {
	a := NewDenseFrom([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	s := a.Submatrix(1, 0, 2, 2)
	want := NewDenseFrom([][]float64{{4, 5}, {7, 8}})
	matApproxEqual(t, s, want, 0, "Submatrix")
}

func TestFrobNormAndMaxAbs(t *testing.T) {
	a := NewDenseFrom([][]float64{{3, -4}})
	if a.FrobNorm() != 5 {
		t.Fatalf("FrobNorm = %g", a.FrobNorm())
	}
	if a.MaxAbs() != 4 {
		t.Fatalf("MaxAbs = %g", a.MaxAbs())
	}
}

func TestScaleAddScaled(t *testing.T) {
	a := NewDenseFrom([][]float64{{1, 2}})
	b := NewDenseFrom([][]float64{{10, 20}})
	a.Scale(2)
	a.AddScaled(0.5, b)
	want := NewDenseFrom([][]float64{{7, 14}})
	matApproxEqual(t, a, want, 0, "Scale/AddScaled")
}

func TestVecOps(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, 5, 6}
	if Dot(x, y) != 32 {
		t.Fatalf("Dot = %g", Dot(x, y))
	}
	if math.Abs(Norm2([]float64{3, 4})-5) > 1e-15 {
		t.Fatal("Norm2 wrong")
	}
	if NormInf([]float64{-7, 2}) != 7 {
		t.Fatal("NormInf wrong")
	}
	z := CloneVec(x)
	Axpy(2, y, z)
	want := []float64{9, 12, 15}
	for i := range z {
		if z[i] != want[i] {
			t.Fatalf("Axpy = %v", z)
		}
	}
	s := SubVec(y, x)
	for i := range s {
		if s[i] != 3 {
			t.Fatalf("SubVec = %v", s)
		}
	}
	a := AddVec(x, x)
	for i := range a {
		if a[i] != 2*x[i] {
			t.Fatalf("AddVec = %v", a)
		}
	}
	ScaleVec(0.5, a)
	for i := range a {
		if a[i] != x[i] {
			t.Fatalf("ScaleVec = %v", a)
		}
	}
}
