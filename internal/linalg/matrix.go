// Package linalg provides the dense linear algebra kernels used throughout
// the floorplanner: matrices, a Cholesky factorization, a symmetric
// eigensolver, matrix products, and a conjugate-gradient solver. Everything
// is implemented on top of the standard library only; matrices are dense
// row-major float64.
//
// The package is deliberately small and specialized: the SDP interior-point
// solver needs symmetric matrices of order a few hundred, Cholesky and
// eigendecompositions in an inner loop, and little else. There is no attempt
// to be a general BLAS replacement.
package linalg

import (
	"fmt"
	"math"
	"strings"
)

// Dense is a dense row-major matrix.
type Dense struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, Data[i*Cols+j] is element (i,j)
}

// NewDense returns a zero r×c matrix.
func NewDense(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic("linalg: negative dimension")
	}
	return &Dense{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// NewDenseFrom builds a matrix from a slice of rows. All rows must have the
// same length. The data is copied.
func NewDenseFrom(rows [][]float64) *Dense {
	r := len(rows)
	if r == 0 {
		return NewDense(0, 0)
	}
	c := len(rows[0])
	m := NewDense(r, c)
	for i, row := range rows {
		if len(row) != c {
			panic("linalg: ragged rows")
		}
		copy(m.Data[i*c:(i+1)*c], row)
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Add adds v to element (i, j).
func (m *Dense) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// CopyFrom copies the contents of src into m. Dimensions must match.
func (m *Dense) CopyFrom(src *Dense) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic("linalg: CopyFrom dimension mismatch")
	}
	copy(m.Data, src.Data)
}

// Zero sets every element to 0.
func (m *Dense) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Row returns row i as a slice aliasing the matrix storage.
func (m *Dense) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Scale multiplies every element by a.
func (m *Dense) Scale(a float64) {
	for i := range m.Data {
		m.Data[i] *= a
	}
}

// AddScaled performs m += a*b elementwise. Dimensions must match.
func (m *Dense) AddScaled(a float64, b *Dense) {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		panic("linalg: AddScaled dimension mismatch")
	}
	for i := range m.Data {
		m.Data[i] += a * b.Data[i]
	}
}

// T returns the transpose of m as a new matrix.
func (m *Dense) T() *Dense {
	out := NewDense(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Data[j*m.Rows+i] = m.Data[i*m.Cols+j]
		}
	}
	return out
}

// TransposeInto writes mᵀ into dst. dst must be Cols×Rows and must not
// alias m.
func (m *Dense) TransposeInto(dst *Dense) {
	if dst.Rows != m.Cols || dst.Cols != m.Rows {
		panic("linalg: TransposeInto dimension mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			dst.Data[j*m.Rows+i] = v
		}
	}
}

// MatMul computes a*b into a new matrix.
func MatMul(a, b *Dense) *Dense {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("linalg: MatMul dimension mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewDense(a.Rows, b.Cols)
	matMulRows(out, a, b, 0, a.Rows)
	return out
}

// mulTileCols returns the b-panel tile width for mulABtRows: wide enough to
// amortize loop overhead, narrow enough that a panel of k × tile doubles
// stays cache-resident while the i loop streams over it. Tiling only
// reorders which output elements are computed when — every element still
// accumulates over l in ascending order — so the tiled kernel is bitwise
// identical to the untiled one.
func mulTileCols(k int) int {
	const tileBytes = 32 << 10 // ≈ L1d budget for the b panel
	if k <= 0 {
		return 64
	}
	t := tileBytes / 8 / k
	if t < 64 {
		t = 64
	}
	return t
}

// matMulRows computes rows [lo, hi) of dst = a*b, zeroing them first — the
// row-range kernel behind MatMul and MatMulWork.MatMulInto. The ikj order
// streams whole rows of b, which the hardware prefetcher handles well;
// column-tiling this kernel measured 25–35% slower (extra passes over a's
// rows and weaker bounds-check elimination), so the cache-blocked variants
// live only where they pay: mulABtRows and the blocked Cholesky.
//
//sdpvet:hotpath
func matMulRows(dst, a, b *Dense, lo, hi int) {
	k, p := a.Cols, b.Cols
	for i := lo; i < hi; i++ {
		arow := a.Data[i*k : (i+1)*k]
		drow := dst.Data[i*p : (i+1)*p]
		for j := range drow {
			drow[j] = 0
		}
		for l := 0; l < k; l++ {
			ail := arow[l]
			if ail == 0 {
				continue
			}
			brow := b.Data[l*p : (l+1)*p]
			for j, v := range brow {
				drow[j] += ail * v
			}
		}
	}
}

// MulVec computes m*x into a new vector.
func (m *Dense) MulVec(x []float64) []float64 {
	if len(x) != m.Cols {
		panic("linalg: MulVec dimension mismatch")
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		s := 0.0
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}

// MulVecT computes mᵀ*x into a new vector.
func (m *Dense) MulVecT(x []float64) []float64 {
	if len(x) != m.Rows {
		panic("linalg: MulVecT dimension mismatch")
	}
	out := make([]float64, m.Cols)
	for i := 0; i < m.Rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		row := m.Row(i)
		for j, v := range row {
			out[j] += v * xi
		}
	}
	return out
}

// InnerProd returns the Frobenius inner product ⟨a, b⟩ = Σᵢⱼ aᵢⱼ bᵢⱼ.
func InnerProd(a, b *Dense) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("linalg: InnerProd dimension mismatch")
	}
	s := 0.0
	for i, v := range a.Data {
		s += v * b.Data[i]
	}
	return s
}

// Trace returns the trace of a square matrix.
func (m *Dense) Trace() float64 {
	if m.Rows != m.Cols {
		panic("linalg: Trace of non-square matrix")
	}
	s := 0.0
	for i := 0; i < m.Rows; i++ {
		s += m.Data[i*m.Cols+i]
	}
	return s
}

// FrobNorm returns the Frobenius norm of m.
func (m *Dense) FrobNorm() float64 {
	s := 0.0
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// MaxAbs returns the largest |mᵢⱼ|.
func (m *Dense) MaxAbs() float64 {
	s := 0.0
	for _, v := range m.Data {
		if a := math.Abs(v); a > s {
			s = a
		}
	}
	return s
}

// Symmetrize replaces m with (m + mᵀ)/2. m must be square.
func (m *Dense) Symmetrize() {
	if m.Rows != m.Cols {
		panic("linalg: Symmetrize of non-square matrix")
	}
	n := m.Rows
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := 0.5 * (m.Data[i*n+j] + m.Data[j*n+i])
			m.Data[i*n+j] = v
			m.Data[j*n+i] = v
		}
	}
}

// IsSymmetric reports whether |mᵢⱼ − mⱼᵢ| ≤ tol for all i, j.
func (m *Dense) IsSymmetric(tol float64) bool {
	if m.Rows != m.Cols {
		return false
	}
	n := m.Rows
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if math.Abs(m.Data[i*n+j]-m.Data[j*n+i]) > tol {
				return false
			}
		}
	}
	return true
}

// String renders the matrix for debugging.
func (m *Dense) String() string {
	var b strings.Builder
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "% .6g", m.At(i, j))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Submatrix copies the block [r0, r0+nr) × [c0, c0+nc) into a new matrix.
func (m *Dense) Submatrix(r0, c0, nr, nc int) *Dense {
	if r0 < 0 || c0 < 0 || r0+nr > m.Rows || c0+nc > m.Cols {
		panic("linalg: Submatrix out of range")
	}
	out := NewDense(nr, nc)
	for i := 0; i < nr; i++ {
		copy(out.Row(i), m.Data[(r0+i)*m.Cols+c0:(r0+i)*m.Cols+c0+nc])
	}
	return out
}
