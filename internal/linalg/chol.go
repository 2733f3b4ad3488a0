package linalg

import (
	"errors"
	"math"

	"sdpfloor/internal/parallel"
)

// ErrNotPositiveDefinite is returned by Cholesky when the input matrix is not
// (numerically) positive definite.
var ErrNotPositiveDefinite = errors.New("linalg: matrix is not positive definite")

// cholBlock is the panel width of the blocked factorization and the blocked
// triangular solves. 64 columns = 512 bytes per row segment: a panel row pair
// streams through L1 (48 KiB on the deployment hardware) and the trailing
// block of a 256×256 factor stays L2-resident, which is where the dense core
// spends its time at the paper's instance scales (n ≤ ~520).
const cholBlock = 64

// Cholesky holds the lower-triangular Cholesky factor L with A = L Lᵀ.
//
// The struct also owns the dispatch state for its blocked kernels: bound
// closures are created once per Cholesky and reused, so a recycled
// factorization (see CholWork) performs zero allocations in the steady
// state. A Cholesky is not safe for concurrent use.
type Cholesky struct {
	L *Dense // lower triangular, upper part is zero

	lt   *Dense // Lᵀ, built lazily: contiguous rows for backward substitution
	ltOK bool

	// Blocked-kernel dispatch state. The closures are bound on first use and
	// read the fields below, so per-call dispatch allocates nothing.
	k0, k1           int // current panel [k0, k1) during factorization
	rsM              *Dense
	panelFn, trailFn func(lo, hi int)
	fwdFn, bothFn    func(lo, hi int)
}

// NewCholesky factorizes the symmetric positive-definite matrix a. Only the
// lower triangle of a is read. Returns ErrNotPositiveDefinite if a pivot is
// not strictly positive.
func NewCholesky(a *Dense) (*Cholesky, error) {
	return NewCholeskyP(a, 1)
}

// NewCholeskyP is NewCholesky with the blocked factorization's panel solve
// and trailing update split across the worker pool. Sequential and parallel
// runs share one blocked kernel: chunk boundaries depend only on the sizes,
// writes are element-disjoint, and each element's accumulation order (panel
// by panel, sequential dot within a panel) never changes — so the factor is
// bitwise identical for every worker count.
func NewCholeskyP(a *Dense, workers int) (*Cholesky, error) {
	if a.Rows != a.Cols {
		panic("linalg: Cholesky of non-square matrix")
	}
	c := &Cholesky{L: NewDense(a.Rows, a.Rows)}
	if err := c.factor(a, workers); err != nil {
		return nil, err
	}
	return c, nil
}

// CholWork is a reusable factorization workspace: it owns a Cholesky whose
// factor (and lazily built transpose) buffers are recycled across Factor
// calls, so re-factorizing same-sized matrices — the IPM does it three times
// per iteration — allocates nothing after the first call.
type CholWork struct {
	c Cholesky
}

// Factor factorizes a into the workspace and returns a view of the result.
// The returned Cholesky (and anything computed from it) is invalidated by
// the next Factor call. a must not alias the workspace's own storage.
func (w *CholWork) Factor(a *Dense, workers int) (*Cholesky, error) {
	if a.Rows != a.Cols {
		panic("linalg: Cholesky of non-square matrix")
	}
	if w.c.L == nil || w.c.L.Rows != a.Rows {
		w.c.L = NewDense(a.Rows, a.Rows)
		w.c.lt = nil
	}
	if err := w.c.factor(a, workers); err != nil {
		return nil, err
	}
	return &w.c, nil
}

// dim returns the factor dimension the workspace is currently sized for.
func (w *CholWork) dim() int {
	if w.c.L == nil {
		return 0
	}
	return w.c.L.Rows
}

// factor runs the blocked right-looking factorization of a into c.L:
// per panel [k0, k1) it factorizes the diagonal block sequentially, solves
// the panel below it (rows independent → parallel.For), and applies the
// symmetric rank-nb trailing update (triangular row sweep → parallel.ForTri).
// The diagonal block and the panel solve take their rows in pairs sharing
// the pivot-row stream (dotPrefix2); every element keeps its dotPrefix
// accumulation, so pairing does not change a bit of the factor.
//
//sdpvet:hotpath
func (c *Cholesky) factor(a *Dense, workers int) error {
	n := a.Rows
	l := c.L
	c.ltOK = false
	for i := 0; i < n; i++ {
		lrow := l.Row(i)
		copy(lrow[:i+1], a.Row(i)[:i+1])
		for j := i + 1; j < n; j++ {
			lrow[j] = 0
		}
	}
	if c.panelFn == nil {
		c.panelFn = c.panelRows //sdpvet:ignore hotalloc bound once per workspace lifetime behind the nil guard; steady-state calls allocate nothing
		c.trailFn = c.trailRows //sdpvet:ignore hotalloc bound once per workspace lifetime behind the nil guard; steady-state calls allocate nothing
	}
	for k0 := 0; k0 < n; k0 += cholBlock {
		k1 := k0 + cholBlock
		if k1 > n {
			k1 = n
		}
		// Diagonal block: unblocked factorization over the panel columns.
		// Contributions from earlier panels were already subtracted by their
		// trailing updates, so dots run over [k0, j) only.
		for j := k0; j < k1; j++ {
			lrowj := l.Row(j)
			d := lrowj[j] - dotPrefix(lrowj[k0:j], lrowj[k0:j])
			if d <= 0 || math.IsNaN(d) {
				return ErrNotPositiveDefinite
			}
			d = math.Sqrt(d)
			lrowj[j] = d
			inv := 1 / d
			pj := lrowj[k0:j]
			i := j + 1
			for ; i+1 < k1; i += 2 {
				lrowi, lrowi1 := l.Row(i), l.Row(i+1)
				a, b := dotPrefix2(pj, lrowi[k0:j], lrowi1[k0:j])
				lrowi[j] = (lrowi[j] - a) * inv
				lrowi1[j] = (lrowi1[j] - b) * inv
			}
			if i < k1 {
				lrowi := l.Row(i)
				lrowi[j] = (lrowi[j] - dotPrefix(lrowi[k0:j], pj)) * inv
			}
		}
		if k1 == n {
			break
		}
		c.k0, c.k1 = k0, k1
		rows := n - k1
		// Panel solve: L[k1:, k0:k1] ← L[k1:, k0:k1]·L[k0:k1, k0:k1]⁻ᵀ.
		if workers > 1 && rows*(k1-k0)*(k1-k0) >= minParFlops {
			parallel.For(workers, rows, 1, c.panelFn)
		} else {
			c.panelFn(0, rows)
		}
		// Trailing update: row r of the trailing block costs r+1 dots, so
		// balance chunks triangularly.
		if workers > 1 && rows*(rows+1)/2*(k1-k0) >= minParFlops {
			parallel.ForTri(workers, rows, 0, c.trailFn)
		} else {
			c.trailFn(0, rows)
		}
	}
	return nil
}

// panelRows solves rows [k1+lo, k1+hi) of the current panel against the
// freshly factorized diagonal block, two rows per pass over the pivot rows.
//
//sdpvet:hotpath
func (c *Cholesky) panelRows(lo, hi int) {
	l, k0, k1 := c.L, c.k0, c.k1
	i := k1 + lo
	for ; i+1 < k1+hi; i += 2 {
		lrowi, lrowi1 := l.Row(i), l.Row(i+1)
		for j := k0; j < k1; j++ {
			lrowj := l.Row(j)
			a, b := dotPrefix2(lrowj[k0:j], lrowi[k0:j], lrowi1[k0:j])
			lrowi[j] = (lrowi[j] - a) / lrowj[j]
			lrowi1[j] = (lrowi1[j] - b) / lrowj[j]
		}
	}
	if i < k1+hi {
		lrowi := l.Row(i)
		for j := k0; j < k1; j++ {
			lrowj := l.Row(j)
			lrowi[j] = (lrowi[j] - dotPrefix(lrowi[k0:j], lrowj[k0:j])) / lrowj[j]
		}
	}
}

// trailRows applies the symmetric trailing update for rows
// [k1+lo, k1+hi): L[i][j] −= L[i][k0:k1]·L[j][k0:k1] for k1 ≤ j ≤ i.
// Columns are fused four at a time over the shared pi stream; fusing does
// not change any element's accumulation, so the update is bitwise identical
// for every worker count.
//
//sdpvet:hotpath
func (c *Cholesky) trailRows(lo, hi int) {
	l, k0, k1 := c.L, c.k0, c.k1
	for r := lo; r < hi; r++ {
		i := k1 + r
		lrowi := l.Row(i)
		pi := lrowi[k0:k1]
		j := k1
		for ; j+3 <= i; j += 4 {
			a, b, c2, d := dotPrefix4(pi, l.Row(j)[k0:k1], l.Row(j + 1)[k0:k1], l.Row(j + 2)[k0:k1], l.Row(j + 3)[k0:k1])
			lrowi[j] -= a
			lrowi[j+1] -= b
			lrowi[j+2] -= c2
			lrowi[j+3] -= d
		}
		for ; j <= i; j++ {
			lrowi[j] -= dotPrefix(pi, l.Row(j)[k0:k1])
		}
	}
}

// dotPrefix4 computes x·y for four y streams in one pass over x (5 loads
// per 4 multiply-adds). Uses a 2-way accumulator pattern per output, which
// differs in rounding from dotPrefix — fine for the trailing update, where
// every element is produced by exactly this kernel (or the dotPrefix tail)
// independent of worker count.
//
//sdpvet:hotpath
func dotPrefix4(x, y0, y1, y2, y3 []float64) (float64, float64, float64, float64) {
	n := len(x)
	y0 = y0[:n]
	y1 = y1[:n]
	y2 = y2[:n]
	y3 = y3[:n]
	var a0, a1, b0, b1, c0, c1, d0, d1 float64
	k := 0
	for ; k+2 <= n; k += 2 {
		x0, x1 := x[k], x[k+1]
		a0 += x0 * y0[k]
		a1 += x1 * y0[k+1]
		b0 += x0 * y1[k]
		b1 += x1 * y1[k+1]
		c0 += x0 * y2[k]
		c1 += x1 * y2[k+1]
		d0 += x0 * y3[k]
		d1 += x1 * y3[k+1]
	}
	for ; k < n; k++ {
		x0 := x[k]
		a0 += x0 * y0[k]
		b0 += x0 * y1[k]
		c0 += x0 * y2[k]
		d0 += x0 * y3[k]
	}
	return a0 + a1, b0 + b1, c0 + c1, d0 + d1
}

// dotPrefix is a 4-way unrolled dot product over equal-length slices — the
// innermost loop of the blocked factorization and the triangular solves,
// which dominates the interior-point solver's profile.
//
//sdpvet:hotpath
func dotPrefix(x, y []float64) float64 {
	n := len(x)
	y = y[:n]
	var s0, s1, s2, s3 float64
	k := 0
	for ; k+4 <= n; k += 4 {
		s0 += x[k] * y[k]
		s1 += x[k+1] * y[k+1]
		s2 += x[k+2] * y[k+2]
		s3 += x[k+3] * y[k+3]
	}
	for ; k < n; k++ {
		s0 += x[k] * y[k]
	}
	return s0 + s1 + s2 + s3
}

// dotPrefix2 computes x·y and x·z in one pass over x. Dot products are
// load-limited, so sharing the x stream across two outputs (3 loads per 2
// multiply-adds instead of 4) is worth ~30% on the blocked kernels. Each
// output uses exactly the accumulator pattern of dotPrefix, so results are
// bitwise identical to two separate dotPrefix calls — with x in either
// argument position, since x[k]·y[k] and y[k]·x[k] round identically.
//
//sdpvet:hotpath
func dotPrefix2(x, y, z []float64) (float64, float64) {
	n := len(x)
	y = y[:n]
	z = z[:n]
	var s0, s1, s2, s3 float64
	var t0, t1, t2, t3 float64
	k := 0
	for ; k+4 <= n; k += 4 {
		x0, x1, x2, x3 := x[k], x[k+1], x[k+2], x[k+3]
		s0 += x0 * y[k]
		s1 += x1 * y[k+1]
		s2 += x2 * y[k+2]
		s3 += x3 * y[k+3]
		t0 += x0 * z[k]
		t1 += x1 * z[k+1]
		t2 += x2 * z[k+2]
		t3 += x3 * z[k+3]
	}
	for ; k < n; k++ {
		s0 += x[k] * y[k]
		t0 += x[k] * z[k]
	}
	return s0 + s1 + s2 + s3, t0 + t1 + t2 + t3
}

// ensureLT materializes Lᵀ so backward substitution reads contiguous rows
// instead of striding down columns — the access pattern that made the old
// column-at-a-time Inverse memory-bound. Built at most once per
// factorization, reusing the buffer on recycled workspaces.
func (c *Cholesky) ensureLT() {
	if c.ltOK {
		return
	}
	n := c.L.Rows
	if c.lt == nil || c.lt.Rows != n {
		c.lt = NewDense(n, n)
	}
	c.L.TransposeInto(c.lt)
	c.ltOK = true
}

// SolveVec solves A x = b in place using the factorization (forward then
// backward substitution). b is overwritten with the solution and returned.
//
//sdpvet:hotpath
func (c *Cholesky) SolveVec(b []float64) []float64 {
	n := c.L.Rows
	if len(b) != n {
		panic("linalg: Cholesky SolveVec dimension mismatch")
	}
	// Forward: L y = b.
	for i := 0; i < n; i++ {
		row := c.L.Row(i)
		b[i] = (b[i] - dotPrefix(row[:i], b[:i])) / row[i]
	}
	// Backward: Lᵀ x = y (column access; strided, so no unrolled kernel).
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for k := i + 1; k < n; k++ {
			s -= c.L.At(k, i) * b[k]
		}
		b[i] = s / c.L.At(i, i)
	}
	return b
}

// ForwardSolveRows treats every row of m as an independent right-hand side
// and solves L y = row in place, rows split across the worker pool. Each
// row's substitution is a fixed sequence of contiguous dots, so the result
// is bitwise identical for every worker count.
//
//sdpvet:hotpath
func (c *Cholesky) ForwardSolveRows(m *Dense, workers int) {
	n := c.L.Rows
	if m.Cols != n {
		panic("linalg: Cholesky ForwardSolveRows dimension mismatch")
	}
	if c.fwdFn == nil {
		c.fwdFn = c.fwdRows //sdpvet:ignore hotalloc bound once per workspace lifetime behind the nil guard; steady-state calls allocate nothing
	}
	c.rsM = m
	if workers > 1 && m.Rows*n*n >= minParFlops {
		parallel.For(workers, m.Rows, 1, c.fwdFn)
	} else {
		c.fwdFn(0, m.Rows)
	}
	c.rsM = nil
}

// SolveRows applies A⁻¹ to every row of m in place (forward then backward
// substitution per row, both over contiguous storage), rows split across
// the worker pool. Bitwise identical for every worker count.
//
//sdpvet:hotpath
func (c *Cholesky) SolveRows(m *Dense, workers int) {
	n := c.L.Rows
	if m.Cols != n {
		panic("linalg: Cholesky SolveRows dimension mismatch")
	}
	c.ensureLT()
	if c.bothFn == nil {
		c.bothFn = c.bothRows //sdpvet:ignore hotalloc bound once per workspace lifetime behind the nil guard; steady-state calls allocate nothing
	}
	c.rsM = m
	if workers > 1 && m.Rows*n*n >= minParFlops {
		parallel.For(workers, m.Rows, 1, c.bothFn)
	} else {
		c.bothFn(0, m.Rows)
	}
	c.rsM = nil
}

// Both row-solve kernels process right-hand sides in pairs sharing the
// factor-row stream (dotPrefix2); each element's substitution is unchanged,
// so pairing does not perturb a single bit of the result — regardless of
// where a chunk boundary makes a pair start.

//sdpvet:hotpath
func (c *Cholesky) fwdRows(lo, hi int) {
	l, m := c.L, c.rsM
	n := l.Rows
	r := lo
	for ; r+1 < hi; r += 2 {
		x, y := m.Row(r), m.Row(r+1)
		for i := 0; i < n; i++ {
			lrow := l.Row(i)
			a, b := dotPrefix2(lrow[:i], x[:i], y[:i])
			x[i] = (x[i] - a) / lrow[i]
			y[i] = (y[i] - b) / lrow[i]
		}
	}
	for ; r < hi; r++ {
		x := m.Row(r)
		for i := 0; i < n; i++ {
			lrow := l.Row(i)
			x[i] = (x[i] - dotPrefix(lrow[:i], x[:i])) / lrow[i]
		}
	}
}

//sdpvet:hotpath
func (c *Cholesky) bothRows(lo, hi int) {
	l, lt, m := c.L, c.lt, c.rsM
	n := l.Rows
	r := lo
	for ; r+1 < hi; r += 2 {
		x, y := m.Row(r), m.Row(r+1)
		for i := 0; i < n; i++ {
			lrow := l.Row(i)
			a, b := dotPrefix2(lrow[:i], x[:i], y[:i])
			x[i] = (x[i] - a) / lrow[i]
			y[i] = (y[i] - b) / lrow[i]
		}
		for i := n - 1; i >= 0; i-- {
			ltrow := lt.Row(i)
			a, b := dotPrefix2(ltrow[i+1:], x[i+1:], y[i+1:])
			x[i] = (x[i] - a) / ltrow[i]
			y[i] = (y[i] - b) / ltrow[i]
		}
	}
	for ; r < hi; r++ {
		x := m.Row(r)
		for i := 0; i < n; i++ {
			lrow := l.Row(i)
			x[i] = (x[i] - dotPrefix(lrow[:i], x[:i])) / lrow[i]
		}
		for i := n - 1; i >= 0; i-- {
			ltrow := lt.Row(i)
			x[i] = (x[i] - dotPrefix(ltrow[i+1:], x[i+1:])) / ltrow[i]
		}
	}
}

// Solve solves A X = B for a matrix right-hand side, returning X. The
// columns of B are solved as contiguous rows of Bᵀ (see SolveRows) and
// transposed back.
func (c *Cholesky) Solve(b *Dense) *Dense {
	return c.SolveP(b, 1)
}

// SolveP solves A X = B with the right-hand-side columns swept in parallel
// over the worker pool. Bitwise identical to Solve for every worker count.
func (c *Cholesky) SolveP(b *Dense, workers int) *Dense {
	n := c.L.Rows
	if b.Rows != n {
		panic("linalg: Cholesky Solve dimension mismatch")
	}
	xt := b.T()
	c.SolveRows(xt, workers)
	return xt.T()
}

// Inverse returns A⁻¹ computed from the factorization.
func (c *Cholesky) Inverse() *Dense {
	return c.InverseP(1)
}

// InverseP is Inverse with the right-hand sides solved in parallel.
func (c *Cholesky) InverseP(workers int) *Dense {
	out := NewDense(c.L.Rows, c.L.Rows)
	c.InverseInto(out, workers)
	return out
}

// InverseInto writes A⁻¹ into dst. Row j of dst is solved in place from the
// j-th unit vector; since A⁻¹ is symmetric, no final transpose is needed
// (the result is symmetric to round-off; callers needing exact symmetry
// should Symmetrize, as the IPM does).
func (c *Cholesky) InverseInto(dst *Dense, workers int) {
	n := c.L.Rows
	if dst.Rows != n || dst.Cols != n {
		panic("linalg: Cholesky InverseInto dimension mismatch")
	}
	dst.Zero()
	for i := 0; i < n; i++ {
		dst.Data[i*n+i] = 1
	}
	c.SolveRows(dst, workers)
}

// LogDet returns log det(A) = 2 Σ log Lᵢᵢ.
func (c *Cholesky) LogDet() float64 {
	s := 0.0
	for i := 0; i < c.L.Rows; i++ {
		s += math.Log(c.L.At(i, i))
	}
	return 2 * s
}

// SolveLowerVec solves L x = b in place (forward substitution only).
func (c *Cholesky) SolveLowerVec(b []float64) []float64 {
	n := c.L.Rows
	for i := 0; i < n; i++ {
		row := c.L.Row(i)
		s := b[i]
		for k := 0; k < i; k++ {
			s -= row[k] * b[k]
		}
		b[i] = s / row[i]
	}
	return b
}

// SolveLowerTVec solves Lᵀ x = b in place (backward substitution only).
func (c *Cholesky) SolveLowerTVec(b []float64) []float64 {
	n := c.L.Rows
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for k := i + 1; k < n; k++ {
			s -= c.L.At(k, i) * b[k]
		}
		b[i] = s / c.L.At(i, i)
	}
	return b
}

// IsPosDef reports whether the symmetric matrix a is numerically positive
// definite, by attempting a Cholesky factorization.
func IsPosDef(a *Dense) bool {
	_, err := NewCholesky(a)
	return err == nil
}

// IsPosDefP is IsPosDef on the parallel factorization.
func IsPosDefP(a *Dense, workers int) bool {
	_, err := NewCholeskyP(a, workers)
	return err == nil
}
