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
// not strictly positive. The blocked factorization's panel solve and
// trailing update split across the worker pool; chunk boundaries depend only
// on the sizes, writes are element-disjoint, and each element's accumulation
// order (panel by panel, sequential dot within a panel) never changes — so
// the factor is bitwise identical for every worker count.
func NewCholesky(a *Dense, workers int) (*Cholesky, error) {
	var w CholWork
	return w.Factor(a, workers)
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
// the pivot-row stream (dotPrefix2), and where the CPU has AVX the panel
// solve and the trailing update take them in fours (panelBlock,
// trailTiles); every element keeps its accumulation pattern, so the
// grouping does not change a bit of the factor.
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
// freshly factorized diagonal block: four rows per AVX kernel call where
// the CPU has AVX, then two rows per pass over the pivot rows. Every
// element keeps its dotPrefix accumulation, so the grouping does not
// change a bit.
//
//sdpvet:hotpath
func (c *Cholesky) panelRows(lo, hi int) {
	l, k0, k1 := c.L, c.k0, c.k1
	i := k1 + lo
	if useAVX {
		for ; i+3 < k1+hi; i += 4 {
			panelBlock(l, i, k0, k1)
		}
	}
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
// Row i takes its columns four at a time over the shared pi stream
// (dotPrefix4's two-lane rounding) while four fit, then one at a time
// (dotPrefix's), so (i, j) is two-lane iff j−k1 < 4⌊(i−k1+1)/4⌋. That
// rule fixes each element's rounding independent of the chunking, so the
// update is bitwise identical for every worker count.
//
// Where the CPU has AVX, the rows go in blocks of four. A block starting
// at chunk row r shares its first t = 4⌊(r+1)/4⌋ columns, two-lane in all
// four rows; the 4×4 tile kernel computes them, and each row finishes
// from column k1+t as before.
//
//sdpvet:hotpath
func (c *Cholesky) trailRows(lo, hi int) {
	r := lo
	if useAVX {
		for ; r+4 <= hi; r += 4 {
			t := (r + 1) &^ 3
			if t > 0 {
				trailTiles(c.L, c.k1+r, c.k0, c.k1, t)
			}
			for q := r; q < r+4; q++ {
				c.trailRow(q, t)
			}
		}
	}
	for ; r < hi; r++ {
		c.trailRow(r, 0)
	}
}

// trailRow updates row k1+r of the trailing block over columns
// [k1+from, k1+r], from a multiple of 4: four columns per dotPrefix4 call
// while four fit, then one per dotPrefix call.
//
//sdpvet:hotpath
func (c *Cholesky) trailRow(r, from int) {
	l, k0, k1 := c.L, c.k0, c.k1
	i := k1 + r
	lrowi := l.Row(i)
	pi := lrowi[k0:k1]
	j := k1 + from
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

// dotPrefix4Go computes x·y for four y streams in one pass over x (5 loads
// per 4 multiply-adds): the scalar reference for dotPrefix4 and its only
// implementation outside amd64 and under -race. Each output keeps two
// accumulators, even k in a0 and odd k in a1, an odd tail goes into a0, and
// the result is a0 + a1. That rounds differently from dotPrefix, which is
// fine for the trailing update: every element of it comes from this
// pattern (or the dotPrefix tail) independent of worker count, and the
// packed amd64 kernel and the AVX tile kernel reproduce the pattern bit
// for bit (dot_amd64.s).
//
//sdpvet:hotpath
func dotPrefix4Go(x, y0, y1, y2, y3 []float64) (float64, float64, float64, float64) {
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

// dotPrefix2Go computes x·y and x·z in one pass over x: the scalar
// reference for dotPrefix2 and its only implementation outside amd64 and
// under -race. Dot products are load-limited, so sharing the x stream
// across two outputs (3 loads per 2 multiply-adds instead of 4) is worth
// ~30% on the blocked kernels. Each output uses exactly the accumulator
// pattern of dotPrefix, so results are bitwise identical to two separate
// dotPrefix calls — with x in either argument position, since x[k]·y[k]
// and y[k]·x[k] round identically.
//
//sdpvet:hotpath
func dotPrefix2Go(x, y, z []float64) (float64, float64) {
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
