package linalg

import (
	"errors"
	"math"

	"sdpfloor/internal/parallel"
)

// ErrNoConvergence is returned when an iterative factorization fails to
// converge within its iteration budget.
var ErrNoConvergence = errors.New("linalg: eigendecomposition did not converge")

// SymEig holds the eigendecomposition of a real symmetric matrix:
// A = V diag(Values) Vᵀ, with eigenvalues sorted ascending and the columns of
// V the corresponding orthonormal eigenvectors.
type SymEig struct {
	Values []float64
	V      *Dense // column j is the eigenvector for Values[j]
}

// NewSymEig computes the full eigendecomposition of the symmetric matrix a
// using Householder tridiagonalization followed by the implicit-shift QL
// algorithm. Only the lower triangle of a is referenced (the matrix is
// symmetrized internally). Complexity O(n³).
func NewSymEig(a *Dense) (*SymEig, error) {
	return NewSymEigP(a, 1)
}

// NewSymEigP is NewSymEig with the independent column updates of the
// Householder reduction and its transform accumulation split across the
// worker pool. The tridiagonal QL phase stays sequential (its rotations are
// order-dependent and too fine-grained to fork), and every parallelized loop
// preserves the per-element operation order, so the decomposition is bitwise
// identical to NewSymEig for every worker count.
func NewSymEigP(a *Dense, workers int) (*SymEig, error) {
	w := &EigWork{}
	eg, err := w.Factor(a, workers)
	if err != nil {
		return nil, err
	}
	// The view aliases w's buffers; w goes out of scope here, so the caller
	// owns them.
	return eg, nil
}

// EigWork is a reusable eigendecomposition workspace: the tridiagonal
// vectors, sort permutation, and low-rank reconstruction buffers are
// recycled across Factor and MinEigenvalue calls, and the parallel dispatch
// closures are bound once — so repeated same-sized decompositions (the ADMM
// projection loop) and smallest-eigenvalue queries (the IPM step lengths)
// allocate nothing after the first call. Not safe for concurrent use.
type EigWork struct {
	eig  SymEig
	v    *Dense
	d, e []float64

	// sort scratch
	idx []int
	dd  []float64
	vv  *Dense

	// low-rank reconstruction scratch (applyFnInto)
	cols       []int
	scaled     []float64
	wbuf, ubuf []float64
	wm, um     Dense
	mm         MatMulWork

	// dispatch state for the Householder phase
	workers         int
	i               int
	updateFn, accFn func(lo, hi int)
}

func (w *EigWork) ensure(n int) {
	if w.updateFn == nil {
		// Column j of the rank-2 update costs i−j: ForTri balances on the
		// reversed index, so map its [lo, hi) back through i.
		w.updateFn = func(lo, hi int) { w.update(w.i-hi, w.i-lo) }
		w.accFn = func(lo, hi int) { w.acc(lo, hi) }
	}
	if w.v != nil && w.v.Rows == n {
		return
	}
	w.v = NewDense(n, n)
	w.vv = NewDense(n, n)
	w.d = make([]float64, n)
	w.e = make([]float64, n)
	w.dd = make([]float64, n)
	w.idx = make([]int, n)
	w.cols = make([]int, n)
	w.scaled = make([]float64, n)
	w.wbuf = make([]float64, n*n)
	w.ubuf = make([]float64, n*n)
}

// dim returns the dimension the workspace is currently sized for.
func (w *EigWork) dim() int {
	if w.v == nil {
		return 0
	}
	return w.v.Rows
}

// Factor decomposes the symmetric matrix a (only the lower triangle is
// read; the input is symmetrized into the workspace) and returns a view of
// the result. The view — Values, V, and anything reconstructed from them —
// is invalidated by the next Factor call on the same workspace.
func (w *EigWork) Factor(a *Dense, workers int) (*SymEig, error) {
	if a.Rows != a.Cols {
		panic("linalg: SymEig of non-square matrix")
	}
	if a.Rows == 0 {
		w.eig = SymEig{Values: nil, V: NewDense(0, 0)}
		return &w.eig, nil
	}
	if err := w.decompose(a, workers, true); err != nil {
		return nil, err
	}
	w.sortEig()
	w.eig = SymEig{Values: w.d, V: w.v}
	return &w.eig, nil
}

// MinEigenvalue returns the smallest eigenvalue of the symmetric matrix a
// (read as Factor reads it) without the eigenvectors: the Householder
// reduction skips the transform accumulation and the QL iteration skips the
// vector rotations, neither of which feeds the eigenvalues. The result and
// the error are bitwise those of Factor(a, workers) followed by
// MinEigenvalue, NaN input included. It invalidates any view returned by an
// earlier Factor on the same workspace. a must be non-empty.
//
//sdpvet:hotpath
func (w *EigWork) MinEigenvalue(a *Dense, workers int) (float64, error) {
	if a.Rows != a.Cols {
		panic("linalg: SymEig of non-square matrix")
	}
	if a.Rows == 0 {
		panic("linalg: MinEigenvalue of an empty matrix")
	}
	w.eig = SymEig{}
	if err := w.decompose(a, workers, false); err != nil {
		return 0, err
	}
	w.sortIdx()
	return w.d[w.idx[0]], nil
}

// decompose runs the tridiagonal reduction and the QL iteration on a,
// leaving the unsorted eigenvalues in w.d and, when vectors is set, the
// eigenvectors in the columns of w.v.
//
//sdpvet:hotpath
func (w *EigWork) decompose(a *Dense, workers int, vectors bool) error {
	w.ensure(a.Rows)
	w.workers = workers
	w.v.CopyFrom(a)
	w.v.Symmetrize()
	w.tred2(vectors)
	if !vectors {
		return tql2(nil, w.d, w.e)
	}
	return tql2(w.v, w.d, w.e)
}

// eigParGrain is the approximate per-step flop count below which the tred2
// column loops run sequentially (the steps shrink as the reduction
// progresses, so each i decides independently).
const eigParGrain = 16384

// tred2 reduces the symmetric matrix stored in w.v to tridiagonal form using
// Householder transformations and, when vectors is set, accumulates the
// orthogonal transform in v. On return w.d holds the diagonal and w.e the
// subdiagonal (e[0] == 0); the accumulation reads d and e but never writes
// them, so both are the same with or without it. This is the classic
// Bowdler–Martin–Reinsch–Wilkinson procedure. The similarity rank-2 update
// and the transform accumulation are parallelized over their independent
// columns; everything with cross-column coupling (the e-vector
// accumulation) stays sequential.
//
//sdpvet:hotpath
func (w *EigWork) tred2(vectors bool) {
	v, d, e, workers := w.v, w.d, w.e, w.workers
	n := v.Rows
	for j := 0; j < n; j++ {
		d[j] = v.At(n-1, j)
	}
	for i := n - 1; i > 0; i-- {
		scale, h := 0.0, 0.0
		for k := 0; k < i; k++ {
			scale += math.Abs(d[k])
		}
		if scale == 0 {
			e[i] = d[i-1]
			for j := 0; j < i; j++ {
				d[j] = v.At(i-1, j)
				v.Set(i, j, 0)
				v.Set(j, i, 0)
			}
		} else {
			for k := 0; k < i; k++ {
				d[k] /= scale
				h += d[k] * d[k]
			}
			f := d[i-1]
			g := math.Sqrt(h)
			if f > 0 {
				g = -g
			}
			e[i] = scale * g
			h -= f * g
			d[i-1] = f - g
			for j := 0; j < i; j++ {
				e[j] = 0
			}
			for j := 0; j < i; j++ {
				f = d[j]
				v.Set(j, i, f)
				g = e[j] + v.At(j, j)*f
				for k := j + 1; k <= i-1; k++ {
					g += v.At(k, j) * d[k]
					e[k] += v.At(k, j) * f
				}
				e[j] = g
			}
			f = 0
			for j := 0; j < i; j++ {
				e[j] /= h
				f += e[j] * d[j]
			}
			hh := f / (h + h)
			for j := 0; j < i; j++ {
				e[j] -= hh * d[j]
			}
			// Rank-2 similarity update: column j reads only d and e and
			// writes rows j…i−1 of column j, so columns are independent. The
			// d[j] rewrite stays in the sequential epilogue — inside the
			// parallel loop it would race with other columns' d[k] reads.
			w.i = i
			if workers <= 1 || i*i/2 < eigParGrain {
				w.update(0, i)
			} else {
				parallel.ForTri(workers, i, 0, w.updateFn)
			}
			for j := 0; j < i; j++ {
				d[j] = v.At(i-1, j)
				v.Set(i, j, 0)
			}
		}
		d[i] = h
	}
	if !vectors {
		// The diagonal the accumulation would park in row n−1 and copy
		// back into d below.
		for j := 0; j < n; j++ {
			d[j] = v.At(j, j)
		}
		e[0] = 0
		return
	}
	// Accumulate transformations.
	for i := 0; i < n-1; i++ {
		v.Set(n-1, i, v.At(i, i))
		v.Set(i, i, 1)
		h := d[i+1]
		if h != 0 {
			for k := 0; k <= i; k++ {
				d[k] = v.At(k, i+1) / h
			}
			// Accumulation: column j reads column i+1 and d, writes rows
			// 0…i of column j (j ≤ i), so columns are independent and the
			// per-column cost is uniform.
			w.i = i
			if workers <= 1 || (i+1)*(i+1) < eigParGrain {
				w.acc(0, i+1)
			} else {
				parallel.For(workers, i+1, 1, w.accFn)
			}
		}
		for k := 0; k <= i; k++ {
			v.Set(k, i+1, 0)
		}
	}
	for j := 0; j < n; j++ {
		d[j] = v.At(n-1, j)
		v.Set(n-1, j, 0)
	}
	v.Set(n-1, n-1, 1)
	e[0] = 0
}

// update applies the rank-2 similarity update to columns [lo, hi) of the
// current Householder step w.i.
func (w *EigWork) update(lo, hi int) {
	v, d, e, i := w.v, w.d, w.e, w.i
	for j := lo; j < hi; j++ {
		fj := d[j]
		gj := e[j]
		for k := j; k <= i-1; k++ {
			v.Add(k, j, -(fj*e[k] + gj*d[k]))
		}
	}
}

// acc accumulates the transform for columns [lo, hi) of step w.i.
func (w *EigWork) acc(lo, hi int) {
	v, d, i := w.v, w.d, w.i
	for j := lo; j < hi; j++ {
		g := 0.0
		for k := 0; k <= i; k++ {
			g += v.At(k, i+1) * v.At(k, j)
		}
		for k := 0; k <= i; k++ {
			v.Add(k, j, -g*d[k])
		}
	}
}

// sortEig sorts eigenvalues ascending and permutes the eigenvector columns
// to match.
func (w *EigWork) sortEig() {
	v, d, idx := w.v, w.d, w.idx
	n := len(d)
	w.sortIdx()
	for j := 0; j < n; j++ {
		src := idx[j]
		w.dd[j] = d[src]
		for k := 0; k < n; k++ {
			w.vv.Set(k, j, v.At(k, src))
		}
	}
	copy(d, w.dd)
	v.CopyFrom(w.vv)
}

// sortIdx orders the persistent permutation w.idx so that w.d[w.idx[·]]
// ascends: a stable insertion sort (the decomposition is O(n³), the sort is
// noise, and unlike sort.Slice it allocates nothing). Its comparison also
// decides where NaN eigenvalues land, so Factor and MinEigenvalue share it.
//
//sdpvet:hotpath
func (w *EigWork) sortIdx() {
	d, idx := w.d, w.idx
	n := len(d)
	for i := range idx {
		idx[i] = i
	}
	for i := 1; i < n; i++ {
		id := idx[i]
		key := d[id]
		j := i - 1
		for j >= 0 && d[idx[j]] > key {
			idx[j+1] = idx[j]
			j--
		}
		idx[j+1] = id
	}
}

// tql2 diagonalizes the symmetric tridiagonal matrix (d, e) with the
// implicit-shift QL algorithm, applying the rotations to the columns of v.
// A nil v skips the rotations; d and e never depend on them.
//
//sdpvet:hotpath
func tql2(v *Dense, d, e []float64) error {
	n := len(d)
	for i := 1; i < n; i++ {
		e[i-1] = e[i]
	}
	e[n-1] = 0

	f, tst1 := 0.0, 0.0
	const eps = 1.0 / (1 << 52)
	for l := 0; l < n; l++ {
		if t := math.Abs(d[l]) + math.Abs(e[l]); t > tst1 {
			tst1 = t
		}
		m := l
		for m < n && math.Abs(e[m]) > eps*tst1 {
			m++
		}
		if m > l {
			for iter := 0; ; iter++ {
				if iter > 50 {
					return ErrNoConvergence
				}
				// Compute implicit shift.
				g := d[l]
				p := (d[l+1] - g) / (2 * e[l])
				r := math.Hypot(p, 1)
				if p < 0 {
					r = -r
				}
				d[l] = e[l] / (p + r)
				d[l+1] = e[l] * (p + r)
				dl1 := d[l+1]
				h := g - d[l]
				for i := l + 2; i < n; i++ {
					d[i] -= h
				}
				f += h
				// Implicit QL step.
				p = d[m]
				c, c2, c3 := 1.0, 1.0, 1.0
				el1 := e[l+1]
				s, s2 := 0.0, 0.0
				for i := m - 1; i >= l; i-- {
					c3 = c2
					c2 = c
					s2 = s
					g = c * e[i]
					h = c * p
					r = math.Hypot(p, e[i])
					e[i+1] = s * r
					s = e[i] / r
					c = p / r
					p = c*d[i] - s*g
					d[i+1] = h + s*(c*g+s*d[i])
					if v == nil {
						continue
					}
					for k := 0; k < n; k++ {
						h = v.At(k, i+1)
						v.Set(k, i+1, s*v.At(k, i)+c*h)
						v.Set(k, i, c*v.At(k, i)-s*h)
					}
				}
				p = -s * s2 * c3 * el1 * e[l] / dl1
				e[l] = s * p
				d[l] = c * p
				if math.Abs(e[l]) <= eps*tst1 {
					break
				}
			}
		}
		d[l] += f
		e[l] = 0
	}
	return nil
}

// ApplyFnInto writes V diag(f(Values)) Vᵀ for the workspace's current
// decomposition into dst, building the low-rank factors in the workspace's
// persistent buffers — the zero-allocation counterpart of applyFnP. dst
// must be n×n and must not alias the decomposition. Bitwise identical for
// every worker count.
func (w *EigWork) ApplyFnInto(dst *Dense, f func(float64) float64, workers int) {
	eg := &w.eig
	n := len(eg.Values)
	if dst.Rows != n || dst.Cols != n {
		panic("linalg: ApplyFnInto dimension mismatch")
	}
	cols := w.cols[:0]
	scaled := w.scaled[:0]
	for j := 0; j < n; j++ {
		if lj := f(eg.Values[j]); lj != 0 {
			cols = append(cols, j)
			scaled = append(scaled, lj)
		}
	}
	r := len(cols)
	if r == 0 {
		dst.Zero()
		return
	}
	w.wm = Dense{Rows: n, Cols: r, Data: w.wbuf[:n*r]}
	w.um = Dense{Rows: n, Cols: r, Data: w.ubuf[:n*r]}
	fillLowRank(&w.wm, &w.um, eg.V, cols, scaled)
	w.mm.MulABtInto(dst, &w.wm, &w.um, workers)
	dst.Symmetrize()
}

// PSDProjectInto writes the PSD-cone projection of the decomposed matrix
// into dst without allocating: negative eigenvalues are clipped at zero.
func (w *EigWork) PSDProjectInto(dst *Dense, workers int) {
	w.ApplyFnInto(dst, psdClip, workers)
}

// psdClip is the PSD projection spectrum map. Package-level so taking its
// value does not allocate.
func psdClip(x float64) float64 {
	if x < 0 {
		return 0
	}
	return x
}

// fillLowRank gathers the selected eigenvector columns into the n×r factor
// pair (wm scaled by f(λ), um raw).
func fillLowRank(wm, um, v *Dense, cols []int, scaled []float64) {
	n := v.Rows
	for i := 0; i < n; i++ {
		vrow := v.Row(i)
		wrow, urow := wm.Row(i), um.Row(i)
		for jj, j := range cols {
			urow[jj] = vrow[j]
			wrow[jj] = scaled[jj] * vrow[j]
		}
	}
}

// Reconstruct returns V diag(Values) Vᵀ — the matrix represented by the
// decomposition. Useful in tests and for PSD projections.
func (eg *SymEig) Reconstruct() *Dense {
	return eg.applyFn(func(x float64) float64 { return x })
}

// applyFn returns V diag(f(Values)) Vᵀ.
func (eg *SymEig) applyFn(f func(float64) float64) *Dense {
	return eg.applyFnP(f, 1)
}

// applyFnP computes V diag(f(Values)) Vᵀ as the product W Uᵀ of two n×r
// matrices holding only the columns with f(λ) ≠ 0 (W scaled by f(λ), U the
// raw eigenvectors), with the output rows split across the worker pool. Each
// output element is one sequential dot product, so the result is bitwise
// identical for every worker count.
func (eg *SymEig) applyFnP(f func(float64) float64, workers int) *Dense {
	n := len(eg.Values)
	out := NewDense(n, n)
	cols := make([]int, 0, n)
	scaled := make([]float64, 0, n)
	for j := 0; j < n; j++ {
		if lj := f(eg.Values[j]); lj != 0 {
			cols = append(cols, j)
			scaled = append(scaled, lj)
		}
	}
	r := len(cols)
	if r == 0 {
		return out
	}
	w := NewDense(n, r)
	u := NewDense(n, r)
	fillLowRank(w, u, eg.V, cols, scaled)
	MulABtIntoP(out, w, u, workers)
	out.Symmetrize()
	return out
}

// PSDProject returns the projection of the symmetric matrix onto the PSD
// cone: negative eigenvalues are clipped at zero.
func (eg *SymEig) PSDProject() *Dense {
	return eg.PSDProjectP(1)
}

// PSDProjectP is PSDProject with the reconstruction product parallelized
// over the worker pool.
func (eg *SymEig) PSDProjectP(workers int) *Dense {
	return eg.applyFnP(psdClip, workers)
}

// Sqrt returns the symmetric PSD square root A^{1/2}; eigenvalues below zero
// (numerical noise) are treated as zero.
func (eg *SymEig) Sqrt() *Dense {
	return eg.applyFn(func(x float64) float64 {
		if x <= 0 {
			return 0
		}
		return math.Sqrt(x)
	})
}

// InvSqrt returns A^{-1/2}; eigenvalues below floor are clamped to floor to
// keep the result finite on nearly singular input.
func (eg *SymEig) InvSqrt(floor float64) *Dense {
	return eg.applyFn(func(x float64) float64 {
		if x < floor {
			x = floor
		}
		return 1 / math.Sqrt(x)
	})
}

// MinEigenvalue returns the smallest eigenvalue.
func (eg *SymEig) MinEigenvalue() float64 { return eg.Values[0] }

// MaxEigenvalue returns the largest eigenvalue.
func (eg *SymEig) MaxEigenvalue() float64 { return eg.Values[len(eg.Values)-1] }

// NumericalRank returns the number of eigenvalues with |λ| > tol·max(1,|λ|max).
func (eg *SymEig) NumericalRank(tol float64) int {
	scale := math.Max(1, math.Abs(eg.MaxEigenvalue()))
	r := 0
	for _, l := range eg.Values {
		if math.Abs(l) > tol*scale {
			r++
		}
	}
	return r
}
