package linalg

import "sdpfloor/internal/parallel"

// minParFlops is the parallel kernels' grain: below this approximate flop
// count the fork/join cost outweighs the work and a kernel runs its
// sequential branch. All parallel kernels here split their output row or
// column space into fixed contiguous chunks with disjoint writes and an
// unchanged per-element operation order, so results are bitwise identical
// to the sequential branch for every worker count.
const minParFlops = 32768

// MulABt computes a·bᵀ into a new matrix: a is m×k, b is n×k, the result
// m×n with element (i, j) the dot product of row i of a and row j of b.
// Both operands stream row-major, so no transpose materializes. The output
// rows split across the worker pool; each element is one sequential dot
// product, so the result is bitwise identical for every worker count.
func MulABt(a, b *Dense, workers int) *Dense {
	out := NewDense(a.Rows, b.Rows)
	var w MatMulWork
	w.MulABtInto(out, a, b, workers)
	return out
}

// MatMulWork owns the dispatch state for zero-allocation parallel matrix
// products: the closure handed to the worker pool is bound once and reads the
// operand fields, so repeated products allocate nothing in the steady state.
// Results are bitwise identical to MatMul and MulABt. Not safe for
// concurrent use; each solver loop owns its own.
type MatMulWork struct {
	dst, a, b   *Dense
	mmFn, abtFn func(lo, hi int)
}

func (w *MatMulWork) bind() {
	if w.mmFn == nil {
		w.mmFn = func(lo, hi int) { matMulRows(w.dst, w.a, w.b, lo, hi) }
		w.abtFn = func(lo, hi int) { mulABtRows(w.dst, w.a, w.b, lo, hi) }
	}
}

// MatMulInto computes dst = a·b in parallel over row blocks through the
// recycled dispatch state. dst must not alias a or b. Bitwise identical to
// MatMul for every worker count.
//
//sdpvet:hotpath
func (w *MatMulWork) MatMulInto(dst, a, b *Dense, workers int) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic("linalg: MatMulInto dimension mismatch")
	}
	if workers <= 1 || a.Rows*a.Cols*b.Cols < minParFlops {
		matMulRows(dst, a, b, 0, a.Rows)
		return
	}
	w.bind()
	w.dst, w.a, w.b = dst, a, b
	parallel.For(workers, a.Rows, 1, w.mmFn)
	w.dst, w.a, w.b = nil, nil, nil
}

// MulABtInto computes dst = a·bᵀ in parallel over row blocks of dst
// through the recycled dispatch state. Bitwise identical for every worker
// count.
//
//sdpvet:hotpath
func (w *MatMulWork) MulABtInto(dst, a, b *Dense, workers int) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic("linalg: MulABtInto dimension mismatch")
	}
	if workers <= 1 || a.Rows*b.Rows*a.Cols < minParFlops {
		mulABtRows(dst, a, b, 0, a.Rows)
		return
	}
	w.bind()
	w.dst, w.a, w.b = dst, a, b
	parallel.For(workers, a.Rows, 1, w.abtFn)
	w.dst, w.a, w.b = nil, nil, nil
}

// mulABtRows computes rows [lo, hi) of dst = a·bᵀ, tiled over the rows of b
// so the active b panel stays L1-resident across consecutive rows of a.
// Each output element is still one sequential dot product, so the tiled
// kernel is bitwise identical to the untiled one.
//
//sdpvet:hotpath
func mulABtRows(dst, a, b *Dense, lo, hi int) {
	tile := mulTileCols(a.Cols) // rows of b per panel: same cache budget
	for j0 := 0; j0 < b.Rows; j0 += tile {
		j1 := j0 + tile
		if j1 > b.Rows {
			j1 = b.Rows
		}
		for i := lo; i < hi; i++ {
			arow := a.Row(i)
			drow := dst.Row(i)
			j := j0
			for ; j+1 < j1; j += 2 {
				drow[j], drow[j+1] = dotPrefix2(arow, b.Row(j), b.Row(j+1))
			}
			for ; j < j1; j++ {
				drow[j] = dotPrefix(arow, b.Row(j))
			}
		}
	}
}
