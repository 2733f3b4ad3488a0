//go:build amd64 && !race

package linalg

// dotPrefix4 computes x·y for four y streams in one pass over x, with the
// rounding of dotPrefix4Go. It runs the packed SSE2 kernel, whose two
// lanes per output are dotPrefix4Go's even and odd accumulators.
//
//sdpvet:hotpath
func dotPrefix4(x, y0, y1, y2, y3 []float64) (float64, float64, float64, float64) {
	return dotPrefix4SSE2(x, y0[:len(x)], y1[:len(x)], y2[:len(x)], y3[:len(x)])
}

// dotPrefix2 computes x·y and x·z in one pass over x, with the rounding of
// dotPrefix2Go (and so of two dotPrefix calls). It runs the packed SSE2
// kernel, whose two registers per output hold dotPrefix's accumulators
// (s0, s1) and (s2, s3).
//
//sdpvet:hotpath
func dotPrefix2(x, y, z []float64) (float64, float64) {
	return dotPrefix2SSE2(x, y[:len(x)], z[:len(x)])
}

// dotPrefix4SSE2 and dotPrefix2SSE2 are implemented in dot_amd64.s. They
// read len(x) elements of every stream; the callers above reslice the
// streams to that length first, so an index out of range panics in Go.

//go:noescape
func dotPrefix4SSE2(x, y0, y1, y2, y3 []float64) (a, b, c, d float64)

//go:noescape
func dotPrefix2SSE2(x, y, z []float64) (s, t float64)

// useAVX selects the register-tiled AVX kernels for the Cholesky's panel
// solve and trailing update. It is read from the CPU once; no setting
// changes it, and both paths give the same bits, so a factor does not
// depend on whether the CPU has AVX. Tests clear it to run the portable
// path.
var useAVX = cpuHasAVX()

// trailTiles subtracts from rows i..i+3 of l, over columns [k1, k1+cols),
// the dots of their panel columns [k0, k1) with those of rows
// k1..k1+cols−1, each rounded as dotPrefix4Go. cols is a multiple of 4 and
// i+3 < l.Rows.
//
//sdpvet:hotpath
func trailTiles(l *Dense, i, k0, k1, cols int) {
	n := l.Cols
	rows := l.Data[i*n+k0 : (i+3)*n+k1+cols]
	pan := l.Data[k1*n+k0 : (k1+cols-1)*n+k1]
	if !useAVX {
		panic("linalg: AVX kernel called on a CPU without AVX")
	}
	trailTilesAVX(rows, pan, n, k1-k0, cols)
}

// panelBlock solves rows i..i+3 of l over the panel columns [k0, k1)
// against the factorized diagonal block l[k0:k1, k0:k1], each element
// rounded as panelRows rounds it. i+3 < l.Rows.
//
//sdpvet:hotpath
func panelBlock(l *Dense, i, k0, k1 int) {
	n := l.Cols
	rows := l.Data[i*n+k0 : (i+3)*n+k1]
	diag := l.Data[k0*n+k0 : (k1-1)*n+k1]
	if !useAVX {
		panic("linalg: AVX kernel called on a CPU without AVX")
	}
	panelBlockAVX(rows, diag, n, k1-k0)
}

// cpuHasAVX, trailTilesAVX and panelBlockAVX are implemented in
// dot_amd64.s. The kernels read and write only inside the slices the
// wrappers above cut, given the stride n, so an index out of range panics
// in Go before any assembly runs.

func cpuHasAVX() bool

//go:noescape
func trailTilesAVX(rows, pan []float64, stride, nb, cols int)

//go:noescape
func panelBlockAVX(rows, diag []float64, stride, nb int)
