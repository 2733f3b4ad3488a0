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
