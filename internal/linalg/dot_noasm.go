//go:build !amd64 || race

package linalg

// Without packed kernels (other architectures, and -race builds, whose
// detector does not see loads made in assembly) the scalar references are
// the kernels.

//sdpvet:hotpath
func dotPrefix4(x, y0, y1, y2, y3 []float64) (float64, float64, float64, float64) {
	return dotPrefix4Go(x, y0, y1, y2, y3)
}

//sdpvet:hotpath
func dotPrefix2(x, y, z []float64) (float64, float64) {
	return dotPrefix2Go(x, y, z)
}
