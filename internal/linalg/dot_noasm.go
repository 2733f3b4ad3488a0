//go:build !amd64 || race

package linalg

// Without the assembly kernels (other architectures, and -race builds,
// whose detector does not see loads made in assembly) the scalar
// references are the kernels, and the Cholesky takes no AVX path.

//sdpvet:hotpath
func dotPrefix4(x, y0, y1, y2, y3 []float64) (float64, float64, float64, float64) {
	return dotPrefix4Go(x, y0, y1, y2, y3)
}

//sdpvet:hotpath
func dotPrefix2(x, y, z []float64) (float64, float64) {
	return dotPrefix2Go(x, y, z)
}

// useAVX is false without the assembly kernels, so the Cholesky never
// calls the stubs below.
const useAVX = false

func trailTiles(l *Dense, i, k0, k1, cols int) { panic("linalg: no AVX kernels in this build") }

func panelBlock(l *Dense, i, k0, k1 int) { panic("linalg: no AVX kernels in this build") }
