//go:build !amd64 || race

package netlist

import "math"

// Without the assembly kernels (other architectures, and -race builds,
// whose detector does not see loads and stores made in assembly) every
// element goes through math.Exp and math.Log.

// expInto sets dst[i] = math.Exp(x[i]) for every i < len(x); dst may be x.
//
//sdpvet:hotpath
func expInto(dst, x []float64) {
	dst = dst[:len(x)]
	for i, v := range x {
		dst[i] = math.Exp(v)
	}
}

// logInto sets dst[i] = math.Log(x[i]) for every i < len(x); dst may be x.
//
//sdpvet:hotpath
func logInto(dst, x []float64) {
	dst = dst[:len(x)]
	for i, v := range x {
		dst[i] = math.Log(v)
	}
}
