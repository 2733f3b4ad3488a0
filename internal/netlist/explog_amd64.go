//go:build amd64 && !race

package netlist

import "math"

// useExpLogAVX2 selects the packed AVX2 kernels of explog_amd64.s for
// expInto and logInto. It is set once: the CPU must report AVX2 and FMA
// with the OS saving the YMM state, and the kernels must reproduce
// math.Exp and math.Log bit for bit on expProbes and logProbes. The
// kernels copy the FMA branch of the standard library's amd64 math.Exp, so
// a math.Exp that takes its other branch (GODEBUG=cpu.fma=off) or a
// toolchain whose routines differ leaves the kernels off, and every
// element goes through math.Exp and math.Log.
var useExpLogAVX2 = cpuHasAVX2FMA() && kernelsMatchProbes()

// expProbes are inputs on which the kernels must match math.Exp before
// they are used. The first ones are arguments where math.Exp's non-FMA
// branch rounds differently from its FMA branch (TestExpKernelMatchesMath
// checks that they still are); the rest span the kernel's domain.
var expProbes = [...]float64{
	-27.375, 28.177734375, -12.17578125, 13.533203125, -7.8505859375, 39.1845703125,
	-700, 700, -1, 1, 0, -0.5, 1e-300, -3.5, 42.25, -699.75,
}

// logProbes span logAVX2's domain, with √2/2 exactly (the argument where
// the scalar routine's NLT comparison decides the branch), the smallest
// normal, the largest finite number, and 1.
var logProbes = [...]float64{
	0x1p-1022, math.MaxFloat64, 1, hSqrt2,
	math.Nextafter(hSqrt2, 1), math.Nextafter(hSqrt2, 0), 2, 0.1,
	3, 1e300, 1e-300, 12345.678,
}

// hSqrt2 is the scalar log routine's √2/2, 0x3fe6a09e667f3bcd.
const hSqrt2 = math.Sqrt2 / 2

// kernelsMatchProbes reports whether the kernels reproduce math.Exp and
// math.Log on the probes. It calls them, so it runs only where
// cpuHasAVX2FMA reported AVX2 and FMA.
func kernelsMatchProbes() bool {
	var got [len(expProbes)]float64
	if expAVX2(got[:], expProbes[:]) != len(expProbes) {
		return false
	}
	for i, x := range expProbes {
		if math.Float64bits(got[i]) != math.Float64bits(math.Exp(x)) {
			return false
		}
	}
	var gotLog [len(logProbes)]float64
	if logAVX2(gotLog[:], logProbes[:]) != len(logProbes) {
		return false
	}
	for i, x := range logProbes {
		if math.Float64bits(gotLog[i]) != math.Float64bits(math.Log(x)) {
			return false
		}
	}
	return true
}

// expInto sets dst[i] = math.Exp(x[i]) for every i < len(x), bit for bit;
// dst may be x. The kernel runs the blocks of four it can; the block it
// stops at and a tail of fewer than four go through math.Exp.
//
//sdpvet:hotpath
func expInto(dst, x []float64) {
	dst = dst[:len(x)]
	for i := 0; i < len(x); {
		if useExpLogAVX2 {
			i += expAVX2(dst[i:], x[i:])
		}
		for end := min(i+4, len(x)); i < end; i++ {
			dst[i] = math.Exp(x[i])
		}
	}
}

// logInto sets dst[i] = math.Log(x[i]) for every i < len(x), bit for bit,
// as expInto does for math.Exp; dst may be x.
//
//sdpvet:hotpath
func logInto(dst, x []float64) {
	dst = dst[:len(x)]
	for i := 0; i < len(x); {
		if useExpLogAVX2 {
			i += logAVX2(dst[i:], x[i:])
		}
		for end := min(i+4, len(x)); i < end; i++ {
			dst[i] = math.Log(x[i])
		}
	}
}

// cpuHasAVX2FMA, expAVX2 and logAVX2 are implemented in explog_amd64.s.
// The kernels write dst[0:n] for the n they return, n ≤ len(x) rounded
// down to a multiple of 4; the callers above cut dst to len(x) first, so
// a short dst panics in Go.

func cpuHasAVX2FMA() bool

//go:noescape
func expAVX2(dst, x []float64) int

//go:noescape
func logAVX2(dst, x []float64) int
