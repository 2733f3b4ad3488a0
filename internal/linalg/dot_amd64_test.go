//go:build amd64 && !race

package linalg

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// TestDotKernelsMatchScalar pins the packed SSE2 kernels to the scalar
// references bit for bit, at every length the assembly's loops and tails
// can see, with x both on and off a 16-byte boundary (the y streams take
// random offsets), and on inputs that stress rounding: mixed magnitudes,
// signed zeros, overflow, and non-finite values. NaN results compare by
// NaN-ness only, since a NaN's payload is not part of the contract.
func TestDotKernelsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	negZero := math.Copysign(0, -1)
	mixed := func() float64 { return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(13)-6)) }
	classes := []struct {
		name string
		draw func() float64
	}{
		{"mixed", mixed},
		{"someZeros", func() float64 {
			switch rng.Intn(4) {
			case 0:
				return 0
			case 1:
				return negZero
			}
			return mixed()
		}},
		{"allZeros", func() float64 {
			if rng.Intn(2) == 0 {
				return 0
			}
			return negZero
		}},
		{"nonFinite", func() float64 {
			switch rng.Intn(40) {
			case 0:
				return math.Inf(1)
			case 1:
				return math.Inf(-1)
			case 2:
				return math.NaN()
			}
			return mixed()
		}},
		{"overflow", func() float64 { return rng.NormFloat64() * 1e155 }},
	}
	// stream returns n drawn elements whose first one lies on a 16-byte
	// boundary when odd is false and 8 bytes past one when it is true.
	stream := func(n int, odd bool, draw func() float64) []float64 {
		buf := make([]float64, n+2)
		o := 0
		if (uintptr(unsafe.Pointer(&buf[0]))%16 != 0) != odd {
			o = 1
		}
		s := buf[o : o+n]
		for k := range s {
			s[k] = draw()
		}
		return s
	}
	for _, cl := range classes {
		for n := 0; n <= 130; n++ {
			for _, odd := range []bool{false, true} {
				x := stream(n, odd, cl.draw)
				var y [4][]float64
				for s := range y {
					y[s] = stream(n, rng.Intn(2) == 1, cl.draw)
				}
				check := func(kernel string, got, want []float64) {
					t.Helper()
					for s := range got {
						if math.IsNaN(want[s]) && math.IsNaN(got[s]) {
							continue
						}
						if math.Float64bits(got[s]) != math.Float64bits(want[s]) {
							t.Fatalf("%s n=%d odd=%v: %s output %d = %v (%#x), scalar %v (%#x)",
								cl.name, n, odd, kernel, s, got[s], math.Float64bits(got[s]), want[s], math.Float64bits(want[s]))
						}
					}
				}
				var w4, p4, d4 [4]float64
				w4[0], w4[1], w4[2], w4[3] = dotPrefix4Go(x, y[0], y[1], y[2], y[3])
				p4[0], p4[1], p4[2], p4[3] = dotPrefix4SSE2(x, y[0], y[1], y[2], y[3])
				d4[0], d4[1], d4[2], d4[3] = dotPrefix4(x, y[0], y[1], y[2], y[3])
				check("dotPrefix4SSE2", p4[:], w4[:])
				check("dotPrefix4", d4[:], w4[:])
				var w2, p2, d2 [2]float64
				w2[0], w2[1] = dotPrefix2Go(x, y[0], y[1])
				p2[0], p2[1] = dotPrefix2SSE2(x, y[0], y[1])
				d2[0], d2[1] = dotPrefix2(x, y[0], y[1])
				check("dotPrefix2SSE2", p2[:], w2[:])
				check("dotPrefix2", d2[:], w2[:])
			}
		}
	}
}
