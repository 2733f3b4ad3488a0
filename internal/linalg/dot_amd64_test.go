//go:build amd64 && !race

package linalg

import (
	"bufio"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strings"
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
	classes := kernelInputClasses(rng)
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
						if !sameBits(got[s], want[s]) {
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

// TestTileKernelsMatchScalar pins the AVX Cholesky kernels to the scalar
// code they stand for, element by element: trailTilesAVX to a dotPrefix4Go
// per output, panelBlockAVX to panelRows' one-row solve. Panels run 0-70
// columns wide, so every pair/quad loop count and tail shows, and the
// rows start 0-3 elements past a 32-byte boundary, with strides that move
// each row's alignment. Elements outside a kernel's outputs must keep
// their bits too. NaN results compare by NaN-ness only.
func TestTileKernelsMatchScalar(t *testing.T) {
	if !useAVX {
		t.Skip("CPU has no AVX")
	}
	rng := rand.New(rand.NewSource(2))
	// block returns a stream of n drawn elements starting off elements
	// past a 32-byte boundary.
	block := func(n, off int, draw func() float64) []float64 {
		buf := make([]float64, n+off+4)
		o := int((32 - uintptr(unsafe.Pointer(&buf[0]))%32) % 32 / 8)
		s := buf[o+off : o+off+n]
		for k := range s {
			s[k] = draw()
		}
		return s
	}
	check := func(kernel, class string, nb, off int, got, want []float64) {
		t.Helper()
		for e := range want {
			if !sameBits(got[e], want[e]) {
				t.Fatalf("%s %s nb=%d off=%d: element %d = %v (%#x), scalar %v (%#x)",
					kernel, class, nb, off, e, got[e], math.Float64bits(got[e]), want[e], math.Float64bits(want[e]))
			}
		}
	}
	for _, cl := range kernelInputClasses(rng) {
		for nb := 0; nb <= 70; nb++ {
			for off := 0; off < 4; off++ {
				for _, cols := range []int{4, 8, 12} {
					stride := nb + cols + 1 + rng.Intn(3)
					rows := block(3*stride+nb+cols, off, cl.draw)
					pan := block((cols-1)*stride+nb, rng.Intn(4), cl.draw)
					want := append([]float64(nil), rows...)
					for r := 0; r < 4; r++ {
						x := want[r*stride : r*stride+nb]
						for q := 0; q < cols; q++ {
							y := pan[q*stride : q*stride+nb]
							d, _, _, _ := dotPrefix4Go(x, y, y, y, y)
							want[r*stride+nb+q] -= d
						}
					}
					trailTilesAVX(rows, pan, stride, nb, cols)
					check("trailTilesAVX", cl.name, nb, off, rows, want)
				}
				if nb == 0 {
					continue
				}
				stride := nb + rng.Intn(4)
				rows := block(3*stride+nb, off, cl.draw)
				diag := block((nb-1)*stride+nb, rng.Intn(4), cl.draw)
				want := append([]float64(nil), rows...)
				for r := 0; r < 4; r++ {
					x := want[r*stride : r*stride+nb]
					for j := 0; j < nb; j++ {
						p := diag[j*stride : j*stride+nb]
						x[j] = (x[j] - dotPrefix(x[:j], p[:j])) / p[j]
					}
				}
				panelBlockAVX(rows, diag, stride, nb)
				check("panelBlockAVX", cl.name, nb, off, rows, want)
			}
		}
	}
}

// TestCholeskyTilesMatchPortable pins the factor from the AVX kernels to
// the factor from the portable path bit for bit. The sizes cover one panel
// (no trailing update), just below and above the panel width, two and
// three panels, and the n30's Schur sizes, whose last panel is 19 and 21
// columns wide; the
// worker counts make chunks, and so four-row blocks, start at every row
// residue mod 4.
func TestCholeskyTilesMatchPortable(t *testing.T) {
	if !useAVX {
		t.Skip("CPU has no AVX")
	}
	defer func() { useAVX = true }()
	sizes := []int{1}
	for _, r := range [][2]int{{3, 9}, {63, 68}, {127, 129}} {
		for n := r[0]; n <= r[1]; n++ {
			sizes = append(sizes, n)
		}
	}
	sizes = append(sizes, 255, 531, 533)
	for _, n := range sizes {
		a := randSPD(rand.New(rand.NewSource(int64(n))), n)
		for _, w := range []int{1, 2, 3, 4, 7} {
			useAVX = true
			tiled, err := NewCholesky(a, w)
			if err != nil {
				t.Fatalf("n=%d w%d AVX: %v", n, w, err)
			}
			useAVX = false
			portable, err := NewCholesky(a, w)
			if err != nil {
				t.Fatalf("n=%d w%d portable: %v", n, w, err)
			}
			for e, want := range portable.L.Data {
				if got := tiled.L.Data[e]; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("n=%d w%d: L[%d][%d] = %v (%#x) with AVX, %v (%#x) portable",
						n, w, e/n, e%n, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		}
	}
}

// TestCPUHasAVXMatchesCPUInfo checks the CPUID/XGETBV detection against
// the kernel's view: Linux lists the avx flag in /proc/cpuinfo only when
// the CPU has AVX and the OS saves the YMM state. It also checks that with
// useAVX false a factorization large enough for both kernels runs the
// portable path only: the AVX wrappers panic when called without it.
func TestCPUHasAVXMatchesCPUInfo(t *testing.T) {
	t.Run("cpuinfo", func(t *testing.T) {
		if runtime.GOOS != "linux" {
			t.Skip("/proc/cpuinfo is Linux only")
		}
		f, err := os.Open("/proc/cpuinfo")
		if err != nil {
			t.Skip(err)
		}
		defer f.Close()
		flags := ""
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "flags" {
				flags = val
				break
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		if flags == "" {
			t.Skip("no flags line in /proc/cpuinfo")
		}
		want := false
		for _, fl := range strings.Fields(flags) {
			want = want || fl == "avx"
		}
		if got := cpuHasAVX(); got != want {
			t.Errorf("cpuHasAVX() = %v, /proc/cpuinfo avx flag %v", got, want)
		}
	})
	t.Run("portable", func(t *testing.T) {
		saved := useAVX
		defer func() { useAVX = saved }()
		useAVX = false
		a := randSPD(rand.New(rand.NewSource(533)), 533)
		for _, w := range []int{1, 4} {
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Fatalf("w%d: an AVX kernel ran with useAVX false: %v", w, p)
					}
				}()
				if _, err := NewCholesky(a, w); err != nil {
					t.Fatalf("w%d: %v", w, err)
				}
			}()
		}
	})
}

// kernelInputClass is a named way of drawing a kernel test's elements.
type kernelInputClass struct {
	name string
	draw func() float64
}

// kernelInputClasses returns the element distributions the kernel tests
// run on, all drawn from rng: mixed magnitudes 1e±6, some and all signed
// zeros, a few ±Inf and NaN among mixed values, and products that
// overflow.
func kernelInputClasses(rng *rand.Rand) []kernelInputClass {
	negZero := math.Copysign(0, -1)
	mixed := func() float64 { return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(13)-6)) }
	return []kernelInputClass{
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
}

// sameBits reports whether got and want are the same float64, NaNs of any
// payload counting as equal.
func sameBits(got, want float64) bool {
	if math.IsNaN(got) && math.IsNaN(want) {
		return true
	}
	return math.Float64bits(got) == math.Float64bits(want)
}
