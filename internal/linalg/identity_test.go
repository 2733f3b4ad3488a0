package linalg

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Bitwise pins. The kernels below feed the interior-point iteration, whose
// traces and HPWL are compared byte for byte across releases; a rewrite of
// their inner loops must keep every floating-point operation and its order.
// These tests fail by name when one does not. `make identity` runs them.

// minEigInput returns the i-th seeded symmetric test matrix. The classes
// cover the branches of tred2/tql2 and sortEig: dense, sparse with all-zero
// rows (tred2's scale == 0 step), diagonal (already tridiagonal), repeated
// eigenvalues, signed zeros, and non-finite entries.
func minEigInput(rng *rand.Rand, i int) *Dense {
	n := 1 + rng.Intn(40)
	negZero := math.Copysign(0, -1)
	switch i % 6 {
	case 0: // dense
		return randSym(rng, n)
	case 1: // sparse, with all-zero rows and columns
		a := NewDense(n, n)
		for r := 0; r < n; r++ {
			for c := 0; c <= r; c++ {
				if rng.Float64() < 0.2 {
					v := rng.NormFloat64()
					a.Set(r, c, v)
					a.Set(c, r, v)
				}
			}
		}
		for z := rng.Intn(n + 1); z > 0; z-- {
			r := rng.Intn(n)
			if z == 1 && rng.Intn(2) == 0 {
				r = n - 1 // tred2 reduces the last row first
			}
			for c := 0; c < n; c++ {
				a.Set(r, c, 0)
				a.Set(c, r, 0)
			}
		}
		return a
	case 2: // diagonal
		a := NewDense(n, n)
		for r := 0; r < n; r++ {
			a.Set(r, r, rng.NormFloat64())
		}
		return a
	case 3: // repeated eigenvalues: c·I + s·uuᵀ, or a diagonal from few values
		a := NewDense(n, n)
		if rng.Intn(2) == 0 {
			c, s := rng.NormFloat64(), rng.NormFloat64()
			u := make([]float64, n)
			for r := range u {
				u[r] = rng.NormFloat64()
			}
			for r := 0; r < n; r++ {
				for q := 0; q < n; q++ {
					a.Set(r, q, s*u[r]*u[q])
				}
				a.Add(r, r, c)
			}
			return a
		}
		vals := []float64{-1, 0, 2}
		for r := 0; r < n; r++ {
			a.Set(r, r, vals[rng.Intn(len(vals))])
		}
		return a
	case 4: // signed zeros
		a := randSym(rng, n)
		for r := 0; r < n; r++ {
			for c := 0; c <= r; c++ {
				switch rng.Intn(3) {
				case 0:
					a.Set(r, c, 0)
					a.Set(c, r, 0)
				case 1:
					a.Set(r, c, negZero)
					a.Set(c, r, negZero)
				}
			}
		}
		return a
	default: // non-finite entries
		a := randSym(rng, n)
		bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
		r, c := rng.Intn(n), rng.Intn(n)
		v := bad[rng.Intn(len(bad))]
		a.Set(r, c, v)
		a.Set(c, r, v)
		return a
	}
}

// TestMinEigenvalueMatchesFactor pins the values-only λmin to the full
// decomposition: same bits and the same convergence outcome on every input.
func TestMinEigenvalueMatchesFactor(t *testing.T) {
	rng := rand.New(rand.NewSource(20231))
	var full, vals EigWork
	const count = 10200
	for i := 0; i < count; i++ {
		a := minEigInput(rng, i)
		workers := 1 + i%4
		got, errV := vals.MinEigenvalue(a, workers)
		eg, errF := full.Factor(a, workers)
		if errV != errF {
			t.Fatalf("matrix %d (n=%d, class %d): values-only error %v, full error %v", i, a.Rows, i%6, errV, errF)
		}
		if errF != nil {
			continue
		}
		if want := eg.MinEigenvalue(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("matrix %d (n=%d, class %d): λmin %v (%#x), full path %v (%#x)",
				i, a.Rows, i%6, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// cholGoldenBits is the sha256 of L's bits for randSPD(seed n, n); see
// TestCholeskyGoldenBits.
var cholGoldenBits = map[int]string{
	1:   "68e6e6ef2aba3623a849245159b6230632fa9ebb715ed588ba1261a573a1719e",
	2:   "b9ba093ef0273b6e258aecc79d59cd0450bb012a4ffee0c2eb3f481b0b6f64df",
	63:  "9dbb89c12d3e6cb49d06acb384b6cd6122d47a23ad3f53d0728af8b11e1080c0",
	64:  "f5bcc611a8116568b2dad9c763160bc73d27221aa776b52f79aa2e98e49ac69e",
	65:  "3d2e3bd5878651fd696e80d17bd1c2e968eb4bd7e23c04fe85a1e29e2c7a0a0e",
	129: "83997763efcca613bfe0999f7cbcac27602f2945073e6607e74ee26dc409a744",
	191: "32b927685e31f6a7f84b769b3f696958a93d33bcf7ca0aabacbdab5fcf4bc02d",
	300: "1b6d98ab1d328567cf1e9e254b3f837995762e57b0d42611643fa2879502fd6e",
	531: "37816547d74f53cfa75f8dcc76c414ab5f65ad85e0ede9386d7b25fbb5932e24",
}

// TestCholeskyGoldenBits pins the blocked factorization's output bits at
// sizes around the panel width (one panel, one panel plus a row, several
// panels with odd and even remainders) and at the IPM's Schur sizes.
func TestCholeskyGoldenBits(t *testing.T) {
	for _, n := range []int{1, 2, 63, 64, 65, 129, 191, 300, 531} {
		a := randSPD(rand.New(rand.NewSource(int64(n))), n)
		for _, w := range []int{1, 4} {
			c, err := NewCholesky(a, w)
			if err != nil {
				t.Fatalf("n=%d w%d: %v", n, w, err)
			}
			sum := sha256.Sum256(matBytes(c.L))
			if got := hex.EncodeToString(sum[:]); got != cholGoldenBits[n] {
				t.Errorf("n=%d w%d: L bits sha256 %s, want %s", n, w, got, cholGoldenBits[n])
			}
		}
	}
}

// BenchmarkMinEigenvalue measures the values-only λmin the IPM step-length
// search runs four times per iteration, at the n30 floorplan's PSD block
// size. allocs/op must be 0.
func BenchmarkMinEigenvalue(b *testing.B) {
	for _, n := range []int{32} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			a := randSym(rand.New(rand.NewSource(int64(n))), n)
			var w EigWork
			w.MinEigenvalue(a, 1) // size the workspace
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v, _ := w.MinEigenvalue(a, 1)
				benchSink = v
			}
		})
	}
}
