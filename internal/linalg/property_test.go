package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// propertySizes spans the factorization sizes the solvers actually hit: tiny
// Schur complements up to GSRC-scale dense systems.
var propertySizes = []int{2, 3, 4, 5, 8, 13, 16, 24, 32, 48, 64}

// relFrobDiff is ‖a−b‖_F / max(1, ‖a‖_F).
func relFrobDiff(a, b *Dense) float64 {
	diff := a.Clone()
	diff.AddScaled(-1, b)
	return diff.FrobNorm() / math.Max(1, a.FrobNorm())
}

func TestCholeskyReconstructsProperty(t *testing.T) {
	for _, n := range propertySizes {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + n)))
			for trial := 0; trial < 3; trial++ {
				a := randSPD(rng, n)
				fac, err := NewCholesky(a, 1)
				if err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				llt := MatMul(fac.L, fac.L.T())
				if d := relFrobDiff(a, llt); d > 1e-12 {
					t.Fatalf("trial %d: ‖LLᵀ−A‖/‖A‖ = %g", trial, d)
				}
				// L must be lower triangular.
				for i := 0; i < n; i++ {
					for j := i + 1; j < n; j++ {
						if fac.L.At(i, j) != 0 {
							t.Fatalf("L[%d,%d] = %g above the diagonal", i, j, fac.L.At(i, j))
						}
					}
				}
			}
		})
	}
}

func TestSymEigReconstructsProperty(t *testing.T) {
	for _, n := range propertySizes {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(2000 + n)))
			for trial := 0; trial < 3; trial++ {
				a := randSym(rng, n)
				eg, err := NewSymEig(a, 1)
				if err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				// Reconstruction: ‖VΛVᵀ − A‖ small.
				if d := relFrobDiff(a, eg.Reconstruct()); d > 1e-10 {
					t.Fatalf("trial %d: ‖VΛVᵀ−A‖/‖A‖ = %g", trial, d)
				}
				// Orthonormality: VᵀV = I.
				if d := relFrobDiff(Identity(n), MatMul(eg.V.T(), eg.V)); d > 1e-10 {
					t.Fatalf("trial %d: ‖VᵀV−I‖ = %g", trial, d)
				}
				// Eigenvalues sorted ascending.
				for i := 1; i < n; i++ {
					if eg.Values[i] < eg.Values[i-1] {
						t.Fatalf("trial %d: eigenvalues not ascending at %d: %v", trial, i, eg.Values)
					}
				}
			}
		})
	}
}
