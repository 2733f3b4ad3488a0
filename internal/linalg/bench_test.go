package linalg

import (
	"fmt"
	"math/rand"
	"testing"
)

// Benchmarks for the parallel-kernel hot paths. Sizes track the paper's
// instances: the SDP iterate Z for nX has dimension X+2, so n64–n256 spans
// the n10–n200 suite. Each kernel runs at w1 (sequential baseline) and w4;
// cmd/benchdiff compares these against BENCH_baseline.json in CI.

var benchSink float64

var benchSizes = []int{64, 128, 256}

// cholBenchSizes adds n512 and n533 for the factorization: the Schur
// complement of the n30's first α round grows to m = 533, and that factor
// dominates the interior-point time of an n30 Place. n533 also has a
// 21-column last panel and trailing blocks that do not split into whole
// four-row blocks.
var cholBenchSizes = []int{64, 128, 256, 512, 533}

func benchWorkerCounts() []int { return []int{1, 4} }

func BenchmarkMatMul(b *testing.B) {
	for _, n := range benchSizes {
		rng := rand.New(rand.NewSource(int64(n)))
		x := randMat(rng, n, n)
		y := randMat(rng, n, n)
		dst := NewDense(n, n)
		var mw MatMulWork
		for _, w := range benchWorkerCounts() {
			b.Run(fmt.Sprintf("n%d/w%d", n, w), func(b *testing.B) {
				mw.MatMulInto(dst, x, y, w) // bind the dispatch state, warm the free list
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					mw.MatMulInto(dst, x, y, w)
				}
				benchSink = dst.Data[0]
			})
		}
	}
}

func BenchmarkMulABt(b *testing.B) {
	for _, n := range benchSizes {
		rng := rand.New(rand.NewSource(int64(n)))
		x := randMat(rng, n, n)
		y := randMat(rng, n, n)
		dst := NewDense(n, n)
		var mw MatMulWork
		for _, w := range benchWorkerCounts() {
			b.Run(fmt.Sprintf("n%d/w%d", n, w), func(b *testing.B) {
				mw.MulABtInto(dst, x, y, w) // bind the dispatch state, warm the free list
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					mw.MulABtInto(dst, x, y, w)
				}
				benchSink = dst.Data[0]
			})
		}
	}
}

func BenchmarkCholesky(b *testing.B) {
	for _, n := range cholBenchSizes {
		rng := rand.New(rand.NewSource(int64(n)))
		a := randSPD(rng, n)
		for _, w := range benchWorkerCounts() {
			b.Run(fmt.Sprintf("n%d/w%d", n, w), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					c, err := NewCholesky(a, w)
					if err != nil {
						b.Fatal(err)
					}
					benchSink = c.L.Data[0]
				}
			})
		}
	}
}

func BenchmarkCholInverse(b *testing.B) {
	for _, n := range benchSizes {
		rng := rand.New(rand.NewSource(int64(n)))
		c, err := NewCholesky(randSPD(rng, n), 1)
		if err != nil {
			b.Fatal(err)
		}
		inv := NewDense(n, n)
		c.InverseInto(inv, 1) // warm the lazily built Lᵀ so allocs/op is benchtime-independent
		for _, w := range benchWorkerCounts() {
			b.Run(fmt.Sprintf("n%d/w%d", n, w), func(b *testing.B) {
				c.InverseInto(inv, w) // bind the dispatch state, warm the free list
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c.InverseInto(inv, w)
				}
				benchSink = inv.Data[0]
			})
		}
	}
}

func BenchmarkSymEig(b *testing.B) {
	for _, n := range benchSizes {
		rng := rand.New(rand.NewSource(int64(n)))
		a := randMat(rng, n, n)
		a.Symmetrize()
		for _, w := range benchWorkerCounts() {
			b.Run(fmt.Sprintf("n%d/w%d", n, w), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					eg, err := NewSymEig(a, w)
					if err != nil {
						b.Fatal(err)
					}
					benchSink = eg.Values[0]
				}
			})
		}
	}
}

func BenchmarkPSDProject(b *testing.B) {
	for _, n := range benchSizes {
		rng := rand.New(rand.NewSource(int64(n)))
		a := randMat(rng, n, n)
		a.Symmetrize()
		var ew EigWork
		if _, err := ew.Factor(a, 1); err != nil {
			b.Fatal(err)
		}
		dst := NewDense(n, n)
		for _, w := range benchWorkerCounts() {
			b.Run(fmt.Sprintf("n%d/w%d", n, w), func(b *testing.B) {
				ew.PSDProjectInto(dst, w) // size the low-rank scratch, warm the free list
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ew.PSDProjectInto(dst, w)
				}
				benchSink = dst.Data[0]
			})
		}
	}
}
