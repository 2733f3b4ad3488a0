package linalg

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"
)

// workerCounts exercised by the cross-worker identity table: sequential,
// small parallel, odd chunking, the benchmark width, and more chunks than a
// small host's pool has goroutines.
var workerCounts = []int{1, 2, 3, 4, 7}

func randMat(rng *rand.Rand, r, c int) *Dense {
	m := NewDense(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func matBytes(m *Dense) []byte {
	var b bytes.Buffer
	for _, v := range m.Data {
		var raw [8]byte
		binary.LittleEndian.PutUint64(raw[:], math.Float64bits(v))
		b.Write(raw[:])
	}
	return b.Bytes()
}

func assertBitIdentical(t *testing.T, name string, ref, got *Dense, workers int) {
	t.Helper()
	if ref.Rows != got.Rows || ref.Cols != got.Cols {
		t.Fatalf("%s workers=%d: shape %dx%d, want %dx%d", name, workers, got.Rows, got.Cols, ref.Rows, ref.Cols)
	}
	if !bytes.Equal(matBytes(ref), matBytes(got)) {
		for i := range ref.Data {
			if math.Float64bits(ref.Data[i]) != math.Float64bits(got.Data[i]) {
				t.Fatalf("%s workers=%d: element %d = %v, want %v (bitwise)", name, workers, i, got.Data[i], ref.Data[i])
			}
		}
	}
}

// vecDense wraps a vector as a 1×n matrix for assertBitIdentical.
func vecDense(v []float64) *Dense {
	return &Dense{Rows: 1, Cols: len(v), Data: append([]float64(nil), v...)}
}

// TestCholeskyPNotPosDef puts a negative pivot past the first panel, where
// the parallel branches have already run, and requires every worker count to
// reject the matrix.
func TestCholeskyPNotPosDef(t *testing.T) {
	for _, pivot := range []int{40, 70} {
		a := randSPD(rand.New(rand.NewSource(4)), 80)
		a.Set(pivot, pivot, -1)
		for _, w := range workerCounts {
			if _, err := NewCholesky(a, w); !errors.Is(err, ErrNotPositiveDefinite) {
				t.Fatalf("pivot=%d workers=%d: err = %v, want ErrNotPositiveDefinite", pivot, w, err)
			}
		}
	}
}

// TestKernelsBitIdenticalAcrossWorkers runs every kernel that takes a worker
// count at sizes that take its parallel branch, and requires each worker
// count to reproduce the sequential output bit for bit. The workspace cases
// reuse one workspace across all worker counts, so recycled buffers are
// covered too.
func TestKernelsBitIdenticalAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a, b := randMat(rng, 90, 40), randMat(rng, 110, 40)
	mmA, mmB := randMat(rng, 130, 130), randMat(rng, 130, 130)
	spd := randSPD(rng, 150) // two panels plus a remainder: both branches fork
	sym := randSym(rng, 200) // tred2's update forks only from step 182 on
	rhs := randMat(rng, 33, 150)
	fac, err := NewCholesky(spd, 1)
	if err != nil {
		t.Fatal(err)
	}
	var mw MatMulWork
	var cw CholWork
	var ew EigWork
	cases := []struct {
		name string
		run  func(workers int) ([]*Dense, error)
	}{
		{"MulABt", func(w int) ([]*Dense, error) { return []*Dense{MulABt(a, b, w)}, nil }},
		{"MatMulWork.MatMulInto", func(w int) ([]*Dense, error) {
			dst := NewDense(130, 130)
			mw.MatMulInto(dst, mmA, mmB, w)
			return []*Dense{dst}, nil
		}},
		{"MatMulWork.MulABtInto", func(w int) ([]*Dense, error) {
			dst := NewDense(90, 110)
			mw.MulABtInto(dst, a, b, w)
			return []*Dense{dst}, nil
		}},
		{"NewCholesky", func(w int) ([]*Dense, error) { return cholL(NewCholesky(spd, w)) }},
		{"CholWork.Factor", func(w int) ([]*Dense, error) { return cholL(cw.Factor(spd, w)) }},
		{"Cholesky.ForwardSolveRows", func(w int) ([]*Dense, error) {
			m := rhs.Clone()
			fac.ForwardSolveRows(m, w)
			return []*Dense{m}, nil
		}},
		{"Cholesky.SolveRows", func(w int) ([]*Dense, error) {
			m := rhs.Clone()
			fac.SolveRows(m, w)
			return []*Dense{m}, nil
		}},
		{"Cholesky.InverseInto", func(w int) ([]*Dense, error) {
			inv := NewDense(150, 150)
			fac.InverseInto(inv, w)
			return []*Dense{inv}, nil
		}},
		{"NewSymEig", func(w int) ([]*Dense, error) { return symEigVV(NewSymEig(sym, w)) }},
		{"EigWork.Factor", func(w int) ([]*Dense, error) { return symEigVV(ew.Factor(sym, w)) }},
		{"EigWork.MinEigenvalue", func(w int) ([]*Dense, error) {
			lmin, err := ew.MinEigenvalue(sym, w)
			return []*Dense{vecDense([]float64{lmin})}, err
		}},
		{"EigWork.ApplyFnInto", func(w int) ([]*Dense, error) {
			if _, err := ew.Factor(sym, 1); err != nil {
				return nil, err
			}
			dst := NewDense(200, 200)
			ew.ApplyFnInto(dst, math.Abs, w)
			return []*Dense{dst}, nil
		}},
		{"EigWork.PSDProjectInto", func(w int) ([]*Dense, error) {
			if _, err := ew.Factor(sym, 1); err != nil {
				return nil, err
			}
			dst := NewDense(200, 200)
			ew.PSDProjectInto(dst, w)
			return []*Dense{dst}, nil
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref, err := tc.run(1)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range workerCounts[1:] {
				got, err := tc.run(w)
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				for i := range ref {
					assertBitIdentical(t, tc.name, ref[i], got[i], w)
				}
			}
		})
	}
}

// cholL and symEigVV pass a factorization's error through and otherwise
// return the matrices the identity table compares.
func cholL(c *Cholesky, err error) ([]*Dense, error) {
	if err != nil {
		return nil, err
	}
	return []*Dense{c.L.Clone()}, nil
}

func symEigVV(eg *SymEig, err error) ([]*Dense, error) {
	if err != nil {
		return nil, err
	}
	return []*Dense{vecDense(eg.Values), eg.V.Clone()}, nil
}
