package sdp

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"sdpfloor/internal/linalg"
	"sdpfloor/internal/trace"
)

// trajectoryHash condenses a solve into one digest: the solver's full trace
// (every event in its deterministic JSONL form with the timestamp zeroed, so
// every field at full round-trip precision) plus the exact bits of the
// final primal iterate and duals. Two solves agree on the hash only if they
// walked the same trajectory to the same answer.
func trajectoryHash(t *testing.T, ring *trace.Ring, sol *Solution) [32]byte {
	t.Helper()
	if n := ring.Dropped(); n > 0 {
		t.Fatalf("trace ring dropped %d events; enlarge it", n)
	}
	h := sha256.New()
	var line []byte
	for _, ev := range ring.Snapshot() {
		ev.TS = 0
		line = append(trace.AppendJSON(line[:0], ev), '\n')
		h.Write(line)
	}
	for _, x := range sol.X {
		for _, v := range x.Data {
			var raw [8]byte
			binary.LittleEndian.PutUint64(raw[:], math.Float64bits(v))
			h.Write(raw[:])
		}
	}
	for _, v := range sol.Y {
		var raw [8]byte
		binary.LittleEndian.PutUint64(raw[:], math.Float64bits(v))
		h.Write(raw[:])
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// trajectoryRing returns a recorder large enough to hold every event of one
// test solve.
func trajectoryRing() *trace.Ring { return trace.NewRing(1 << 12) }

// TestIPMDeterministicAcrossWorkers: the acceptance criterion of the
// parallel port — the IPM must produce a bitwise-identical iterate
// trajectory for every worker count, because every parallel path splits
// into chunks with element-disjoint writes and unchanged per-element
// operation order.
func TestIPMDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p := randomFeasibleSDP(rng, 40, 30)
	var ref [32]byte
	for i, workers := range []int{1, 2, 8} {
		ring := trajectoryRing()
		sol, err := SolveIPM(p, IPMOptions{Workers: workers, Trace: ring})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if sol.Status != StatusOptimal {
			t.Fatalf("workers=%d: status %v", workers, sol.Status)
		}
		h := trajectoryHash(t, ring, sol)
		if i == 0 {
			ref = h
		} else if h != ref {
			t.Fatalf("workers=%d: trajectory diverged from workers=1 (hash %x vs %x)", workers, h, ref)
		}
	}
}

// TestIPMDeterministicAcrossWorkersBlocked: the same contract on a PSD block
// larger than the Cholesky blocking factor (64), so the panel-solve and
// trailing-update paths of the blocked factorization — and the row-solve
// kernels behind S⁻¹ and the step computation — are all exercised.
func TestIPMDeterministicAcrossWorkersBlocked(t *testing.T) {
	if testing.Short() {
		t.Skip("blocked-dimension determinism solve is slow in -short mode")
	}
	rng := rand.New(rand.NewSource(17))
	p := randomFeasibleSDP(rng, 70, 90)
	var ref [32]byte
	for i, workers := range []int{1, 2, 8} {
		ring := trajectoryRing()
		sol, err := SolveIPM(p, IPMOptions{Workers: workers, Trace: ring})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if sol.Status != StatusOptimal {
			t.Fatalf("workers=%d: status %v", workers, sol.Status)
		}
		h := trajectoryHash(t, ring, sol)
		if i == 0 {
			ref = h
		} else if h != ref {
			t.Fatalf("workers=%d: trajectory diverged from workers=1 (hash %x vs %x)", workers, h, ref)
		}
	}
}

// TestADMMDeterministicAcrossWorkersBlocked: blocked-dimension coverage for
// the first-order solver's eigenprojection and the arena-backed iterate.
func TestADMMDeterministicAcrossWorkersBlocked(t *testing.T) {
	if testing.Short() {
		t.Skip("blocked-dimension determinism solve is slow in -short mode")
	}
	rng := rand.New(rand.NewSource(19))
	p := randomFeasibleSDP(rng, 70, 60)
	var ref [32]byte
	for i, workers := range []int{1, 2, 8} {
		ring := trajectoryRing()
		sol, err := SolveADMM(p, ADMMOptions{Workers: workers, MaxIter: 200, Trace: ring})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		h := trajectoryHash(t, ring, sol)
		if i == 0 {
			ref = h
		} else if h != ref {
			t.Fatalf("workers=%d: trajectory diverged from workers=1 (hash %x vs %x)", workers, h, ref)
		}
	}
}

// TestADMMDeterministicAcrossWorkers: same contract for the first-order
// solver, whose per-iteration eigenprojection uses the parallel kernels.
func TestADMMDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	p := randomFeasibleSDP(rng, 25, 15)
	var ref [32]byte
	for i, workers := range []int{1, 2, 8} {
		ring := trajectoryRing()
		sol, err := SolveADMM(p, ADMMOptions{Workers: workers, MaxIter: 400, Trace: ring})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		h := trajectoryHash(t, ring, sol)
		if i == 0 {
			ref = h
		} else if h != ref {
			t.Fatalf("workers=%d: trajectory diverged from workers=1 (hash %x vs %x)", workers, h, ref)
		}
	}
}

// TestFactorSchurNearSingular: the retry loop must rescue a singular (rank
// deficient PSD) Schur matrix by shifting the diagonal, recomputing the
// shift from the current diagonal on every attempt.
func TestFactorSchurNearSingular(t *testing.T) {
	const m = 30
	u := linalg.NewDense(m, 1)
	for i := 0; i < m; i++ {
		u.Set(i, 0, 1+float64(i))
	}
	// Rank-1 PSD: plain Cholesky fails at the second pivot.
	schur := linalg.MulABt(u, u, 1)
	if _, err := linalg.NewCholesky(schur.Clone(), 1); err == nil {
		t.Fatal("rank-1 matrix unexpectedly factored without regularization")
	}
	dmax := schur.At(m-1, m-1)
	for _, workers := range []int{1, 4} {
		s := schur.Clone()
		fac, retries, err := factorSchur(&linalg.CholWork{}, s, workers)
		if err != nil {
			t.Fatalf("workers=%d: factorSchur failed on rank-1 PSD matrix: %v", workers, err)
		}
		if retries < 1 {
			t.Fatalf("workers=%d: factorSchur reported %d retries on a matrix plain Cholesky rejects", workers, retries)
		}
		// The factor must reproduce the regularized matrix left in s.
		rec := linalg.MulABt(fac.L, fac.L, 1)
		for i := range rec.Data {
			d := math.Abs(rec.Data[i] - s.Data[i])
			if d > 1e-6*(1+math.Abs(s.Data[i])) {
				t.Fatalf("workers=%d: L·Lᵀ differs from regularized matrix at %d by %g", workers, i, d)
			}
		}
		// The accumulated shift must be a tiny relative perturbation: the
		// diagonal-tracking schedule succeeds within the first attempts, so
		// the matrix the solver actually factors stays within 1e-6·scale of
		// the one it was asked to factor.
		if growth := s.At(0, 0) - schur.At(0, 0); growth > 1e-6*(1+dmax) {
			t.Fatalf("workers=%d: regularization overshot: diagonal grew by %g (scale %g)", workers, growth, dmax)
		}
	}
}
