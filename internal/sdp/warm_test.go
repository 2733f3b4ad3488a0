package sdp

import (
	"math"
	"math/rand"
	"testing"

	"sdpfloor/internal/linalg"
)

// perturbObjective returns a copy of p sharing everything except the
// objective, to which small symmetric noise is added — the shape of
// consecutive sub-problems in the convex iteration (same constraints, the
// direction-matrix term moves).
func perturbObjective(p *Problem, rng *rand.Rand, eps float64) *Problem {
	q := *p
	q.C = make([]*linalg.Dense, len(p.C))
	for b, c := range p.C {
		cc := c.Clone()
		for i := 0; i < cc.Rows; i++ {
			for j := i; j < cc.Cols; j++ {
				v := eps * rng.NormFloat64()
				cc.Add(i, j, v)
				if i != j {
					cc.Add(j, i, v)
				}
			}
		}
		q.C[b] = cc
	}
	return &q
}

// warmIPMOptions seeds every warm-start field from a prior solution.
func warmIPMOptions(prev *Solution) IPMOptions {
	return IPMOptions{X0: prev.X, S0: prev.S, XLP0: prev.XLP, SLP0: prev.SLP, Y0: prev.Y}
}

// TestIPMWarmColdParity — warm and cold solves of the same perturbed problem
// must both certify optimal and agree in objective; the warm solve must
// actually consume the warm start.
func TestIPMWarmColdParity(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	p := randomFeasibleSDP(rng, 12, 14)
	prev, err := SolveIPM(p, IPMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if prev.Status != StatusOptimal {
		t.Fatalf("base solve: %v", prev.Status)
	}
	assertKKT(t, p, prev, 1e-5)

	q := perturbObjective(p, rng, 0.05)
	cold, err := SolveIPM(q, IPMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := SolveIPM(q, warmIPMOptions(prev))
	if err != nil {
		t.Fatal(err)
	}
	if cold.Warm {
		t.Error("cold solve reports Warm=true")
	}
	if !warm.Warm {
		t.Error("warm solve fell back to cold")
	}
	for name, sol := range map[string]*Solution{"cold": cold, "warm": warm} {
		if sol.Status != StatusOptimal {
			t.Fatalf("%s: status %v", name, sol.Status)
		}
		if err := CheckKKT(q, sol, 1e-5); err != nil {
			t.Fatalf("%s: kkt: %v", name, err)
		}
	}
	if d := math.Abs(warm.PrimalObj - cold.PrimalObj); d > 1e-5*(1+math.Abs(cold.PrimalObj)) {
		t.Fatalf("objectives diverge: warm %g vs cold %g", warm.PrimalObj, cold.PrimalObj)
	}
	t.Logf("iterations: warm %d, cold %d", warm.Iterations, cold.Iterations)
}

// TestADMMWarmColdParity — the same contract for the first-order solver,
// including the resumed penalty.
func TestADMMWarmColdParity(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	n := 6
	c := linalg.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64()
			c.Set(i, j, v)
			c.Set(j, i, v)
		}
	}
	p := minEigProblem(c)
	prev, err := SolveADMM(p, ADMMOptions{Tol: 1e-6, MaxIter: 50000})
	if err != nil {
		t.Fatal(err)
	}
	if prev.Status != StatusOptimal {
		t.Fatalf("base solve: %v", prev.Status)
	}
	assertKKT(t, p, prev, 1e-3)

	q := perturbObjective(p, rng, 0.02)
	cold, err := SolveADMM(q, ADMMOptions{Tol: 1e-6, MaxIter: 50000})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := SolveADMM(q, ADMMOptions{Tol: 1e-6, MaxIter: 50000,
		X0: prev.X, XLP0: prev.XLP, Y0: prev.Y, S0: prev.S, SLP0: prev.SLP, Mu0: prev.Mu})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Warm || cold.Warm {
		t.Errorf("warm flags: warm=%v cold=%v", warm.Warm, cold.Warm)
	}
	for name, sol := range map[string]*Solution{"cold": cold, "warm": warm} {
		if sol.Status != StatusOptimal {
			t.Fatalf("%s: status %v", name, sol.Status)
		}
		if err := CheckKKT(q, sol, 1e-3); err != nil {
			t.Fatalf("%s: kkt: %v", name, err)
		}
	}
	if d := math.Abs(warm.PrimalObj - cold.PrimalObj); d > 1e-3*(1+math.Abs(cold.PrimalObj)) {
		t.Fatalf("objectives diverge: warm %g vs cold %g", warm.PrimalObj, cold.PrimalObj)
	}
	if warm.Iterations > cold.Iterations {
		t.Errorf("warm start slowed ADMM down: %d vs %d iterations", warm.Iterations, cold.Iterations)
	}
	t.Logf("iterations: warm %d, cold %d", warm.Iterations, cold.Iterations)
}

// TestIPMWarmStartFallsBackToCold — shape mismatches and non-interior warm
// points must silently cold-start (Solution.Warm=false), never fail.
func TestIPMWarmStartFallsBackToCold(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	p := randomFeasibleSDP(rng, 10, 8)
	prev, err := SolveIPM(p, IPMOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// Wrong-dimension blocks.
	bad := warmIPMOptions(prev)
	bad.X0 = []*linalg.Dense{linalg.Identity(4)}
	sol, err := SolveIPM(p, bad)
	if err != nil || sol.Warm {
		t.Fatalf("dim mismatch: err=%v warm=%v", err, sol.Warm)
	}

	// Strongly indefinite X0: the push-to-interior blend cannot rescue it,
	// so the test factorization fails and the solver starts cold.
	neg := linalg.Identity(10)
	neg.Scale(-1e6)
	bad = warmIPMOptions(prev)
	bad.X0 = []*linalg.Dense{neg}
	sol, err = SolveIPM(p, bad)
	if err != nil || sol.Warm {
		t.Fatalf("indefinite X0: err=%v warm=%v", err, sol.Warm)
	}
	if sol.Status != StatusOptimal {
		t.Fatalf("fallback solve: %v", sol.Status)
	}
	assertKKT(t, p, sol, 1e-5)

	// Missing duals.
	bad = warmIPMOptions(prev)
	bad.Y0 = nil
	sol, err = SolveIPM(p, bad)
	if err != nil || sol.Warm {
		t.Fatalf("missing Y0: err=%v warm=%v", err, sol.Warm)
	}
}

// TestIPMReuseTransparent — a shared IPMReuse handle across a sequence of
// same-constraint solves must leave every trajectory bitwise identical to
// the solve without the cache, and a structural change must invalidate it
// rather than corrupt the solve.
func TestIPMReuseTransparent(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	p := randomFeasibleSDP(rng, 12, 10)
	objs := []*Problem{p, perturbObjective(p, rng, 0.05), perturbObjective(p, rng, 0.1)}

	solveHash := func(q *Problem, reuse *IPMReuse) [32]byte {
		ring := trajectoryRing()
		sol, err := SolveIPM(q, IPMOptions{Reuse: reuse, Trace: ring})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != StatusOptimal {
			t.Fatalf("status %v", sol.Status)
		}
		return trajectoryHash(t, ring, sol)
	}

	reuse := &IPMReuse{}
	for i, q := range objs {
		if got, want := solveHash(q, reuse), solveHash(q, nil); got != want {
			t.Fatalf("objective %d: reused trajectory diverged from fresh solve", i)
		}
	}

	// Structural change: one more constraint. The handle must miss and
	// rebuild; the solve must still match a fresh one.
	bigger := randomFeasibleSDP(rand.New(rand.NewSource(29)), 12, 11)
	if got, want := solveHash(bigger, reuse), solveHash(bigger, nil); got != want {
		t.Fatal("after structural change: reused trajectory diverged from fresh solve")
	}
}

// TestIPMWarmDeterministicAcrossWorkers — the w=1/2/8 bitwise-trajectory
// contract must survive warm starting (the blend and the test factorizations
// all run on the deterministic parallel kernels).
func TestIPMWarmDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	p := randomFeasibleSDP(rng, 40, 30)
	prev, err := SolveIPM(p, IPMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	q := perturbObjective(p, rng, 0.05)
	var ref [32]byte
	for i, workers := range []int{1, 2, 8} {
		ring := trajectoryRing()
		opt := warmIPMOptions(prev)
		opt.Workers = workers
		opt.Trace = ring
		sol, err := SolveIPM(q, opt)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !sol.Warm {
			t.Fatalf("workers=%d: warm start not consumed", workers)
		}
		h := trajectoryHash(t, ring, sol)
		if i == 0 {
			ref = h
		} else if h != ref {
			t.Fatalf("workers=%d: warm trajectory diverged from workers=1", workers)
		}
	}
}

// TestADMMWarmDeterministicAcrossWorkers — same contract for ADMM warm state.
func TestADMMWarmDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	p := randomFeasibleSDP(rng, 25, 15)
	prev, err := SolveADMM(p, ADMMOptions{MaxIter: 400})
	if err != nil {
		t.Fatal(err)
	}
	q := perturbObjective(p, rng, 0.05)
	var ref [32]byte
	for i, workers := range []int{1, 2, 8} {
		ring := trajectoryRing()
		opt := ADMMOptions{Workers: workers, MaxIter: 400,
			X0: prev.X, XLP0: prev.XLP, Y0: prev.Y, S0: prev.S, SLP0: prev.SLP, Mu0: prev.Mu,
			Trace: ring}
		sol, err := SolveADMM(q, opt)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !sol.Warm {
			t.Fatalf("workers=%d: warm start not consumed", workers)
		}
		h := trajectoryHash(t, ring, sol)
		if i == 0 {
			ref = h
		} else if h != ref {
			t.Fatalf("workers=%d: warm trajectory diverged from workers=1", workers)
		}
	}
}
