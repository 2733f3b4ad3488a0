package sdp

import (
	"math"
	"math/rand"
	"testing"

	"sdpfloor/internal/linalg"
	"sdpfloor/internal/trace"
)

// minTraceProblem: min tr(X) s.t. X₀₀ = 1, X ⪰ 0 (2×2). Optimum: X = e₀e₀ᵀ,
// objective 1.
func minTraceProblem() *Problem {
	return &Problem{
		PSDDims: []int{2},
		C:       []*linalg.Dense{linalg.Identity(2)},
		Cons: []Constraint{
			{PSD: [][]Entry{{{I: 0, J: 0, V: 1}}}, B: 1},
		},
	}
}

// minEigProblem: min ⟨C, X⟩ s.t. tr(X) = 1, X ⪰ 0 — the optimum is λmin(C).
func minEigProblem(c *linalg.Dense) *Problem {
	n := c.Rows
	tr := make([]Entry, n)
	for i := 0; i < n; i++ {
		tr[i] = Entry{I: i, J: i, V: 1}
	}
	return &Problem{
		PSDDims: []int{n},
		C:       []*linalg.Dense{c},
		Cons:    []Constraint{{PSD: [][]Entry{tr}, B: 1}},
	}
}

func TestIPMMinTrace(t *testing.T) {
	sol, err := SolveIPM(minTraceProblem(), IPMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if math.Abs(sol.PrimalObj-1) > 1e-5 {
		t.Fatalf("objective = %g, want 1", sol.PrimalObj)
	}
	if math.Abs(sol.X[0].At(0, 0)-1) > 1e-4 || math.Abs(sol.X[0].At(1, 1)) > 1e-4 {
		t.Fatalf("X = \n%v", sol.X[0])
	}
}

func TestIPMMinEigenvalue(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 5; trial++ {
		n := 3 + trial
		c := linalg.NewDense(n, n)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				v := rng.NormFloat64()
				c.Set(i, j, v)
				c.Set(j, i, v)
			}
		}
		eg, err := linalg.NewSymEig(c)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := SolveIPM(minEigProblem(c), IPMOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != StatusOptimal {
			t.Fatalf("trial %d: status = %v", trial, sol.Status)
		}
		if math.Abs(sol.PrimalObj-eg.MinEigenvalue()) > 1e-5*(1+math.Abs(eg.MinEigenvalue())) {
			t.Fatalf("trial %d: objective %g, want λmin %g", trial, sol.PrimalObj, eg.MinEigenvalue())
		}
	}
}

func TestIPMPureLP(t *testing.T) {
	// min −x₀ − x₁ s.t. x₀ + x₁ + x₂ = 1, 2x₀ + x₂' hmm keep one constraint:
	// x ≥ 0, so optimum −1 at any x₀+x₁=1.
	p := &Problem{
		LPDim: 3,
		CLP:   []float64{-1, -1, 0},
		Cons: []Constraint{
			{LP: []LPEntry{{I: 0, V: 1}, {I: 1, V: 1}, {I: 2, V: 1}}, B: 1},
		},
	}
	sol, err := SolveIPM(p, IPMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if math.Abs(sol.PrimalObj+1) > 1e-6 {
		t.Fatalf("objective = %g, want -1", sol.PrimalObj)
	}
}

func TestIPMLPVertexSolution(t *testing.T) {
	// min −2x₀ − x₁ s.t. x₀ + x₁ ≤ 3, x₀ ≤ 2 (slacks x₂, x₃).
	// Optimum at (2,1): objective −5.
	p := &Problem{
		LPDim: 4,
		CLP:   []float64{-2, -1, 0, 0},
		Cons: []Constraint{
			{LP: []LPEntry{{I: 0, V: 1}, {I: 1, V: 1}, {I: 2, V: 1}}, B: 3},
			{LP: []LPEntry{{I: 0, V: 1}, {I: 3, V: 1}}, B: 2},
		},
	}
	sol, err := SolveIPM(p, IPMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal || math.Abs(sol.PrimalObj+5) > 1e-5 {
		t.Fatalf("status=%v obj=%g, want optimal -5", sol.Status, sol.PrimalObj)
	}
	if math.Abs(sol.XLP[0]-2) > 1e-4 || math.Abs(sol.XLP[1]-1) > 1e-4 {
		t.Fatalf("x = %v, want (2,1,...)", sol.XLP)
	}
}

// twoCircleProblem is the two-module floorplanning SDP: Z ∈ S⁴₊ with
// Z[0:2,0:2] = I, distance constraint D₀₁ ≥ 4 (radii 1+1), objective 2·D₀₁.
// Optimum objective: 8.
func twoCircleProblem() *Problem {
	c := linalg.NewDense(4, 4)
	// B = [[2,-2],[-2,2]] in the G block (rows/cols 2,3).
	c.Set(2, 2, 2)
	c.Set(3, 3, 2)
	c.Set(2, 3, -2)
	c.Set(3, 2, -2)
	dist := []Entry{{I: 2, J: 2, V: 1}, {I: 3, J: 3, V: 1}, {I: 2, J: 3, V: -1}}
	return &Problem{
		PSDDims: []int{4},
		LPDim:   1,
		C:       []*linalg.Dense{c},
		CLP:     []float64{0},
		Cons: []Constraint{
			{PSD: [][]Entry{{{I: 0, J: 0, V: 1}}}, B: 1},
			{PSD: [][]Entry{{{I: 1, J: 1, V: 1}}}, B: 1},
			{PSD: [][]Entry{{{I: 0, J: 1, V: 1}}}, B: 0},
			{PSD: [][]Entry{dist}, LP: []LPEntry{{I: 0, V: -1}}, B: 4},
		},
	}
}

func TestIPMTwoCircleFloorplan(t *testing.T) {
	sol, err := SolveIPM(twoCircleProblem(), IPMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal {
		t.Fatalf("status = %v", sol.Status)
	}
	assertKKT(t, twoCircleProblem(), sol, 1e-5)
	if math.Abs(sol.PrimalObj-8) > 1e-4 {
		t.Fatalf("objective = %g, want 8", sol.PrimalObj)
	}
	// Identity block must be (numerically) the identity.
	z := sol.X[0]
	if math.Abs(z.At(0, 0)-1) > 1e-5 || math.Abs(z.At(1, 1)-1) > 1e-5 || math.Abs(z.At(0, 1)) > 1e-5 {
		t.Fatalf("identity block violated:\n%v", z)
	}
	// Distance at the optimum is exactly the bound.
	d := z.At(2, 2) + z.At(3, 3) - 2*z.At(2, 3)
	if math.Abs(d-4) > 1e-4 {
		t.Fatalf("D01 = %g, want 4", d)
	}
}

// randomFeasibleSDP builds an SDP with known strictly feasible primal and
// dual points so that strong duality holds.
func randomFeasibleSDP(rng *rand.Rand, n, m int) *Problem {
	cons := make([]Constraint, m)
	// Random sparse symmetric constraint matrices.
	mats := make([]*linalg.Dense, m)
	for k := 0; k < m; k++ {
		a := linalg.NewDense(n, n)
		es := []Entry{}
		for t := 0; t < 3; t++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i > j {
				i, j = j, i
			}
			v := rng.NormFloat64()
			es = append(es, Entry{I: i, J: j, V: v})
			a.Add(i, j, v)
			if i != j {
				a.Add(j, i, v)
			}
		}
		cons[k] = Constraint{PSD: [][]Entry{es}}
		mats[k] = a
	}
	// Strictly feasible primal X₀ ≻ 0 → b = A(X₀).
	r := linalg.NewDense(n, n)
	for i := range r.Data {
		r.Data[i] = rng.NormFloat64()
	}
	x0 := linalg.MatMul(r.T(), r)
	for i := 0; i < n; i++ {
		x0.Add(i, i, 1)
	}
	for k := 0; k < m; k++ {
		cons[k].B = linalg.InnerProd(mats[k], x0)
	}
	// Strictly feasible dual: C = Σ y_k A_k + S₀ with S₀ ≻ 0.
	c := linalg.Identity(n)
	for k := 0; k < m; k++ {
		c.AddScaled(rng.NormFloat64(), mats[k])
	}
	return &Problem{PSDDims: []int{n}, C: []*linalg.Dense{c}, Cons: cons}
}

func TestIPMRandomFeasibleSDPs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 8; trial++ {
		n := 3 + rng.Intn(5)
		m := 2 + rng.Intn(4)
		p := randomFeasibleSDP(rng, n, m)
		sol, err := SolveIPM(p, IPMOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != StatusOptimal {
			t.Fatalf("trial %d: status %v (gap %g, pinf %g, dinf %g)",
				trial, sol.Status, sol.Gap, sol.PrimalInfeas, sol.DualInfeas)
		}
		// The full KKT certificate subsumes weak duality, feasibility, and
		// cone membership (see certify_test.go for the tolerance contract).
		if err := CheckKKT(p, sol, 1e-5); err != nil {
			t.Fatalf("trial %d: kkt: %v", trial, err)
		}
	}
}

func TestIPMKyFanMatchesClosedForm(t *testing.T) {
	// min ⟨Z, W⟩ s.t. 0 ⪯ W ⪯ I, tr(W) = k equals the sum of the k smallest
	// eigenvalues of Z (Ky Fan). Encode I − W as a second PSD block T with
	// coupling constraints W + T = I.
	rng := rand.New(rand.NewSource(5))
	n, k := 4, 2
	z := linalg.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64()
			z.Set(i, j, v)
			z.Set(j, i, v)
		}
	}
	var cons []Constraint
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			rhsV := 0.0
			if i == j {
				rhsV = 1
			}
			cons = append(cons, Constraint{
				PSD: [][]Entry{
					{{I: i, J: j, V: 1}},
					{{I: i, J: j, V: 1}},
				},
				B: rhsV,
			})
		}
	}
	trW := make([]Entry, n)
	for i := 0; i < n; i++ {
		trW[i] = Entry{I: i, J: i, V: 1}
	}
	cons = append(cons, Constraint{PSD: [][]Entry{trW}, B: float64(k)})
	p := &Problem{
		PSDDims: []int{n, n},
		C:       []*linalg.Dense{z, linalg.NewDense(n, n)},
		Cons:    cons,
	}
	sol, err := SolveIPM(p, IPMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal {
		t.Fatalf("status = %v", sol.Status)
	}
	eg, err := linalg.NewSymEig(z)
	if err != nil {
		t.Fatal(err)
	}
	want := eg.Values[0] + eg.Values[1]
	if math.Abs(sol.PrimalObj-want) > 1e-5*(1+math.Abs(want)) {
		t.Fatalf("Ky Fan objective = %g, want %g", sol.PrimalObj, want)
	}
}

func TestADMMMinTrace(t *testing.T) {
	sol, err := SolveADMM(minTraceProblem(), ADMMOptions{Tol: 1e-6, MaxIter: 20000})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal {
		t.Fatalf("status = %v (pres %g dres %g)", sol.Status, sol.PrimalInfeas, sol.DualInfeas)
	}
	if math.Abs(sol.PrimalObj-1) > 1e-3 {
		t.Fatalf("objective = %g, want 1", sol.PrimalObj)
	}
}

func TestADMMMatchesIPMOnMinEig(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 5
	c := linalg.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64()
			c.Set(i, j, v)
			c.Set(j, i, v)
		}
	}
	p := minEigProblem(c)
	ipm, err := SolveIPM(p, IPMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	admm, err := SolveADMM(p, ADMMOptions{Tol: 1e-7, MaxIter: 50000})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ipm.PrimalObj-admm.PrimalObj) > 1e-3*(1+math.Abs(ipm.PrimalObj)) {
		t.Fatalf("ADMM %g vs IPM %g", admm.PrimalObj, ipm.PrimalObj)
	}
	// Both solvers must produce a KKT certificate, at their respective
	// accuracy: interior-point tight, first-order loose.
	assertKKT(t, p, ipm, 1e-5)
	assertKKT(t, p, admm, 1e-3)
}

func TestADMMTwoCircle(t *testing.T) {
	sol, err := SolveADMM(twoCircleProblem(), ADMMOptions{Tol: 1e-6, MaxIter: 50000})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.PrimalObj-8) > 5e-3 {
		t.Fatalf("objective = %g, want 8 (status %v)", sol.PrimalObj, sol.Status)
	}
}

func TestValidateErrors(t *testing.T) {
	p := minTraceProblem()
	p.Cons[0].PSD[0][0].I = 9
	if err := p.Validate(); err == nil {
		t.Fatal("expected out-of-range error")
	}
	p2 := minTraceProblem()
	p2.LPDim = 2
	if err := p2.Validate(); err == nil {
		t.Fatal("expected CLP length error")
	}
	p3 := minTraceProblem()
	p3.Cons[0].LP = []LPEntry{{I: 0, V: 1}}
	if err := p3.Validate(); err == nil {
		t.Fatal("expected LP index error")
	}
	p4 := minTraceProblem()
	p4.C = nil
	if err := p4.Validate(); err == nil {
		t.Fatal("expected C length error")
	}
}

func TestStatusString(t *testing.T) {
	if StatusOptimal.String() != "optimal" ||
		StatusIterationLimit.String() != "iteration-limit" ||
		StatusNumericalFailure.String() != "numerical-failure" {
		t.Fatal("Status strings wrong")
	}
	if Status(99).String() == "" {
		t.Fatal("unknown status should still render")
	}
}

func TestIPMWithTraceAndLooseGamma(t *testing.T) {
	ring := trace.NewRing(256)
	sol, err := SolveIPM(minTraceProblem(), IPMOptions{Gamma: 0.9, Trace: ring})
	if err != nil {
		t.Fatal(err)
	}
	iters := 0
	for _, ev := range ring.Snapshot() {
		if ev.Kind == trace.KindIter {
			iters++
		}
	}
	if sol.Status != StatusOptimal || iters == 0 {
		t.Fatalf("status=%v traced iterations=%d", sol.Status, iters)
	}
}

func TestIPMIterationLimit(t *testing.T) {
	sol, err := SolveIPM(minEigProblem(linalg.Identity(4)), IPMOptions{MaxIter: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusIterationLimit && sol.Status != StatusOptimal {
		t.Fatalf("unexpected status %v", sol.Status)
	}
	// Even when cut short, the solution fields must be populated.
	if sol.X == nil || sol.Y == nil {
		t.Fatal("truncated solve lost its iterates")
	}
}

func TestIPMEqualityPinsEntry(t *testing.T) {
	// min tr(X) s.t. X₀₁ = 0.3 (symmetric off-diagonal pin), X ⪰ 0 (2×2).
	// Optimum: X = [[a, .3], [.3, b]] minimizing a+b with ab ≥ 0.09 → a=b=0.3.
	p := &Problem{
		PSDDims: []int{2},
		C:       []*linalg.Dense{linalg.Identity(2)},
		Cons: []Constraint{
			{PSD: [][]Entry{{{I: 0, J: 1, V: 0.5}}}, B: 0.3},
		},
	}
	sol, err := SolveIPM(p, IPMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal {
		t.Fatalf("status %v", sol.Status)
	}
	if math.Abs(sol.PrimalObj-0.6) > 1e-5 {
		t.Fatalf("objective %g, want 0.6", sol.PrimalObj)
	}
	if math.Abs(sol.X[0].At(0, 1)-0.3) > 1e-5 {
		t.Fatalf("X01 = %g, want 0.3", sol.X[0].At(0, 1))
	}
}

func TestADMMWarmStartConverges(t *testing.T) {
	p := minTraceProblem()
	cold, err := SolveADMM(p, ADMMOptions{Tol: 1e-6, MaxIter: 20000})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := SolveADMM(p, ADMMOptions{
		Tol: 1e-6, MaxIter: 20000,
		X0: cold.X, XLP0: cold.XLP, Y0: cold.Y,
	})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Status != StatusOptimal {
		t.Fatalf("warm status %v", warm.Status)
	}
	if warm.Iterations > cold.Iterations {
		t.Fatalf("warm start took more iterations (%d) than cold (%d)", warm.Iterations, cold.Iterations)
	}
}

func TestADMMIterationLimitReported(t *testing.T) {
	sol, err := SolveADMM(twoCircleProblem(), ADMMOptions{Tol: 1e-12, MaxIter: 5})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusIterationLimit {
		t.Fatalf("status %v, want iteration-limit", sol.Status)
	}
}

func TestIPMComplementaritySlackness(t *testing.T) {
	// At optimality ⟨X, S⟩ ≈ 0 for every block and the LP part.
	sol, err := SolveIPM(twoCircleProblem(), IPMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal {
		t.Fatalf("status %v", sol.Status)
	}
	// assertKKT includes ⟨X,S⟩ ≈ 0 and PSD-ness of the dual slack, the
	// conditions this test originally spelled out by hand.
	assertKKT(t, twoCircleProblem(), sol, 1e-5)
}

func TestConstraintNormAndConeDim(t *testing.T) {
	p := twoCircleProblem()
	if p.coneDim() != 5 { // 4 PSD + 1 LP
		t.Fatalf("coneDim = %d, want 5", p.coneDim())
	}
	c := &p.Cons[3] // the distance constraint
	// ‖A‖F² = 1 + 1 + 2·1 (off-diagonal counted twice) + 1 (slack).
	want := math.Sqrt(1 + 1 + 2 + 1)
	if got := constraintNorm(c); math.Abs(got-want) > 1e-12 {
		t.Fatalf("constraintNorm = %g, want %g", got, want)
	}
}

func TestIPMBadlyScaledProblem(t *testing.T) {
	// Mix constraints whose norms differ by 10⁶: the equilibration presolve
	// must keep the solve accurate.
	p := minEigProblem(linalg.Identity(3))
	// Rescale the trace constraint by 10⁶ (same feasible set).
	for i := range p.Cons[0].PSD[0] {
		p.Cons[0].PSD[0][i].V *= 1e6
	}
	p.Cons[0].B *= 1e6
	// Add a tiny-norm redundant-ish constraint: X₀₁ = 0 scaled down.
	p.Cons = append(p.Cons, Constraint{
		PSD: [][]Entry{{{I: 0, J: 1, V: 1e-6}}}, B: 0,
	})
	if r := maxNormRatio(p); r < 1e9 {
		t.Fatalf("test premise wrong: norm ratio %g", r)
	}
	sol, err := SolveIPM(p, IPMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal {
		t.Fatalf("status %v", sol.Status)
	}
	if math.Abs(sol.PrimalObj-1) > 1e-4 { // λmin of I is 1
		t.Fatalf("objective %g, want 1", sol.PrimalObj)
	}
	// Duality gap must close against the ORIGINAL data scale.
	if math.Abs(sol.PrimalObj-sol.DualObj) > 1e-3*(1+math.Abs(sol.PrimalObj)) {
		t.Fatalf("duality gap: pobj %g dobj %g", sol.PrimalObj, sol.DualObj)
	}
}

func TestEquilibrateUnitNorms(t *testing.T) {
	p := twoCircleProblem()
	sp := equilibrate(p)
	for k := range sp.p.Cons {
		if n := constraintNorm(&sp.p.Cons[k]); math.Abs(n-1) > 1e-12 {
			t.Fatalf("constraint %d norm %g after equilibration", k, n)
		}
	}
	// Scaled problem solves to the same optimum.
	sol, err := SolveIPM(p, IPMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	solNS, err := SolveIPM(p, IPMOptions{NoScale: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.PrimalObj-solNS.PrimalObj) > 1e-4*(1+math.Abs(sol.PrimalObj)) {
		t.Fatalf("scaled %g vs unscaled %g", sol.PrimalObj, solNS.PrimalObj)
	}
}
