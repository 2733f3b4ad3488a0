package core

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"sdpfloor/internal/gsrc"
	"sdpfloor/internal/linalg"
	"sdpfloor/internal/netlist"
	"sdpfloor/internal/sdp"
	"sdpfloor/internal/trace"
)

// builtinNL loads one of the bundled GSRC designs as a netlist.
func builtinNL(t *testing.T, name string) *netlist.Netlist {
	t.Helper()
	d, err := gsrc.Builtin(name, 1, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	return d.Netlist
}

// subProblemParity drives two consecutive sub-problem-1 solves through the
// builder — exactly the sequence the convex iteration produces — and checks
// the warm second solve against a cold solve of the same problem: both must
// certify KKT at the solver's accuracy and agree in objective.
func subProblemParity(t *testing.T, nl *netlist.Netlist, kind SolverKind, lazy bool, kktTol float64) {
	t.Helper()
	opt := Options{Solver: kind, Workers: 1}
	if kind == SolverADMM {
		opt.SolverMaxIter = 50000
		opt.SolverTol = 1e-5
	}
	opt.setDefaults()
	bld := newBuilder(nl, &opt)
	var pairs []pair
	if lazy {
		pairs = bld.seedPairs()
	} else {
		pairs = bld.allPairs()
	}
	bt := netlist.BuildB(bld.baseA, 1)
	alpha := maxf(0.5, meanDiagonal(bt)/4)

	// Iterate 1: cold by construction (nothing recorded yet).
	c1 := bld.objectiveC(bt, linalg.Identity(bld.dim), alpha)
	prob1 := bld.buildProblem(c1, pairs)
	first, err := bld.solveProblem(prob1, pairs)
	if err != nil {
		t.Fatal(err)
	}
	if first.Status != sdp.StatusOptimal {
		t.Fatalf("iterate 1: status %v", first.Status)
	}
	if first.Warm {
		t.Fatal("iterate 1 cannot be warm")
	}
	if err := sdp.CheckKKT(prob1, first, kktTol); err != nil {
		t.Fatalf("iterate 1 kkt: %v", err)
	}
	bld.noteSolution(first, pairs)

	// Iterate 2: the direction matrix moves, the constraints stay.
	z := first.X[0].Clone()
	z.Symmetrize()
	w2, _, _, err := DirectionMatrix(z, bld.n, 1)
	if err != nil {
		t.Fatal(err)
	}
	c2 := bld.objectiveC(bt, w2, alpha)
	prob2 := bld.buildProblem(c2, pairs)
	warm, err := bld.solveProblem(prob2, pairs)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Warm {
		t.Fatal("iterate 2 did not consume the warm start")
	}
	if warm.Status != sdp.StatusOptimal {
		t.Fatalf("warm solve: status %v", warm.Status)
	}
	if err := sdp.CheckKKT(prob2, warm, kktTol); err != nil {
		t.Fatalf("warm kkt: %v", err)
	}

	// Cold reference: a fresh builder with the layer switched off.
	optCold := Options{Solver: kind, Workers: 1, NoWarmStart: true}
	if kind == SolverADMM {
		optCold.SolverMaxIter = 50000
		optCold.SolverTol = 1e-5
	}
	optCold.setDefaults()
	bc := newBuilder(nl, &optCold)
	cold, err := bc.solveProblem(bc.buildProblem(c2, pairs), pairs)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Warm {
		t.Fatal("NoWarmStart solve reports Warm=true")
	}
	if cold.Status != sdp.StatusOptimal {
		t.Fatalf("cold solve: status %v", cold.Status)
	}
	if err := sdp.CheckKKT(prob2, cold, kktTol); err != nil {
		t.Fatalf("cold kkt: %v", err)
	}
	if d := math.Abs(warm.PrimalObj - cold.PrimalObj); d > 10*kktTol*(1+math.Abs(cold.PrimalObj)) {
		t.Fatalf("objectives diverge: warm %g vs cold %g", warm.PrimalObj, cold.PrimalObj)
	}
	t.Logf("%s iterate 2: warm %d iterations, cold %d", kind, warm.Iterations, cold.Iterations)
}

func TestSubProblemWarmColdParityIPMN10(t *testing.T) {
	subProblemParity(t, builtinNL(t, "n10"), SolverIPM, false, 1e-5)
}

func TestSubProblemWarmColdParityIPMN30(t *testing.T) {
	subProblemParity(t, builtinNL(t, "n30"), SolverIPM, true, 1e-5)
}

// ADMM parity runs on a chain instance: the first-order solver certifies
// optimality only on small sub-problems (on n10-sized ones it terminates at
// the iteration limit, which core tolerates but a KKT parity check cannot).
func TestSubProblemWarmColdParityADMMChain(t *testing.T) {
	subProblemParity(t, chainNL(3, 4), SolverADMM, false, 1e-3)
}

// TestSubProblemWarmAcrossWorkingSetChange — the projection must survive the
// lazy working set growing between solves: the prior iterate is mapped onto
// the new constraint rows and the added pairs get fresh slack variables.
func TestSubProblemWarmAcrossWorkingSetChange(t *testing.T) {
	nl := builtinNL(t, "n10")
	opt := Options{Workers: 1}
	opt.setDefaults()
	bld := newBuilder(nl, &opt)
	all := bld.allPairs()
	seed := all[:len(all)-3]

	bt := netlist.BuildB(bld.baseA, 1)
	alpha := maxf(0.5, meanDiagonal(bt)/4)
	c := bld.objectiveC(bt, linalg.Identity(bld.dim), alpha)

	first, err := bld.solveProblem(bld.buildProblem(c, seed), seed)
	if err != nil {
		t.Fatal(err)
	}
	if first.Status != sdp.StatusOptimal {
		t.Fatalf("seed solve: status %v", first.Status)
	}
	bld.noteSolution(first, seed)

	// Same objective, three pairs added: the projected warm start must still
	// be consumed and the solution must still certify.
	grown, err := bld.solveProblem(bld.buildProblem(c, all), all)
	if err != nil {
		t.Fatal(err)
	}
	if !grown.Warm {
		t.Fatal("warm start not consumed across working-set growth")
	}
	if grown.Status != sdp.StatusOptimal {
		t.Fatalf("grown solve: status %v", grown.Status)
	}
	if err := sdp.CheckKKT(bld.buildProblem(c, all), grown, 1e-5); err != nil {
		t.Fatalf("grown kkt: %v", err)
	}
	bld.noteSolution(grown, all)

	// And shrinking back: rows dropped, prior iterate projected down.
	shrunk, err := bld.solveProblem(bld.buildProblem(c, seed), seed)
	if err != nil {
		t.Fatal(err)
	}
	if !shrunk.Warm {
		t.Fatal("warm start not consumed across working-set shrink")
	}
	if err := sdp.CheckKKT(bld.buildProblem(c, seed), shrunk, 1e-5); err != nil {
		t.Fatalf("shrunk kkt: %v", err)
	}
}

// TestSolveWarmStartEndToEnd — with the layer on (the default) the full
// convex iteration must report warm-started sub-solves and spend fewer total
// solver iterations than with NoWarmStart, while landing on the same
// objective.
func TestSolveWarmStartEndToEnd(t *testing.T) {
	nl := builtinNL(t, "n10")
	warm, err := Solve(nl, Options{MaxIter: 8, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Solve(nl, Options{MaxIter: 8, Workers: 1, NoWarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	if cold.WarmStarts != 0 {
		t.Fatalf("NoWarmStart run reports %d warm starts", cold.WarmStarts)
	}
	if warm.WarmStarts == 0 {
		t.Fatal("warm run consumed no warm starts")
	}
	if warm.SubSolves < 2 {
		t.Fatalf("expected multiple sub-solves, got %d", warm.SubSolves)
	}
	if d := math.Abs(warm.Objective - cold.Objective); d > 0.05*(1+math.Abs(cold.Objective)) {
		t.Fatalf("objectives diverge: warm %g vs cold %g", warm.Objective, cold.Objective)
	}
	if warm.SolverIterations >= cold.SolverIterations {
		t.Errorf("warm starting saved no solver iterations: warm %d, cold %d",
			warm.SolverIterations, cold.SolverIterations)
	}
	t.Logf("solver iterations: warm %d (%d/%d sub-solves warm), cold %d",
		warm.SolverIterations, warm.WarmStarts, warm.SubSolves, cold.SolverIterations)
}

// TestSolveWarmTraceDeterministicAcrossWorkers — the bitwise trace contract
// (modulo timestamps) must hold with warm starting enabled, at any worker
// count.
func TestSolveWarmTraceDeterministicAcrossWorkers(t *testing.T) {
	var want []string
	for i, workers := range []int{1, 2, 8} {
		nl := builtinNL(t, "n10")
		var buf bytes.Buffer
		rec := trace.NewJSONL(&buf)
		if _, err := Solve(nl, Options{MaxIter: 4, Workers: workers, Trace: rec}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		for j := range lines {
			lines[j] = trace.StripTS(lines[j])
		}
		if i == 0 {
			want = lines
			continue
		}
		if len(lines) != len(want) {
			t.Fatalf("workers=%d: %d trace lines, want %d", workers, len(lines), len(want))
		}
		for j := range lines {
			if lines[j] != want[j] {
				t.Fatalf("workers=%d: trace line %d diverged:\n got %s\nwant %s",
					workers, j, lines[j], want[j])
			}
		}
	}
}
