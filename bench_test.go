package sdpfloor

// The bench harness regenerates every table and figure of the paper (see
// DESIGN.md §4) plus the ablations of §5. Scale is controlled by the
// SDPFLOOR_BENCH environment variable:
//
//	(unset)              smoke scale  — seconds per bench
//	SDPFLOOR_BENCH=fast  n10–n50 + ami33/ami49 — minutes per table
//	SDPFLOOR_BENCH=full  paper scale (n100/n200) — hours, like the original
//
// Each bench writes the experiment's rows to stdout on the first iteration
// so `go test -bench` output doubles as the reproduction record.

import (
	"fmt"
	"io"
	"math"
	"os"
	"testing"

	"sdpfloor/internal/anneal"
	"sdpfloor/internal/core"
	"sdpfloor/internal/experiments"
	"sdpfloor/internal/legalize"
	"sdpfloor/internal/netlist"
)

func benchMode() experiments.Mode {
	switch os.Getenv("SDPFLOOR_BENCH") {
	case "full":
		return experiments.Mode{Full: true}
	case "fast":
		return experiments.Mode{}
	default:
		return experiments.Mode{Quick: true}
	}
}

// runExperiment executes one experiment per bench iteration, echoing the
// rows once.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	mode := benchMode()
	for i := 0; i < b.N; i++ {
		var w io.Writer = io.Discard
		if i == 0 {
			w = os.Stdout
			fmt.Printf("\n--- %s (quick=%v full=%v) ---\n", id, mode.Quick, mode.Full)
		}
		if err := experiments.Run(id, w, mode); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1ModelSlices(b *testing.B)        { runExperiment(b, "fig1") }
func BenchmarkFig2OptimalDistance(b *testing.B)    { runExperiment(b, "fig2") }
func BenchmarkFig3AdaptiveConstraint(b *testing.B) { runExperiment(b, "fig3") }
func BenchmarkTable1Properties(b *testing.B)       { runExperiment(b, "table1") }
func BenchmarkFig4AlphaSweep(b *testing.B)         { runExperiment(b, "fig4") }
func BenchmarkFig5aConvergence(b *testing.B)       { runExperiment(b, "fig5a") }
func BenchmarkFig5bRuntimeScaling(b *testing.B)    { runExperiment(b, "fig5b") }
func BenchmarkTable2OursVsARPP(b *testing.B)       { runExperiment(b, "table2") }
func BenchmarkTable3OursVsSAAnalytical(b *testing.B) {
	runExperiment(b, "table3")
}

// --- Ablations (DESIGN.md §5) ---

// benchDesign returns the ablation workload for the current scale.
func benchDesign(b *testing.B) *Design {
	b.Helper()
	name := "n10"
	if !benchMode().Quick {
		name = "n30"
	}
	d, err := LoadBenchmark(name, 1, 0.15)
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// BenchmarkAblationLazyConstraints compares the full O(n²) constraint set
// against the lazy working set: same solution quality, different cost.
func BenchmarkAblationLazyConstraints(b *testing.B) {
	d := benchDesign(b)
	for _, lazy := range []bool{false, true} {
		name := "full"
		if lazy {
			name = "lazy"
		}
		b.Run(name, func(b *testing.B) {
			var obj float64
			for i := 0; i < b.N; i++ {
				res, err := core.Solve(d.Netlist, core.Options{
					MaxIter: 8, AlphaMaxDoublings: 4,
					Outline: &d.Outline, LazyConstraints: lazy,
				})
				if err != nil {
					b.Fatal(err)
				}
				obj = res.Objective
			}
			b.ReportMetric(obj, "objective")
		})
	}
}

// BenchmarkAblationSolver compares the interior-point and ADMM solvers on
// identical sub-problem-1 instances (one convex iteration each).
func BenchmarkAblationSolver(b *testing.B) {
	d := benchDesign(b)
	for _, kind := range []core.SolverKind{core.SolverIPM, core.SolverADMM} {
		b.Run(kind.String(), func(b *testing.B) {
			var obj float64
			for i := 0; i < b.N; i++ {
				res, err := core.Solve(d.Netlist, core.Options{
					MaxIter: 1, AlphaMaxDoublings: 1, Alpha0: 8,
					Outline: &d.Outline, LazyConstraints: true,
					Solver:        kind,
					SolverMaxIter: admmIters(kind),
				})
				if err != nil {
					b.Fatal(err)
				}
				obj = res.Objective
			}
			b.ReportMetric(obj, "objective")
		})
	}
}

func admmIters(kind core.SolverKind) int {
	if kind == core.SolverADMM {
		return 3000
	}
	return 0
}

// BenchmarkAblationNetModel compares the clique objective against the
// Manhattan-adaptive and hyper-edge-adaptive variants (Eq. 20).
func BenchmarkAblationNetModel(b *testing.B) {
	d := benchDesign(b)
	variants := []struct {
		name string
		opt  core.Options
	}{
		{"clique", core.Options{}},
		{"manhattan", core.Options{Manhattan: true}},
		{"hyperedge", core.Options{Manhattan: true, HyperEdge: true}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			var hpwl float64
			for i := 0; i < b.N; i++ {
				opt := v.opt
				opt.MaxIter = 8
				opt.AlphaMaxDoublings = 4
				opt.Outline = &d.Outline
				opt.LazyConstraints = true
				res, err := core.Solve(d.Netlist, opt)
				if err != nil {
					b.Fatal(err)
				}
				leg, err := legalize.Legalize(d.Netlist, res.Centers, legalize.Options{Outline: d.Outline})
				if err != nil {
					b.Fatal(err)
				}
				hpwl = leg.HPWL
			}
			b.ReportMetric(hpwl, "hpwl")
		})
	}
}

// BenchmarkAblationRankExtraction compares reading X off the Z block
// (Algorithm 1) against the best-rank-2 factorization of G on a pad-free
// instance, where both are valid.
func BenchmarkAblationRankExtraction(b *testing.B) {
	nl := &netlist.Netlist{}
	for i := 0; i < 8; i++ {
		nl.Modules = append(nl.Modules, netlist.Module{
			Name: fmt.Sprintf("m%d", i), MinArea: 1 + float64(i%3), MaxAspect: 3,
		})
	}
	for i := 0; i < 8; i++ {
		nl.Nets = append(nl.Nets, netlist.Net{
			Name: fmt.Sprintf("e%d", i), Weight: 1, Modules: []int{i, (i + 3) % 8},
		})
	}
	res, err := core.Solve(nl, core.Options{MaxIter: 10})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("xblock", func(b *testing.B) {
		var obj float64
		for i := 0; i < b.N; i++ {
			cs := core.ExtractCenters(res.Z)
			obj = pairObjective(nl, cs)
		}
		b.ReportMetric(obj, "sq_objective")
	})
	b.Run("bestrank2", func(b *testing.B) {
		var obj float64
		for i := 0; i < b.N; i++ {
			cs, err := core.ExtractBestRank2(res.Z)
			if err != nil {
				b.Fatal(err)
			}
			obj = pairObjective(nl, cs)
		}
		b.ReportMetric(obj, "sq_objective")
	})
}

func pairObjective(nl *netlist.Netlist, cs []Point) float64 {
	a := nl.Adjacency()
	total := 0.0
	for i := 0; i < nl.N(); i++ {
		for j := 0; j < nl.N(); j++ {
			total += a.At(i, j) * cs[i].DistSq(cs[j])
		}
	}
	return total
}

// BenchmarkPlaceEndToEnd measures the full Place pipeline at bench scale.
func BenchmarkPlaceEndToEnd(b *testing.B) {
	d := benchDesign(b)
	var hpwl float64
	for i := 0; i < b.N; i++ {
		fp, err := Place(d.Netlist, Config{Outline: d.Outline})
		if err != nil {
			b.Fatal(err)
		}
		hpwl = fp.HPWL
	}
	b.ReportMetric(hpwl, "hpwl")
}

// BenchmarkGlobalSolveWorkers measures one convex-iteration global solve at
// per-solve parallelism 1 vs 4 — the end-to-end view of the worker-pool
// port (the kernel-level w1/w4 splits live in internal/linalg and
// internal/sdp). The solver trajectory is bitwise identical across worker
// counts, so both sub-benchmarks do the same arithmetic.
func BenchmarkGlobalSolveWorkers(b *testing.B) {
	d := benchDesign(b)
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("w%d", w), func(b *testing.B) {
			opt := GlobalOptions{MaxIter: 3, AlphaMaxDoublings: 1, LazyConstraints: true, Workers: w}
			o := d.Outline
			opt.Outline = &o
			for i := 0; i < b.N; i++ {
				res, err := GlobalFloorplan(d.Netlist, opt)
				if err != nil {
					b.Fatal(err)
				}
				if res.Objective == 0 {
					b.Fatal("degenerate solve")
				}
			}
		})
	}
}

// BenchmarkSequencePairPacking measures the FAST-SP packing kernel.
func BenchmarkSequencePairPacking(b *testing.B) {
	n := 200
	sp := anneal.NewSeqPair(n)
	w := make([]float64, n)
	h := make([]float64, n)
	for i := range w {
		w[i] = 1 + math.Mod(float64(i)*0.37, 3)
		h[i] = 1 + math.Mod(float64(i)*0.73, 3)
	}
	ws := anneal.NewPackWork(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp.Pack(w, h, ws)
	}
}

// BenchmarkAblationHierarchical compares the flat SDP formulation against
// the hierarchical extension (the paper's stated future work) on the same
// design: the hierarchical flow trades some wirelength for a much smaller
// per-solve Schur complement.
func BenchmarkAblationHierarchical(b *testing.B) {
	d := benchDesign(b)
	for _, m := range []Method{MethodSDP, MethodSDPHier} {
		b.Run(string(m), func(b *testing.B) {
			var hpwl float64
			for i := 0; i < b.N; i++ {
				fp, err := Place(d.Netlist, Config{
					Outline: d.Outline, Method: m,
					Global: GlobalOptions{MaxIter: 8, AlphaMaxDoublings: 5},
				})
				if err != nil {
					b.Fatal(err)
				}
				hpwl = fp.HPWL
			}
			b.ReportMetric(hpwl, "hpwl")
		})
	}
}

// BenchmarkAblationLegalizer compares the default penalty/L-BFGS legalization
// pipeline against the paper-faithful SOCP shape optimization solved on the
// interior-point solver (same constraint graphs, same compaction).
func BenchmarkAblationLegalizer(b *testing.B) {
	d := benchDesign(b)
	res, err := core.Solve(d.Netlist, core.Options{
		MaxIter: 8, AlphaMaxDoublings: 5,
		Outline: &d.Outline, LazyConstraints: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("penalty", func(b *testing.B) {
		var hpwl float64
		for i := 0; i < b.N; i++ {
			leg, err := legalize.Legalize(d.Netlist, res.Centers, legalize.Options{Outline: d.Outline})
			if err != nil {
				b.Fatal(err)
			}
			hpwl = leg.HPWL
		}
		b.ReportMetric(hpwl, "hpwl")
	})
	b.Run("socp", func(b *testing.B) {
		var hpwl float64
		for i := 0; i < b.N; i++ {
			leg, err := legalize.SOCPShapes(d.Netlist, res.Centers, legalize.Options{Outline: d.Outline})
			if err != nil {
				b.Fatal(err)
			}
			hpwl = leg.HPWL
		}
		b.ReportMetric(hpwl, "hpwl")
	})
}

// BenchmarkAblationRepresentation compares the two packing representations
// (sequence pair with FAST-SP vs B*-tree with contour packing) under the
// same annealing budget — the trade-off the paper's related work discusses.
func BenchmarkAblationRepresentation(b *testing.B) {
	d := benchDesign(b)
	opt := anneal.Options{Outline: d.Outline, Seed: 9}
	b.Run("seqpair", func(b *testing.B) {
		var hpwl float64
		for i := 0; i < b.N; i++ {
			res, err := anneal.Solve(d.Netlist, opt)
			if err != nil {
				b.Fatal(err)
			}
			hpwl = res.HPWL
		}
		b.ReportMetric(hpwl, "hpwl")
	})
	b.Run("btree", func(b *testing.B) {
		var hpwl float64
		for i := 0; i < b.N; i++ {
			res, err := anneal.SolveBTree(d.Netlist, opt)
			if err != nil {
				b.Fatal(err)
			}
			hpwl = res.HPWL
		}
		b.ReportMetric(hpwl, "hpwl")
	})
}
