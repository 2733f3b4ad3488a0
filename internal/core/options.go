// Package core implements the paper's primary contribution: global
// floorplanning as a rank-constrained SDP solved by convex iteration
// (Section IV). The main problem (Eqs. 10–12) minimizes ⟨B, G⟩ over
//
//	Z = [[I, X], [Xᵀ, G]] ⪰ 0,  D_ij ≥ (rᵢ+rⱼ)²,  rank(Z) = 2,
//
// and the rank constraint is replaced by a direction-matrix penalty
// α⟨W, Z⟩ (Eq. 13). Two sub-problems are alternated: sub-problem 1
// (Eq. 18) is a linear SDP solved by internal/sdp; sub-problem 2 (Eq. 19)
// has the closed-form Ky-Fan solution W = UUᵀ over the n smallest
// eigenvectors of Z. The outer loop doubles α until ⟨W, Z⟩ < ε
// (Algorithm 1).
//
// The enhancements of Section IV-B are all implemented: the adaptive
// Manhattan-distance B matrix (Eq. 20), its hyper-edge extension, boundary
// pins (Eq. 21), fixed outlines, pre-placed-module constraints (Eqs. 22–24),
// and the non-square adaptive distance constraints (Eqs. 25–26). A lazy
// working set over the O(n²) distance constraints and the 4n fixed-outline
// bounds keeps larger instances tractable without changing the solution
// (the final iterate is feasible for every pair and every bound).
package core

import (
	"context"

	"sdpfloor/internal/geom"
	"sdpfloor/internal/parallel"
	"sdpfloor/internal/trace"
)

// DistanceCap is an upper bound on the center distance of one module pair:
// D_IJ ≤ MaxDist². Added to sub-problem 1 alongside the separation lower
// bounds.
type DistanceCap struct {
	I, J    int
	MaxDist float64
}

// SolverKind selects the SDP solver for sub-problem 1.
type SolverKind int

// Available sub-problem solvers.
const (
	SolverIPM  SolverKind = iota // interior point (high accuracy; default)
	SolverADMM                   // first order (cheaper per constraint, lower accuracy)
)

func (s SolverKind) String() string {
	if s == SolverADMM {
		return "admm"
	}
	return "ipm"
}

// Options configure the convex-iteration floorplanner. The zero value gives
// the paper's defaults with all enhancements off (the "basic" algorithm of
// Section IV-A); see WithAllEnhancements.
type Options struct {
	// Alpha0 is the initial rank-penalty coefficient α (Algorithm 1). The
	// paper uses 0.5 for the small benchmarks and 1024 for n100/n200; the
	// default (0) auto-scales α to the objective magnitude, which lands in
	// the same place without burning outer rounds on too-small values.
	Alpha0 float64
	// AlphaMaxDoublings caps the outer loop (default 10).
	AlphaMaxDoublings int
	// MaxIter is the paper's max_iter: the hard cap on convex iterations
	// per α (the paper uses 50 with MOSEK; default here 20). A round
	// usually ends before it: at rank 2, when the two sub-problems converge
	// (Epsilon), or, while a larger α is still allowed, once ⟨W, Z⟩ stops
	// falling. The cap binds mostly in the last allowed round, which never
	// takes the stall exit, so a fixed-α run (AlphaMaxDoublings 1) runs
	// until convergence, rank 2, or MaxIter.
	MaxIter int
	// Epsilon is the convergence threshold on ‖ΔZ‖+‖ΔW‖ (default 2e-3,
	// relative to ‖Z‖).
	Epsilon float64

	// NonSquare enables the adaptive distance constraints of Eqs. 25–26.
	NonSquare bool
	// Manhattan enables the adaptive B matrix of Eq. 20.
	Manhattan bool
	// HyperEdge enables the hyper-edge variant of the Eq. 20 adaptation:
	// multi-pin nets only attract module pairs on their bounding box.
	HyperEdge bool

	// Outline, when non-nil, bounds every center inside the rectangle
	// (inset by each module's minimal half-width).
	Outline *geom.Rect

	// DistanceCaps adds proximity constraints D_ij ≤ MaxDist² — the
	// "directly control the distance" capability Section IV-D highlights
	// (e.g. timing requirements between blocks on a critical path).
	DistanceCaps []DistanceCap

	// LazyConstraints activates working-set constraint generation over the
	// O(n²) distance constraints and the 4n fixed-outline bounds (at most
	// lazyMaxRounds rounds per sub-problem-1 solve). Pairs start from the
	// 3n most strongly connected ones; outline bounds all start in the set.
	// A row leaves after dropAfter consecutive convex iterations far from
	// active — an outline bound only after solves that reached tolerance —
	// and re-enters when the iterate violates it. Strongly recommended for
	// n ≥ 60.
	LazyConstraints bool

	// Solver picks the sub-problem-1 SDP solver (default IPM).
	Solver SolverKind
	// ADMMMu0, when positive, seeds the ADMM penalty parameter μ on cold
	// sub-problem solves (the portfolio's small-instance default sets it).
	// It is deliberately ignored on warm-started solves: re-seeding μ when
	// resuming from a previous iterate stalls the solver on changed
	// objectives (see warmState), so the tuned value applies only where a
	// cold solve would otherwise use the solver default.
	ADMMMu0 float64
	// Prior, when non-nil, seeds the convex iteration from an external
	// previous solution (incremental / ECO re-floorplanning): the iterate,
	// direction matrix, adaptive-B centers, lazy working set, and the
	// first sub-problem's warm start all begin at the prior placement
	// instead of cold. See the Prior type (prior.go). The prior must have
	// exactly one center per module; Solve rejects mismatches. Ignored
	// when NoWarmStart is set, except for the iterate/direction-matrix
	// seeding, which involves no solver state.
	Prior *Prior
	// NoWarmStart disables the warm-start/solve-sequence reuse layer, i.e.
	// warm starting is ON by default. When off-switched, every
	// sub-problem-1 solve starts from the solver's cold initial point and
	// no constraint-assembly state is carried between solves. Warm starting
	// changes iteration counts, never certified solutions (warm and cold
	// solves of the same SDP agree to solver tolerance — see the parity
	// tests); the switch exists for debugging and A/B timing. Result
	// reports WarmStarts/SubSolves, and solver trace events carry a "warm"
	// field, so the effect is observable end to end.
	NoWarmStart bool
	// Workers bounds the parallelism of one solve: the SDP Schur complement,
	// dense factorizations, eigendecompositions, and the B-matrix assembly
	// all split across the shared worker pool at this width. 0 uses the pool
	// default (GOMAXPROCS, or the SDPFLOOR_WORKERS environment override);
	// 1 runs fully sequential. Solver trajectories are bitwise identical for
	// every value; see docs/PERFORMANCE.md for the parallelism model.
	Workers int
	// SolverTol overrides the solver tolerance (default 1e-6 IPM, 2e-5 ADMM).
	SolverTol float64
	// SolverMaxIter overrides the solver iteration cap.
	SolverMaxIter int

	// Context, when non-nil, allows cancelling a long solve. It is checked
	// between convex iterations and also threaded into the sub-problem
	// solvers, which check it at every IPM/ADMM iteration (the paper
	// reports multi-hour runs at n200, and a single sub-problem solve can
	// dominate). On cancellation Solve returns the last completed iterate
	// as a partial Result together with the wrapped context error.
	Context context.Context

	// Trace, when non-nil and enabled, receives structured telemetry:
	// "core" events for the convex iteration (α, Ky-Fan objective ⟨W,Z⟩,
	// working-set size) and, because the recorder is threaded into the
	// sub-problem solvers, interleaved "ipm"/"admm" events for every SDP
	// solve. The trace always closes with one "core" final record, also on
	// cancellation. Event content excludes wall-clock durations (those
	// live only in the recorder-stamped timestamps), so traces are
	// deterministic across worker counts. The trace is the only progress
	// channel: trace.Log turns it into log lines. See docs/TRACING.md.
	Trace trace.Recorder
}

// Fixed settings of the convex iteration.
const (
	// rankEpsilon declares the rank constraint satisfied when
	// ⟨W, Z⟩ < rankEpsilon·max(1, tr Z).
	rankEpsilon = 1e-4
	// stallFraction ends an α round early, while a larger α is still
	// allowed, once ⟨W, Z⟩ has fallen by less than this fraction since the
	// previous convex iteration of the round (both sub-problems solved to
	// tolerance). Chosen on n10-class generator seeds 1–100
	// (EXPERIMENTS.md, "Leaving a stalled α round").
	stallFraction = 0.05
	// lazyMaxRounds caps constraint-generation rounds per sub-problem-1
	// solve when LazyConstraints is set.
	lazyMaxRounds = 8
)

// Why an α round of the convex iteration ended: the "exit" field of the
// "core" iter event that closes the round.
const (
	exitRank      = 1 // ⟨W, Z⟩ < rankEpsilon·max(1, tr Z): rank 2 reached
	exitConverged = 2 // Algorithm 1 line 10: ‖ΔZ‖+‖ΔW‖ < Epsilon·(1+‖Z‖)
	exitStall     = 3 // ⟨W, Z⟩ fell by less than stallFraction; escalate α
	exitMaxIter   = 4 // MaxIter convex iterations at this α
)

func (o *Options) setDefaults() {
	if o.AlphaMaxDoublings == 0 {
		o.AlphaMaxDoublings = 10
	}
	if o.MaxIter == 0 {
		o.MaxIter = 20
	}
	if o.Epsilon == 0 {
		o.Epsilon = 2e-3
	}
	o.Workers = parallel.Workers(o.Workers)
	if o.SolverTol == 0 {
		if o.Solver == SolverADMM {
			o.SolverTol = 2e-5
		} else {
			o.SolverTol = 1e-6
		}
	}
}

// WithAllEnhancements returns a copy of o with every Section IV-B technique
// enabled (the paper's best configuration, the yellow curve in Fig. 4).
func (o Options) WithAllEnhancements() Options {
	o.NonSquare = true
	o.Manhattan = true
	o.HyperEdge = true
	return o
}
