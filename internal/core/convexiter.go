package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"sdpfloor/internal/geom"
	"sdpfloor/internal/linalg"
	"sdpfloor/internal/netlist"
	"sdpfloor/internal/sdp"
	"sdpfloor/internal/trace"
)

// traceOn reports whether rec is active; event construction is guarded on
// it so disabled tracing adds no per-iteration work.
func traceOn(rec trace.Recorder) bool { return rec != nil && rec.Enabled() }

// Result is the outcome of a convex-iteration run.
type Result struct {
	Centers    []geom.Point
	Z          *linalg.Dense
	Rank       int     // numerical rank of the final Z
	Objective  float64 // ⟨B⁰, G⟩ at the final iterate
	WZ         float64 // ⟨W, Z⟩ at termination
	AlphaFinal float64
	Iterations int // total convex iterations across all α
	// SolverIterations totals the sub-problem solver (IPM/ADMM) iterations
	// of the final lazy round of every convex iteration — the dominant cost
	// driver, exported as a service metric.
	SolverIterations int
	// SubSolves counts sub-problem-1 SDP solves, lazy rounds included.
	// WarmStarts counts how many of them actually consumed a warm start —
	// the IPM may fall back to cold, so this is reported by the solver, not
	// inferred from the options. Zero when Options.NoWarmStart is set.
	SubSolves  int
	WarmStarts int
	RankOK     bool
}

// Solve runs Algorithm 1 on the netlist: the convex iteration over
// sub-problem 1 (SDP, Eq. 18) and sub-problem 2 (closed form, Eq. 19), with
// the rank penalty α doubled until ⟨W, Z⟩ vanishes.
func Solve(nl *netlist.Netlist, opt Options) (res *Result, err error) {
	if err := nl.Validate(); err != nil {
		return nil, err
	}
	opt.setDefaults()
	n := nl.N()
	if n == 0 {
		return nil, errors.New("core: empty netlist")
	}
	if opt.Prior != nil {
		if err := opt.Prior.validate(n); err != nil {
			return nil, err
		}
	}
	if traceOn(opt.Trace) {
		// Deferred so every return — success, cancellation (partial
		// result), and sub-problem failure — closes the trace with one
		// "core" final record.
		defer func() {
			st := "ok"
			switch {
			case err == nil:
			case isContextErr(err):
				st = "cancelled"
			default:
				st = "failed"
			}
			ev := trace.Event{Solver: "core", Kind: "final", Status: st}
			if res != nil {
				ev.Iter = res.Iterations
				ev.Fields = []trace.Field{
					{Key: "alpha", Val: res.AlphaFinal},
					{Key: "obj", Val: res.Objective},
					{Key: "wz", Val: res.WZ},
					{Key: "rank", Val: float64(res.Rank)},
					{Key: "rankOK", Val: boolField(res.RankOK)},
					{Key: "solverIters", Val: float64(res.SolverIterations)},
					{Key: "warmStarts", Val: float64(res.WarmStarts)},
				}
			}
			opt.Trace.Record(ev)
		}()
		startFields := []trace.Field{
			{Key: "n", Val: float64(n)},
			{Key: "maxIter", Val: float64(opt.MaxIter)},
			{Key: "maxDoublings", Val: float64(opt.AlphaMaxDoublings)},
		}
		if opt.Prior != nil {
			startFields = append(startFields, trace.Field{Key: "prior", Val: 1})
		}
		opt.Trace.Record(trace.Event{
			Solver: "core", Kind: "start",
			Fields: startFields,
		})
	}
	bld := newBuilder(nl, &opt)
	// The solve counters live on the builder; copy them onto every returned
	// result. Registered after the trace defer, so it runs first (LIFO) and
	// the final "core" trace event sees the counts.
	defer func() {
		if res != nil {
			res.SubSolves, res.WarmStarts = bld.subSolves, bld.warmStarts
		}
	}()
	b0 := netlist.BuildB(bld.baseA, opt.Workers)

	// Working set: every outline row, and the seed pairs (all pairs
	// without LazyConstraints).
	if opt.LazyConstraints {
		bld.pairs = newLazySet(bld.seedPairs())
	} else {
		bld.pairs = newLazySet(bld.allPairs())
	}
	bld.bounds = newLazySet(bld.allBounds())

	res = &Result{}
	w := linalg.Identity(bld.dim) // W⁰ = I: trace heuristic (Algorithm 1 line 3)
	var z *linalg.Dense
	// ⟨W, Z⟩ and the numerical rank of the current z, both read off the
	// eigendecomposition sub-problem 2 has just made of it.
	var zWZ float64
	var zRank int
	var centers []geom.Point
	var sol *sdp.Solution

	if opt.Prior != nil {
		// ECO warm entry: start the iteration at the prior placement. The
		// rank-2 lift is exactly feasible for the identity block, so W's
		// Ky-Fan seed and the adaptive-B centers both see the prior from
		// iteration 1; the synthetic warm record lets the first
		// sub-problem solve skip its cold start.
		centers = append([]geom.Point(nil), opt.Prior.Centers...)
		zp := priorZ(centers)
		if wp, _, _, werr := DirectionMatrix(zp, n, opt.Workers); werr == nil {
			w = wp
		}
		if opt.LazyConstraints {
			bld.pairs.add(bld.violatedPairs(zp, bld.pairs.have, 4*bld.n))
		}
		bld.seedWarmFromPrior(zp, bld.rows())
	}

	alpha := opt.Alpha0
	if alpha == 0 {
		// Auto-scale: the rank penalty competes with ⟨B, G⟩, whose scale is
		// set by the B diagonal and the layout extent; a penalty around the
		// mean weighted degree engages from the first round. Experiments
		// that sweep the paper's raw α values pass Alpha0 explicitly.
		alpha = maxf(0.5, meanDiagonal(netlist.BuildB(bld.baseA, opt.Workers))/4)
	}
	for outer := 0; outer < opt.AlphaMaxDoublings; outer++ {
		// The stall exit only hands over to a larger α; the last allowed
		// round (the only one of a fixed-α run) runs until rank 2,
		// convergence, or the MaxIter cap.
		canEscalate := outer+1 < opt.AlphaMaxDoublings
		var zPrev, wPrev *linalg.Dense
		var wzPrev float64
		prevSolved := false
		exit := 0
		for t := 1; exit == 0; t++ {
			if opt.Context != nil {
				if err := opt.Context.Err(); err != nil {
					res.finalize(b0, z, n, zWZ, zRank)
					res.AlphaFinal = alpha
					return res, fmt.Errorf("core: cancelled after %d convex iterations (alpha=%g): %w",
						res.Iterations, alpha, err)
				}
			}
			res.Iterations++
			// Adaptive B (Eq. 20 / hyper-edge variant).
			at := adaptiveA(nl, centers, opt.Manhattan, opt.HyperEdge)
			bt := netlist.BuildB(at, opt.Workers)
			c := bld.objectiveC(bt, w, alpha)

			var err error
			prevZ := z
			z, sol, err = bld.solveSub1(c)
			if err != nil {
				if isContextErr(err) {
					res.finalize(b0, prevZ, n, zWZ, zRank)
					res.AlphaFinal = alpha
					return res, fmt.Errorf("core: cancelled during sub-problem 1 (alpha=%g, iter=%d): %w",
						alpha, t, err)
				}
				return nil, fmt.Errorf("core: sub-problem 1 failed (alpha=%g, iter=%d): %w", alpha, t, err)
			}
			solverIters := 0
			solverWarm := false
			solved := sol != nil && sol.Status == sdp.StatusOptimal
			if sol != nil {
				solverIters = sol.Iterations
				solverWarm = sol.Warm
				res.SolverIterations += sol.Iterations
			}

			// Sub-problem 2: closed-form direction matrix.
			w, zWZ, zRank, err = DirectionMatrix(z, n, opt.Workers)
			if err != nil {
				return nil, fmt.Errorf("core: sub-problem 2 failed: %w", err)
			}
			centers = ExtractCenters(z)

			switch {
			case zWZ < rankEpsilon*maxf(1, z.Trace()):
				// Rank constraint met: nothing more to gain from any α.
				exit = exitRank
			case zPrev != nil && (diffNorm(z, zPrev)+diffNorm(w, wPrev))/(1+z.FrobNorm()) < opt.Epsilon:
				// The two sub-problems converged (Algorithm 1 line 10).
				exit = exitConverged
			case canEscalate && solved && prevSolved && zWZ > (1-stallFraction)*wzPrev:
				// ⟨W, Z⟩ stopped falling: more iterations at this α will
				// not reach rank 2, a larger α might. Read only between
				// sub-problems solved to tolerance: an unfinished solve
				// (ADMM at its iteration cap) moves ⟨W, Z⟩ by its own
				// residual, which says nothing about this α.
				exit = exitStall
			case t >= opt.MaxIter:
				exit = exitMaxIter
			}

			if traceOn(opt.Trace) {
				// One event per convex iteration: the Fig. 5(a) series
				// (obj, wz per alphaIter) and the -v progress lines are
				// both read from it. Wall time lives only in the
				// recorder-stamped TS, so event content stays deterministic.
				fields := []trace.Field{
					{Key: "alpha", Val: alpha},
					{Key: "alphaIter", Val: float64(t)},
					{Key: "obj", Val: objectiveValue(b0, z, n)},
					{Key: "wz", Val: zWZ},
					{Key: "trZ", Val: z.Trace()},
					{Key: "cons", Val: float64(len(bld.pairs.rows))},
					{Key: "bounds", Val: float64(len(bld.bounds.rows))},
					{Key: "solverIters", Val: float64(solverIters)},
					{Key: "warm", Val: boolField(solverWarm)},
				}
				if exit != 0 {
					fields = append(fields, trace.Field{Key: "exit", Val: float64(exit)})
				}
				opt.Trace.Record(trace.Event{Solver: "core", Kind: "iter", Iter: res.Iterations, Fields: fields})
			}
			// Both are fresh matrices every iteration (solveSub1 returns a
			// copy, DirectionMatrix a new product), so holding the
			// references is safe.
			zPrev, wPrev, wzPrev, prevSolved = z, w, zWZ, solved
		}

		res.AlphaFinal = alpha
		if exit == exitRank {
			res.RankOK = true
			break
		}
		// Escalate faster when the rank violation is still large: pure
		// doubling (Algorithm 1 line 11) wastes rounds when α starts far
		// too small.
		ratio := zWZ / maxf(1, z.Trace())
		switch {
		case ratio > 0.1:
			alpha *= 8
		case ratio > 0.01:
			alpha *= 4
		default:
			alpha *= 2
		}
	}

	res.finalize(b0, z, n, zWZ, zRank)
	return res, nil
}

// finalize fills the iterate-derived fields from z, whose ⟨W, Z⟩ and rank
// sub-problem 2 has already computed (a no-op when no iterate exists yet,
// as on cancellation before the first sub-problem completes).
func (res *Result) finalize(b0, z *linalg.Dense, n int, wz float64, rank int) {
	if z == nil {
		return
	}
	res.Z = z
	res.Centers = ExtractCenters(z)
	res.Objective = objectiveValue(b0, z, n)
	res.WZ = wz
	res.Rank = rank
}

// isContextErr reports whether err stems from context cancellation or an
// expired deadline anywhere down the solver stack.
func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// solveSub1 solves sub-problem 1 for the current objective. Under
// LazyConstraints it grows the working set until no distance or outline row
// is violated, then drops the rows that have stayed far from active for
// several consecutive convex iterations (they re-enter via the violation
// scans if they ever matter again). Outline rows are judged only after a
// solve that reached tolerance: an unfinished solve (ADMM at its iteration
// cap) can sit anywhere, and keeps every outline row. Each successful solve
// is recorded on the builder as the warm-start source for the next one —
// both across lazy rounds and across convex iterations.
func (b *builder) solveSub1(c *linalg.Dense) (*linalg.Dense, *sdp.Solution, error) {
	for round := 0; ; round++ {
		rows := b.rows()
		prob := b.buildProblem(c, rows)
		sol, err := b.solveProblem(prob, rows)
		if err != nil {
			return nil, nil, err
		}
		if sol.Status == sdp.StatusNumericalFailure {
			return nil, nil, fmt.Errorf("sdp solver: %v (gap %.2g)", sol.Status, sol.Gap)
		}
		b.noteSolution(sol, rows)
		z := sol.X[0].Clone()
		z.Symmetrize()
		if !b.opt.LazyConstraints || round >= lazyMaxRounds {
			return z, sol, nil
		}
		viol := b.violatedPairs(z, b.pairs.have, 4*b.n)
		violB := b.violatedBounds(z, b.bounds.have)
		if len(viol) == 0 && len(violB) == 0 {
			b.pairs.dropFar(func(p pair) bool { return b.pairSlack(z, p) > 0.5*b.bound(p) })
			if sol.Status == sdp.StatusOptimal {
				b.bounds.dropFar(func(bd bound) bool { return b.boundSlack(z, bd) > boundFar*b.boundExtent(bd) })
			}
			return z, sol, nil
		}
		b.pairs.add(viol)
		b.bounds.add(violB)
	}
}

// solveProblem dispatches one sub-problem-1 solve, seeding it from the
// recorded previous solution (projected onto the current working set) unless
// warm starting is disabled.
func (b *builder) solveProblem(prob *sdp.Problem, rows rowSet) (*sdp.Solution, error) {
	b.subSolves++
	var x0, s0 []*linalg.Dense
	var y0, xlp0, slp0 []float64
	if w := b.warm; w != nil && w.sol != nil && !b.opt.NoWarmStart {
		if y0, xlp0, slp0 = b.projectWarm(w, rows); y0 != nil {
			x0, s0 = b.warmBlocks(w.sol)
		}
	}
	var sol *sdp.Solution
	var err error
	switch b.opt.Solver {
	case SolverADMM:
		opt := sdp.ADMMOptions{Tol: b.opt.SolverTol, MaxIter: b.opt.SolverMaxIter,
			Workers: b.opt.Workers, Context: b.opt.Context, Trace: b.opt.Trace,
			Arena: b.arena}
		if x0 != nil {
			// Mu0 deliberately stays unset; see warmState's doc comment.
			opt.X0, opt.S0 = x0, s0
			opt.XLP0, opt.SLP0, opt.Y0 = xlp0, slp0, y0
		} else if b.opt.ADMMMu0 > 0 {
			// Cold solve: the tuned initial penalty is safe to apply here
			// and only here (see Options.ADMMMu0).
			opt.Mu0 = b.opt.ADMMMu0
		}
		sol, err = sdp.SolveADMM(prob, opt)
	default:
		opt := sdp.IPMOptions{Tol: b.opt.SolverTol, MaxIter: b.opt.SolverMaxIter,
			Workers: b.opt.Workers, Context: b.opt.Context, Trace: b.opt.Trace,
			Arena: b.arena}
		if x0 != nil && s0 != nil {
			opt.X0, opt.S0 = x0, s0
			opt.XLP0, opt.SLP0, opt.Y0 = xlp0, slp0, y0
		}
		if !b.opt.NoWarmStart {
			if b.warm == nil {
				b.warm = &warmState{}
			}
			opt.Reuse = b.warm.reuseFor(rows)
		}
		sol, err = sdp.SolveIPM(prob, opt)
	}
	if sol != nil && sol.Warm {
		b.warmStarts++
	}
	return sol, err
}

// DirectionMatrix solves sub-problem 2 (Eq. 19) in closed form: by the
// Ky Fan theorem the minimizer of ⟨W, Z⟩ over {0 ⪯ W ⪯ I, tr W = n} is
// W = UUᵀ with U the eigenvectors of the n smallest eigenvalues of Z, and
// the optimal value is the sum of those eigenvalues. Returns (W, ⟨W,Z⟩)
// and, from the same eigenvalues, the numerical rank of Z (relative
// tolerance 1e-6). The eigendecomposition and the W = UUᵀ product split
// across the worker pool; the result is bitwise identical for every worker
// count.
//
//sdpvet:hotpath
func DirectionMatrix(z *linalg.Dense, n, workers int) (*linalg.Dense, float64, int, error) {
	eg, err := linalg.NewSymEig(z, workers)
	if err != nil {
		return nil, 0, 0, err
	}
	dim := z.Rows
	if n > dim {
		n = dim
	}
	wz := 0.0
	u := linalg.NewDense(dim, n)
	for col := 0; col < n; col++ { // eigenvalues ascending: first n are smallest
		wz += eg.Values[col]
		for r := 0; r < dim; r++ {
			u.Set(r, col, eg.V.At(r, col))
		}
	}
	w := linalg.MulABt(u, u, workers)
	w.Symmetrize()
	return w, wz, eg.NumericalRank(1e-6), nil
}

// ExtractCenters reads the X block of Z (Algorithm 1 line 13 returns
// Z[2:, :2]): xᵢ = (Z₀,₂₊ᵢ, Z₁,₂₊ᵢ).
func ExtractCenters(z *linalg.Dense) []geom.Point {
	n := z.Rows - 2
	out := make([]geom.Point, n)
	for i := 0; i < n; i++ {
		out[i] = geom.Point{X: z.At(0, 2+i), Y: z.At(1, 2+i)}
	}
	return out
}

// ExtractBestRank2 factors the G block to its best rank-2 approximation and
// returns the implied centers. Valid only for instances without pads or
// PPM constraints (the factorization is determined up to a rigid motion).
func ExtractBestRank2(z *linalg.Dense) ([]geom.Point, error) {
	n := z.Rows - 2
	g := z.Submatrix(2, 2, n, n)
	eg, err := linalg.NewSymEig(g, 1)
	if err != nil {
		return nil, err
	}
	out := make([]geom.Point, n)
	// Two largest eigenpairs (ascending order → last two columns).
	for axis := 0; axis < 2; axis++ {
		col := n - 1 - axis
		if col < 0 {
			break
		}
		l := eg.Values[col]
		if l < 0 {
			l = 0
		}
		s := sqrtf(l)
		for i := 0; i < n; i++ {
			v := s * eg.V.At(i, col)
			if axis == 0 {
				out[i].X = v
			} else {
				out[i].Y = v
			}
		}
	}
	return out, nil
}

// objectiveValue returns ⟨B⁰, G⟩ for the G block of z.
func objectiveValue(b0, z *linalg.Dense, n int) float64 {
	s := 0.0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s += b0.At(i, j) * z.At(2+i, 2+j)
		}
	}
	return s
}

// diffNorm returns ‖a − b‖_F without materializing the difference.
func diffNorm(a, b *linalg.Dense) float64 {
	s := 0.0
	for i, v := range a.Data {
		d := v - b.Data[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// meanDiagonal returns the average diagonal entry of a square matrix.
func meanDiagonal(m *linalg.Dense) float64 {
	if m.Rows == 0 {
		return 0
	}
	return m.Trace() / float64(m.Rows)
}

// boolField encodes a bool as a trace field value (1 or 0).
func boolField(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func sqrtf(v float64) float64 {
	if v <= 0 {
		return 0
	}
	return math.Sqrt(v)
}
