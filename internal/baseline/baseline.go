// Package baseline implements the global floorplanning methods the paper
// compares against (Section III): the Attractor–Repeller model of
// Anjos–Vannelli [1][8], the Push–Pull model of Lin–Hung's UFO [2][9], and
// plain quadratic placement [13]. AR and PP are smooth unconstrained models
// minimized with L-BFGS (the paper's implementation uses PyTorch-Minimize
// BFGS) with multi-start, since both are prone to local optima; QP has a
// closed-form solution via one positive-definite solve.
package baseline

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"sdpfloor/internal/geom"
	"sdpfloor/internal/linalg"
	"sdpfloor/internal/netlist"
	"sdpfloor/internal/optimize"
	"sdpfloor/internal/trace"
)

// Result is a global floorplan produced by one of the baseline methods.
type Result struct {
	Centers   []geom.Point
	Objective float64 // final model objective (not comparable across models)
	Starts    int     // number of restarts actually evaluated
}

// Radii returns the circle radii used by the AR/PP models: rᵢ = √(sᵢ/π),
// the radius of a circle with the module's area (both papers take rᵢ
// proportional to √sᵢ).
func Radii(nl *netlist.Netlist) []float64 {
	r := make([]float64, nl.N())
	for i, m := range nl.Modules {
		r[i] = math.Sqrt(m.MinArea / math.Pi)
	}
	return r
}

// ---------------------------------------------------------------------------
// Attractor–Repeller model (Eq. 3)

// AROptions configure SolveAR.
type AROptions struct {
	Sigma   float64         // repeller strength σ in t_ij = σ(rᵢ+rⱼ)² (default 1)
	Starts  int             // restarts: 1 QP-seeded + Starts−1 random (default 4)
	Seed    int64           // RNG seed for the random restarts
	MaxIter int             // L-BFGS iterations per start (default 300)
	Context context.Context // optional cancellation, checked per L-BFGS iteration
	Trace   trace.Recorder  // optional telemetry: "ar" start/iter-per-start/final plus nested "lbfgs"
}

func (o *AROptions) setDefaults() {
	if o.Sigma == 0 {
		o.Sigma = 1
	}
	if o.Starts == 0 {
		o.Starts = 4
	}
	if o.MaxIter == 0 {
		o.MaxIter = 300
	}
}

// ARPairValue evaluates the full piecewise AR pair cost of Eq. (3) at
// squared distance d: A·d + t/d − 1 for d ≥ T_ij = √(t/(A+ε)), and the
// constant minimum 2√(A·t) − 1 below. The piecewise form is the one that is
// convex along position slices (Fig. 1a); the practical optimizer (SolveAR,
// following [1][8]) uses only the first branch.
func ARPairValue(a, t, d float64) float64 {
	const eps = 1e-12
	tij := math.Sqrt(t / (a + eps))
	if d >= tij {
		return a*d + t/d - 1
	}
	return 2*math.Sqrt(a*t) - 1
}

// PPPairValue evaluates the PP pair cost of Eq. (4) at Euclidean distance d
// for radii ri, rj.
func PPPairValue(a, ri, rj, d float64) float64 {
	if d <= 0 {
		d = 1e-9
	}
	sum := ri + rj
	if sum >= d {
		sij := (ri * rj) * (ri * rj)
		return a*d + sij*(sum/d-1)
	}
	return a*d + sum/d - 1
}

// ARObjective evaluates the AR objective and gradient at the packed
// coordinate vector (x₀,y₀,x₁,y₁,…). Exposed for the Fig. 1/Fig. 2
// experiments. dᵢⱼ is the squared Euclidean distance: the attractor is
// A_ij·d and the repeller t_ij/d − 1 (first branch of Eq. 3, the branch the
// practical implementations use).
func ARObjective(nl *netlist.Netlist, sigma float64) optimize.Objective {
	a := nl.Adjacency()
	pa := nl.PadAdjacency()
	radii := Radii(nl)
	n := nl.N()
	return func(xv, g []float64) float64 {
		for i := range g {
			g[i] = 0
		}
		f := 0.0
		const dmin = 1e-9
		for i := 0; i < n; i++ {
			xi, yi := xv[2*i], xv[2*i+1]
			for j := i + 1; j < n; j++ {
				dx, dy := xi-xv[2*j], yi-xv[2*j+1]
				d := dx*dx + dy*dy
				if d < dmin {
					d = dmin
				}
				sum := radii[i] + radii[j]
				t := sigma * sum * sum
				aij := a.At(i, j) // symmetric; count the (i,j)+(j,i) pair once with 2·
				fij := aij*d + t/d - 1
				f += 2 * fij
				dfdd := 2 * (aij - t/(d*d))
				g[2*i] += dfdd * 2 * dx
				g[2*i+1] += dfdd * 2 * dy
				g[2*j] -= dfdd * 2 * dx
				g[2*j+1] -= dfdd * 2 * dy
			}
			// Pad attraction (quadratic, as in the fixed-outline AR paper).
			for pj, p := range nl.Pads {
				w := pa.At(i, pj)
				if w == 0 {
					continue
				}
				dx, dy := xi-p.Pos.X, yi-p.Pos.Y
				f += w * (dx*dx + dy*dy)
				g[2*i] += 2 * w * dx
				g[2*i+1] += 2 * w * dy
			}
		}
		return f
	}
}

// SolveAR minimizes the AR model with multi-start L-BFGS.
func SolveAR(nl *netlist.Netlist, opt AROptions) (*Result, error) {
	opt.setDefaults()
	return solveSmooth(opt.Context, "ar", opt.Trace, nl, ARObjective(nl, opt.Sigma), opt.Starts, opt.Seed, opt.MaxIter)
}

// ---------------------------------------------------------------------------
// Push–Pull model (Eq. 4)

// PPOptions configure SolvePP.
type PPOptions struct {
	Starts  int
	Seed    int64
	MaxIter int
	Context context.Context // optional cancellation, checked per L-BFGS iteration
	Trace   trace.Recorder  // optional telemetry: "pp" start/iter-per-start/final plus nested "lbfgs"
}

func (o *PPOptions) setDefaults() {
	if o.Starts == 0 {
		o.Starts = 4
	}
	if o.MaxIter == 0 {
		o.MaxIter = 300
	}
}

// PPObjective evaluates the PP objective and gradient. Here dᵢⱼ is the
// (unsquared) Euclidean distance; the push term switches strength at
// dᵢⱼ = rᵢ+rⱼ: s_ij = (rᵢrⱼ)² inside the overlap region, 1 outside (Eq. 4).
func PPObjective(nl *netlist.Netlist) optimize.Objective {
	a := nl.Adjacency()
	pa := nl.PadAdjacency()
	radii := Radii(nl)
	n := nl.N()
	return func(xv, g []float64) float64 {
		for i := range g {
			g[i] = 0
		}
		f := 0.0
		const dmin = 1e-6
		for i := 0; i < n; i++ {
			xi, yi := xv[2*i], xv[2*i+1]
			for j := i + 1; j < n; j++ {
				dx, dy := xi-xv[2*j], yi-xv[2*j+1]
				d := math.Sqrt(dx*dx + dy*dy)
				if d < dmin {
					d = dmin
				}
				sum := radii[i] + radii[j]
				aij := a.At(i, j)
				sij := 1.0
				if sum >= d { // overlap: strong push
					sij = (radii[i] * radii[j]) * (radii[i] * radii[j])
				}
				fij := aij*d + sij*(sum/d-1)
				f += 2 * fij
				// d(fij)/dd = aij − sij·sum/d².
				dfdd := 2 * (aij - sij*sum/(d*d))
				ux, uy := dx/d, dy/d
				g[2*i] += dfdd * ux
				g[2*i+1] += dfdd * uy
				g[2*j] -= dfdd * ux
				g[2*j+1] -= dfdd * uy
			}
			for pj, p := range nl.Pads {
				w := pa.At(i, pj)
				if w == 0 {
					continue
				}
				dx, dy := xi-p.Pos.X, yi-p.Pos.Y
				f += w * (dx*dx + dy*dy)
				g[2*i] += 2 * w * dx
				g[2*i+1] += 2 * w * dy
			}
		}
		return f
	}
}

// SolvePP minimizes the PP model with multi-start L-BFGS.
func SolvePP(nl *netlist.Netlist, opt PPOptions) (*Result, error) {
	opt.setDefaults()
	return solveSmooth(opt.Context, "pp", opt.Trace, nl, PPObjective(nl), opt.Starts, opt.Seed, opt.MaxIter)
}

// ---------------------------------------------------------------------------
// Quadratic placement (Section III-C)

// QPOptions configure SolveQPOpts. The zero value matches SolveQP.
type QPOptions struct {
	Context context.Context // optional cancellation, checked around the factorization
	Trace   trace.Recorder  // optional telemetry: one "qp" start/final pair
}

// SolveQP solves the quadratic placement of Eq. (5): per coordinate,
// minimize ½xᵀCx + dᵀx with C the clique-model Laplacian plus pad anchors.
// Without pads the Laplacian is singular and the global optimum is the
// trivial all-modules-coincident solution the paper criticizes; a tiny
// regularization is added so the solve still succeeds (returning exactly
// that collapsed solution).
func SolveQP(nl *netlist.Netlist) (*Result, error) {
	return SolveQPOpts(nl, QPOptions{})
}

// SolveQPOpts is SolveQP with cancellation and tracing. The solve is one
// Cholesky factorization; the context is checked before building the
// system and again between factorizing and back-substituting, so a
// cancelled solve returns a wrapped context error without a result.
func SolveQPOpts(nl *netlist.Netlist, opt QPOptions) (result *Result, err error) {
	n := nl.N()
	if n == 0 {
		return nil, errors.New("baseline: empty netlist")
	}
	if opt.Context != nil {
		if cerr := opt.Context.Err(); cerr != nil {
			return nil, fmt.Errorf("baseline: qp cancelled: %w", cerr)
		}
	}
	if opt.Trace != nil && opt.Trace.Enabled() {
		// Deferred — and registered before the start — so the
		// singular-factorization, cancellation, and panic paths all close
		// the trace alongside the success path.
		defer func() {
			status := "ok"
			obj := 0.0
			switch {
			case err != nil && opt.Context != nil && opt.Context.Err() != nil:
				status = "cancelled"
			case err != nil:
				status = "failed"
			default:
				obj = result.Objective
			}
			opt.Trace.Record(trace.Event{
				Solver: "qp", Kind: trace.KindFinal, Iter: 1, Status: status,
				Fields: []trace.Field{{Key: "obj", Val: obj}},
			})
		}()
		opt.Trace.Record(trace.Event{
			Solver: "qp", Kind: trace.KindStart,
			Fields: []trace.Field{{Key: "n", Val: float64(n)}},
		})
	}
	a := nl.Adjacency()
	pa := nl.PadAdjacency()
	c := linalg.NewDense(n, n)
	rhsX := make([]float64, n)
	rhsY := make([]float64, n)
	for i := 0; i < n; i++ {
		deg := 0.0
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			w := a.At(i, j)
			deg += w
			c.Set(i, j, -w)
		}
		for pj, p := range nl.Pads {
			w := pa.At(i, pj)
			if w == 0 {
				continue
			}
			deg += w
			rhsX[i] += w * p.Pos.X
			rhsY[i] += w * p.Pos.Y
		}
		c.Set(i, i, deg+1e-9) // regularization for the pad-free singular case
	}
	fac, err := linalg.NewCholesky(c, 1)
	if err != nil {
		return nil, err
	}
	if opt.Context != nil {
		if cerr := opt.Context.Err(); cerr != nil {
			return nil, fmt.Errorf("baseline: qp cancelled: %w", cerr)
		}
	}
	xs := fac.SolveVec(append([]float64(nil), rhsX...))
	ys := fac.SolveVec(append([]float64(nil), rhsY...))
	centers := make([]geom.Point, n)
	for i := range centers {
		centers[i] = geom.Point{X: xs[i], Y: ys[i]}
	}
	obj := netlist.WeightedPairDistance(a, centers, geom.Point.DistSq)
	return &Result{Centers: centers, Objective: obj, Starts: 1}, nil
}

// ---------------------------------------------------------------------------

// solveSmooth runs multi-start L-BFGS: the first start is QP-seeded, the
// rest are random within the pad bounding box (or a unit-area box when there
// are no pads). It emits one engine-level trace stream named solver ("ar"
// or "pp") — start, one iter per restart, exactly one final — around the
// nested per-start "lbfgs" streams.
func solveSmooth(ctx context.Context, solver string, rec trace.Recorder, nl *netlist.Netlist, obj optimize.Objective, starts int, seed int64, maxIter int) (*Result, error) {
	n := nl.N()
	if n == 0 {
		return nil, errors.New("baseline: empty netlist")
	}
	rng := rand.New(rand.NewSource(seed))
	best := Result{Objective: math.Inf(1)}
	var cancelErr error
	tracing := rec != nil && rec.Enabled()
	if tracing {
		// Deferred — and registered before the start — so completion,
		// cancellation, and panic paths alike close the run with exactly
		// one final, carrying the best objective seen (Inf when
		// cancellation preceded the first finished start).
		defer func() {
			status := "ok"
			if cancelErr != nil {
				status = "cancelled"
			}
			rec.Record(trace.Event{
				Solver: solver, Kind: trace.KindFinal, Iter: best.Starts, Status: status,
				Fields: []trace.Field{{Key: "obj", Val: best.Objective}},
			})
		}()
		rec.Record(trace.Event{
			Solver: solver, Kind: trace.KindStart,
			Fields: []trace.Field{
				{Key: "n", Val: float64(n)},
				{Key: "starts", Val: float64(starts)},
				{Key: "maxIter", Val: float64(maxIter)},
			},
		})
	}

	// Spread box for random starts.
	var span geom.Rect
	if len(nl.Pads) > 0 {
		var bb geom.BBox
		for _, p := range nl.Pads {
			bb.Extend(p.Pos)
		}
		span = bb.Rect()
	}
	if span.W() <= 0 || span.H() <= 0 {
		side := math.Sqrt(nl.TotalArea())
		span = geom.Rect{MinX: -side, MinY: -side, MaxX: side, MaxY: side}
	}

	for s := 0; s < starts; s++ {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				cancelErr = fmt.Errorf("baseline: cancelled after %d starts: %w", s, err)
				break
			}
		}
		x0 := make([]float64, 2*n)
		if s == 0 {
			if qp, err := SolveQP(nl); err == nil {
				for i, c := range qp.Centers {
					x0[2*i] = c.X + 0.01*rng.NormFloat64()*math.Sqrt(nl.Modules[i].MinArea)
					x0[2*i+1] = c.Y + 0.01*rng.NormFloat64()*math.Sqrt(nl.Modules[i].MinArea)
				}
			}
		} else {
			for i := 0; i < n; i++ {
				x0[2*i] = span.MinX + rng.Float64()*span.W()
				x0[2*i+1] = span.MinY + rng.Float64()*span.H()
			}
		}
		res := optimize.Minimize(obj, x0, optimize.Options{MaxIter: maxIter, GradTol: 1e-6, Context: ctx, Trace: rec})
		if res.F < best.Objective {
			best.Objective = res.F
			best.Centers = make([]geom.Point, n)
			for i := 0; i < n; i++ {
				best.Centers[i] = geom.Point{X: res.X[2*i], Y: res.X[2*i+1]}
			}
		}
		best.Starts = s + 1
		if tracing {
			rec.Record(trace.Event{
				Solver: solver, Kind: trace.KindIter, Iter: s,
				Fields: []trace.Field{
					{Key: "f", Val: res.F},
					{Key: "best", Val: best.Objective},
				},
			})
		}
		if res.Err != nil {
			cancelErr = fmt.Errorf("baseline: cancelled in start %d: %w", s, res.Err)
			break
		}
	}
	if best.Centers == nil {
		return nil, cancelErr
	}
	return &best, cancelErr
}
