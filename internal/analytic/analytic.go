// Package analytic implements the non-convex analytical fixed-die
// floorplanner used as the "Analytical [7]" baseline in Table III
// (Zhan–Feng–Sapatnekar style): a log-sum-exp smoothed HPWL objective plus a
// bin-based bell-shaped density penalty whose multiplier is ramped up over
// successive rounds, each minimized with L-BFGS. As the paper notes, the
// formulation is non-convex and the optimizer converges to a local optimum;
// its output is post-processed with pl2sp (see internal/anneal.FromPlacement)
// before legal evaluation.
package analytic

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"sdpfloor/internal/geom"
	"sdpfloor/internal/netlist"
	"sdpfloor/internal/optimize"
	"sdpfloor/internal/trace"
)

// Options configure Solve.
type Options struct {
	// Outline is the fixed die region (required).
	Outline geom.Rect
	// Bins is the density grid resolution per axis (default ⌈√n⌉+2).
	Bins int
	// Rounds is the number of multiplier ramps (default 8).
	Rounds int
	// Lambda0 is the initial density multiplier relative to the wirelength
	// scale (default 0.01).
	Lambda0 float64
	// Gamma0 is the initial LSE smoothing width relative to the outline
	// dimension (default 0.04). Halved every round.
	Gamma0 float64
	// Seed perturbs the initial placement (modules start near the die
	// center, as analytical placers do).
	Seed int64
	// InnerIter is the L-BFGS cap per round (default 150).
	InnerIter int
	// Context, when non-nil, is checked between multiplier rounds and at
	// every L-BFGS iteration; on cancellation Solve returns the centers at
	// the last iterate together with the wrapped context error.
	Context context.Context
	// Trace, when non-nil and enabled, receives structured telemetry: one
	// "analytic" iter record per multiplier round plus exactly one final
	// on every exit path, and the nested "lbfgs" stream of each round's
	// inner minimization. See internal/trace.
	Trace trace.Recorder
}

func (o *Options) setDefaults(n int) {
	if o.Bins == 0 {
		o.Bins = int(math.Ceil(math.Sqrt(float64(n)))) + 2
	}
	if o.Rounds == 0 {
		o.Rounds = 8
	}
	if o.Lambda0 == 0 {
		o.Lambda0 = 0.01
	}
	if o.Gamma0 == 0 {
		o.Gamma0 = 0.04
	}
	if o.InnerIter == 0 {
		o.InnerIter = 150
	}
}

// Result is the analytical global floorplan.
type Result struct {
	Centers []geom.Point
	HPWL    float64 // exact HPWL at the final centers
	Rounds  int
}

// Solve runs the multiplier-ramped analytical optimization.
func Solve(nl *netlist.Netlist, opt Options) (*Result, error) {
	n := nl.N()
	if n == 0 {
		return nil, errors.New("analytic: empty netlist")
	}
	if err := nl.Validate(); err != nil {
		return nil, err
	}
	if opt.Outline.W() <= 0 || opt.Outline.H() <= 0 {
		return nil, errors.New("analytic: outline must have positive area")
	}
	opt.setDefaults(n)
	rng := rand.New(rand.NewSource(opt.Seed))

	// Initial placement: uniform over the die. Coincident modules receive
	// identical density gradients and can never separate under smooth
	// forces, so a spread start (rather than the die center) is essential.
	xv := make([]float64, 2*n)
	for i := 0; i < n; i++ {
		xv[2*i] = opt.Outline.MinX + rng.Float64()*opt.Outline.W()
		xv[2*i+1] = opt.Outline.MinY + rng.Float64()*opt.Outline.H()
	}

	dens := newDensityGrid(nl, opt.Outline, opt.Bins)
	lse := netlist.NewLSEEval(nl, 2)
	wlScale := 1.0
	lambda := opt.Lambda0
	{
		g := make([]float64, 2*n)
		wl := lse.Eval(xv, opt.Gamma0*opt.Outline.W(), g)
		if wl > 1 {
			wlScale = wl
		}
		gwl := normInf2(g)
		for i := range g {
			g[i] = 0
		}
		dens.penalty(xv, g, 1)
		gpen := normInf2(g)
		// Balance the two forces at the start (ePlace-style): with λ too
		// small the wirelength collapses the placement in round 0 and the
		// collapse is irreversible under smooth forces.
		if gpen > 1e-12 {
			lambda = opt.Lambda0 * (gwl / wlScale) / gpen * 100
		}
	}
	gamma := opt.Gamma0 * math.Max(opt.Outline.W(), opt.Outline.H())
	var cancelErr error
	rounds := 0
	hpwl := 0.0
	tracing := opt.Trace != nil && opt.Trace.Enabled()
	if tracing {
		// Deferred — and registered before the start — so the completed
		// ramp, a mid-ramp cancellation, and a panic all close the run
		// with exactly one final.
		defer func() {
			status := "ok"
			if cancelErr != nil {
				status = "cancelled"
			}
			opt.Trace.Record(trace.Event{
				Solver: "analytic", Kind: trace.KindFinal, Iter: rounds, Status: status,
				Fields: []trace.Field{{Key: "hpwl", Val: hpwl}},
			})
		}()
		opt.Trace.Record(trace.Event{
			Solver: "analytic", Kind: trace.KindStart,
			Fields: []trace.Field{
				{Key: "n", Val: float64(n)},
				{Key: "bins", Val: float64(opt.Bins)},
				{Key: "rounds", Val: float64(opt.Rounds)},
			},
		})
	}
	for round := 0; round < opt.Rounds; round++ {
		if opt.Context != nil {
			if err := opt.Context.Err(); err != nil {
				cancelErr = fmt.Errorf("analytic: cancelled after %d rounds: %w", round, err)
				break
			}
		}
		// Jitter to escape the symmetric saddle where coincident modules
		// receive cancelling density gradients (every analytical placer
		// needs an equivalent symmetry-breaking device).
		jr := 0.03 * dens.binW / (1 + float64(round))
		for i := range xv {
			xv[i] += jr * rng.NormFloat64()
		}
		lam, gam := lambda, gamma
		obj := func(x, g []float64) float64 {
			for i := range g {
				g[i] = 0
			}
			f := lse.Eval(x, gam, g) / wlScale
			for i := range g {
				g[i] /= wlScale
			}
			f += lam * dens.penalty(x, g, lam)
			f += boundaryPenalty(nl, opt.Outline, x, g)
			return f
		}
		res := optimize.Minimize(obj, xv, optimize.Options{MaxIter: opt.InnerIter, GradTol: 1e-7, Context: opt.Context, Trace: opt.Trace})
		copy(xv, res.X)
		rounds = round + 1
		if tracing {
			opt.Trace.Record(trace.Event{
				Solver: "analytic", Kind: trace.KindIter, Iter: round,
				Fields: []trace.Field{
					{Key: "lambda", Val: lam},
					{Key: "gamma", Val: gam},
					{Key: "f", Val: res.F},
				},
			})
		}
		if res.Err != nil {
			cancelErr = fmt.Errorf("analytic: cancelled in round %d: %w", round, res.Err)
			break
		}
		lambda *= 2
		if gamma > 1e-3 {
			gamma *= 0.7
		}
	}

	centers := make([]geom.Point, n)
	for i := 0; i < n; i++ {
		centers[i] = geom.Point{X: xv[2*i], Y: xv[2*i+1]}
	}
	hpwl = nl.HPWL(centers)
	return &Result{Centers: centers, HPWL: hpwl, Rounds: rounds}, cancelErr
}

// densityGrid evaluates the bell-shaped bin density penalty of [7].
type densityGrid struct {
	nl      *netlist.Netlist
	outline geom.Rect
	bins    int
	binW    float64
	binH    float64
	target  float64   // target area per bin
	halfDim []float64 // module half-dimension (√s/2)
	d       []float64 // bin densities (scratch)
	// Per-module scratch of penalty: aᵢ/Sᵢ and (1/Sᵢ)·∂Sᵢ/∂x, ∂Sᵢ/∂y.
	scales, dSx, dSy []float64
}

func newDensityGrid(nl *netlist.Netlist, outline geom.Rect, bins int) *densityGrid {
	dg := &densityGrid{
		nl: nl, outline: outline, bins: bins,
		binW: outline.W() / float64(bins),
		binH: outline.H() / float64(bins),
		d:    make([]float64, bins*bins),
	}
	dg.target = nl.TotalArea() / float64(bins*bins)
	dg.halfDim = make([]float64, nl.N())
	dg.scales = make([]float64, nl.N())
	dg.dSx = make([]float64, nl.N())
	dg.dSy = make([]float64, nl.N())
	for i, m := range nl.Modules {
		dg.halfDim[i] = math.Sqrt(m.MinArea) / 2
	}
	return dg
}

// bell is a Gaussian influence kernel and its derivative factor: the module
// spreads its area over nearby bins with scale σ.
func bell(d, sigma float64) (val, dvalDd float64) {
	t := d / sigma
	v := math.Exp(-t * t)
	return v, -2 * t / sigma * v
}

// sigmas returns the kernel widths for module i: tight enough that the blob
// is roughly the module footprint, but never narrower than a bin (which
// would alias between bin centers and produce noisy gradients).
func (dg *densityGrid) sigmas(i int) (sx, sy float64) {
	sx = math.Max(0.7*dg.halfDim[i], 0.6*dg.binW)
	sy = math.Max(0.7*dg.halfDim[i], 0.6*dg.binH)
	return sx, sy
}

// window returns the bin index range influenced by a module at (x, y).
func (dg *densityGrid) window(x, y, sx, sy float64) (bx0, bx1, by0, by1 int) {
	bins := dg.bins
	bx0 = clampInt(int((x-3*sx-dg.outline.MinX)/dg.binW), 0, bins-1)
	bx1 = clampInt(int((x+3*sx-dg.outline.MinX)/dg.binW), 0, bins-1)
	by0 = clampInt(int((y-3*sy-dg.outline.MinY)/dg.binH), 0, bins-1)
	by1 = clampInt(int((y+3*sy-dg.outline.MinY)/dg.binH), 0, bins-1)
	return
}

// penalty computes Σ_b (D_b − target)²/norm and accumulates λ·∇ into g.
// Each module deposits exactly its area: D_b = Σᵢ aᵢ·k_ib/Sᵢ with
// Sᵢ = Σ_b k_ib; the gradient includes the normalization term, so it is the
// exact derivative of the returned value. The caller multiplies the returned
// value by λ itself; the gradient added to g is λ·∇penalty.
func (dg *densityGrid) penalty(xv, g []float64, lambda float64) float64 {
	bins := dg.bins
	for b := range dg.d {
		dg.d[b] = 0
	}
	n := dg.nl.N()
	norm := dg.target * dg.target * float64(bins*bins)
	if norm == 0 {
		return 0
	}
	scales, dSx, dSy := dg.scales, dg.dSx, dg.dSy
	// First pass: kernel sums and densities.
	for i := 0; i < n; i++ {
		x, y := xv[2*i], xv[2*i+1]
		sx, sy := dg.sigmas(i)
		bx0, bx1, by0, by1 := dg.window(x, y, sx, sy)
		s, dsx, dsy := 0.0, 0.0, 0.0
		for bx := bx0; bx <= bx1; bx++ {
			cx := dg.outline.MinX + (float64(bx)+0.5)*dg.binW
			px, dpx := bell(x-cx, sx)
			for by := by0; by <= by1; by++ {
				cy := dg.outline.MinY + (float64(by)+0.5)*dg.binH
				py, dpy := bell(y-cy, sy)
				s += px * py
				dsx += dpx * py
				dsy += px * dpy
			}
		}
		if s < 1e-12 {
			s = 1e-12
		}
		scales[i] = dg.nl.Modules[i].MinArea / s
		dSx[i] = dsx / s // (1/S)·∂S/∂x
		dSy[i] = dsy / s
		for bx := bx0; bx <= bx1; bx++ {
			cx := dg.outline.MinX + (float64(bx)+0.5)*dg.binW
			px, _ := bell(x-cx, sx)
			for by := by0; by <= by1; by++ {
				cy := dg.outline.MinY + (float64(by)+0.5)*dg.binH
				py, _ := bell(y-cy, sy)
				dg.d[bx*bins+by] += scales[i] * px * py
			}
		}
	}
	pen := 0.0
	for b := range dg.d {
		diff := dg.d[b] - dg.target
		pen += diff * diff
	}
	pen /= norm
	// Gradient:
	// ∂pen/∂xᵢ = (2/norm)·(aᵢ/Sᵢ)·[Σ_b (D_b−t)·dk_ib − (∂Sᵢ/∂x / Sᵢ)·Σ_b (D_b−t)·k_ib].
	for i := 0; i < n; i++ {
		x, y := xv[2*i], xv[2*i+1]
		sx, sy := dg.sigmas(i)
		bx0, bx1, by0, by1 := dg.window(x, y, sx, sy)
		var t1x, t1y, t2 float64
		for bx := bx0; bx <= bx1; bx++ {
			cx := dg.outline.MinX + (float64(bx)+0.5)*dg.binW
			px, dpx := bell(x-cx, sx)
			for by := by0; by <= by1; by++ {
				cy := dg.outline.MinY + (float64(by)+0.5)*dg.binH
				py, dpy := bell(y-cy, sy)
				diff := dg.d[bx*bins+by] - dg.target
				t1x += diff * dpx * py
				t1y += diff * px * dpy
				t2 += diff * px * py
			}
		}
		g[2*i] += lambda * 2 * scales[i] * (t1x - dSx[i]*t2) / norm
		g[2*i+1] += lambda * 2 * scales[i] * (t1y - dSy[i]*t2) / norm
	}
	return pen
}

// boundaryPenalty keeps module centers inside the die with a quadratic wall
// and accumulates its gradient.
func boundaryPenalty(nl *netlist.Netlist, outline geom.Rect, xv, g []float64) float64 {
	pen := 0.0
	scale := 10.0 / (outline.W() * outline.H())
	for i := 0; i < nl.N(); i++ {
		half := math.Sqrt(nl.Modules[i].MinArea) / 2
		lo := [2]float64{outline.MinX + half, outline.MinY + half}
		hi := [2]float64{outline.MaxX - half, outline.MaxY - half}
		for axis := 0; axis < 2; axis++ {
			v := xv[2*i+axis]
			if v < lo[axis] {
				d := lo[axis] - v
				pen += scale * d * d
				g[2*i+axis] -= 2 * scale * d
			} else if v > hi[axis] {
				d := v - hi[axis]
				pen += scale * d * d
				g[2*i+axis] += 2 * scale * d
			}
		}
	}
	return pen
}

func normInf2(x []float64) float64 {
	m := 0.0
	for _, v := range x {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
