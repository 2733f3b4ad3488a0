// Package legalize turns a global floorplan (module centers from any of the
// global methods) into a legal fixed-outline floorplan, following the flow
// the paper describes (Section V): horizontal and vertical constraint graphs
// are derived from the relative positions, then a convex shape-and-position
// optimization assigns final rectangles. The paper casts the shape step as a
// second-order cone program solved by MOSEK; we solve the same convex
// program (widths free with h = s/w, positions subject to constraint-graph
// separations, log-sum-exp smoothed HPWL objective) with a penalty ramp and
// L-BFGS, followed by a longest-path compaction that guarantees an
// overlap-free result and wirelength-driven slack-distribution sweeps.
// Legalization can fail when the shaped critical paths exceed the outline —
// the same failure mode the paper reports as missing points in Fig. 4.
package legalize

import (
	"context"
	"errors"
	"fmt"
	"math"

	"sdpfloor/internal/anneal"
	"sdpfloor/internal/geom"
	"sdpfloor/internal/netlist"
	"sdpfloor/internal/optimize"
	"sdpfloor/internal/sortutil"
	"sdpfloor/internal/trace"
)

// Options configure Legalize.
type Options struct {
	// Outline is the fixed outline (required).
	Outline geom.Rect
	// SmoothRounds is the number of penalty-ramp rounds in the convex
	// shape/position optimization (default 6).
	SmoothRounds int
	// InnerIter is the L-BFGS cap per round (default 120).
	InnerIter int
	// RepairRounds caps the critical-path shape-repair loop (default 40).
	RepairRounds int
	// Sweeps is the number of slack-distribution sweeps (default 6).
	Sweeps int
	// DisableSAFallback turns off the sequence-pair repacking fallback that
	// rescues instances the constraint-graph flow cannot fit (used by tests
	// that exercise the primary pipeline in isolation).
	DisableSAFallback bool
	// Seed drives the fallback annealer.
	Seed int64
	// Context, when non-nil, cancels legalization: it is checked at every
	// L-BFGS iteration of the shape optimization and threaded into the SA
	// fallback.
	Context context.Context
	// Trace, when non-nil and enabled, receives "lbfgs" events from the
	// shape-optimization rounds, the fallback annealer's "sa" events when it
	// runs (and "ipm" events from SOCPShapes); see internal/trace.
	Trace trace.Recorder
}

func (o *Options) setDefaults() {
	if o.SmoothRounds == 0 {
		o.SmoothRounds = 6
	}
	if o.InnerIter == 0 {
		o.InnerIter = 120
	}
	if o.RepairRounds == 0 {
		o.RepairRounds = 40
	}
	if o.Sweeps == 0 {
		o.Sweeps = 6
	}
}

// Result is a legalized floorplan.
type Result struct {
	Rects    []geom.Rect
	Centers  []geom.Point
	HPWL     float64
	Feasible bool    // no overlap and inside the outline
	PackedW  float64 // critical-path extents after compaction
	PackedH  float64
}

// ErrNoOutline is returned when Options.Outline is degenerate.
var ErrNoOutline = errors.New("legalize: outline must have positive area")

// constraintGraphs holds the H/V pair separation DAGs: for an H edge (i, j),
// module i must be entirely left of j; for a V edge, below.
type constraintGraphs struct {
	h, v [][2]int
}

// buildGraphs classifies every module pair as horizontally or vertically
// separated based on the global centers (the larger normalized displacement
// wins, so narrow outlines prefer vertical stacking). Every pair appears in
// exactly one graph, which makes any packing overlap-free.
func buildGraphs(centers []geom.Point, outline geom.Rect) constraintGraphs {
	n := len(centers)
	var g constraintGraphs
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dx := centers[j].X - centers[i].X
			dy := centers[j].Y - centers[i].Y
			// Normalize by the outline dimensions so the split respects the
			// die aspect ratio.
			if math.Abs(dx)*outline.H() >= math.Abs(dy)*outline.W() {
				if dx >= 0 {
					g.h = append(g.h, [2]int{i, j})
				} else {
					g.h = append(g.h, [2]int{j, i})
				}
			} else {
				if dy >= 0 {
					g.v = append(g.v, [2]int{i, j})
				} else {
					g.v = append(g.v, [2]int{j, i})
				}
			}
		}
	}
	return g
}

// Legalize produces a legal floorplan from global centers.
func Legalize(nl *netlist.Netlist, centers []geom.Point, opt Options) (*Result, error) {
	n := nl.N()
	if n == 0 {
		return nil, errors.New("legalize: empty netlist")
	}
	if len(centers) != n {
		return nil, errors.New("legalize: center count mismatch")
	}
	if opt.Outline.W() <= 0 || opt.Outline.H() <= 0 {
		return nil, ErrNoOutline
	}
	if opt.Context != nil {
		if err := opt.Context.Err(); err != nil {
			return nil, fmt.Errorf("legalize: %w", err)
		}
	}
	opt.setDefaults()

	graphs := buildGraphs(centers, opt.Outline)
	sh := newShaper(nl, graphs, opt)
	sh.orig = append([]geom.Point(nil), centers...)

	// Stage 1: smooth convex shape/position optimization from the global
	// floorplan (penalty ramp on the separation constraints).
	sh.smoothOptimize(centers)

	// Stage 2: critical-path shape repair until the packing fits.
	sh.repairShapes()

	// Stage 3: compaction + slack-distribution sweeps.
	res := sh.compact()

	// Stage 4 (fallback): when the constraint graphs derived from the
	// global plan admit no fitting packing — skewed outlines with large
	// min-width modules are the usual culprits — repack with a low-
	// temperature sequence-pair refinement seeded by pl2sp of the global
	// centers. This preserves the global structure (the seed encodes its
	// relative order) while exploring the few edge reassignments the
	// deterministic repair cannot reach.
	if !res.Feasible && !opt.DisableSAFallback {
		sp := anneal.FromPlacement(centers)
		sa, err := anneal.Solve(nl, anneal.Options{
			Outline: opt.Outline,
			Seed:    opt.Seed + 1,
			Init:    &sp,
			T0Scale: 0.15,
			Context: opt.Context,
			Trace:   opt.Trace,
		})
		if err == nil && sa.Feasible {
			res = &Result{
				Rects:    sa.Rects,
				Centers:  sa.Centers,
				HPWL:     sa.HPWL,
				Feasible: true,
				PackedW:  sa.Width,
				PackedH:  sa.Height,
			}
		}
	}
	return res, nil
}

// shaper carries the legalization state.
type shaper struct {
	nl      *netlist.Netlist
	g       constraintGraphs
	opt     Options
	n       int
	w, h    []float64 // current dimensions
	minW    []float64
	maxW    []float64
	area    []float64
	x, y    []float64 // current left/bottom edges
	succH   [][]int   // adjacency by module for longest paths
	predH   [][]int
	succV   [][]int
	predV   [][]int
	topoX   []int // modules sorted by original global x (topological for H)
	topoY   []int
	orig    []geom.Point     // the global centers the graphs were built from
	desired []geom.Point     // preferred centers (updated by smoothOptimize)
	lse     *netlist.LSEEval // the smoothed HPWL over (x, y, w) variables
}

func newShaper(nl *netlist.Netlist, g constraintGraphs, opt Options) *shaper {
	n := nl.N()
	sh := &shaper{
		nl: nl, g: g, opt: opt, n: n,
		w: make([]float64, n), h: make([]float64, n),
		minW: make([]float64, n), maxW: make([]float64, n),
		area: make([]float64, n),
		x:    make([]float64, n), y: make([]float64, n),
		succH: make([][]int, n), predH: make([][]int, n),
		succV: make([][]int, n), predV: make([][]int, n),
		lse: netlist.NewLSEEval(nl, 3),
	}
	for i, m := range nl.Modules {
		sh.area[i] = m.MinArea
		sh.minW[i] = math.Sqrt(m.MinArea / m.MaxAspect)
		sh.maxW[i] = math.Sqrt(m.MinArea * m.MaxAspect)
		sh.w[i] = math.Sqrt(m.MinArea)
		sh.h[i] = m.MinArea / sh.w[i]
	}
	for _, e := range g.h {
		sh.succH[e[0]] = append(sh.succH[e[0]], e[1])
		sh.predH[e[1]] = append(sh.predH[e[1]], e[0])
	}
	for _, e := range g.v {
		sh.succV[e[0]] = append(sh.succV[e[0]], e[1])
		sh.predV[e[1]] = append(sh.predV[e[1]], e[0])
	}
	return sh
}

// smoothOptimize runs the penalty-ramped convex program over (x, y, w).
func (sh *shaper) smoothOptimize(centers []geom.Point) {
	n := sh.n
	sh.desired = append([]geom.Point(nil), centers...)
	out := sh.opt.Outline
	// Pack variables: x center, y center, width.
	xv := make([]float64, 3*n)
	for i := 0; i < n; i++ {
		xv[3*i] = clampF(centers[i].X, out.MinX, out.MaxX)
		xv[3*i+1] = clampF(centers[i].Y, out.MinY, out.MaxY)
		xv[3*i+2] = sh.w[i]
	}
	gamma := 0.02 * (out.W() + out.H())
	mu := 1.0
	for round := 0; round < sh.opt.SmoothRounds; round++ {
		muR, gamR := mu, gamma
		obj := func(v, g []float64) float64 {
			return sh.smoothObjective(v, g, muR, gamR)
		}
		res := optimize.Minimize(obj, xv, optimize.Options{MaxIter: sh.opt.InnerIter, GradTol: 1e-7,
			Context: sh.opt.Context, Trace: sh.opt.Trace})
		copy(xv, res.X)
		if res.Err != nil {
			break
		}
		// Project widths into bounds between rounds.
		for i := 0; i < n; i++ {
			xv[3*i+2] = clampF(xv[3*i+2], sh.minW[i], sh.maxW[i])
		}
		mu *= 4
		if gamma > 1e-3 {
			gamma *= 0.7
		}
	}
	for i := 0; i < n; i++ {
		sh.w[i] = clampF(xv[3*i+2], sh.minW[i], sh.maxW[i])
		sh.h[i] = sh.area[i] / sh.w[i]
		sh.desired[i] = geom.Point{X: xv[3*i], Y: xv[3*i+1]}
	}
}

// smoothObjective is LSE-HPWL + μ·(separation hinge² + outline hinge² +
// width-bound hinge²); all terms convex in (x, y, w) for fixed h = s/w
// handled via the chain rule.
func (sh *shaper) smoothObjective(v, g []float64, mu, gamma float64) float64 {
	n := sh.n
	for i := range g {
		g[i] = 0
	}
	f := sh.lse.Eval(v, gamma, g)

	hinge := func(d float64) (float64, float64) { // value, derivative wrt d
		if d <= 0 {
			return 0, 0
		}
		return d * d, 2 * d
	}
	// Separation constraints: for H edge (i,j):
	// (xi + wi/2) − (xj − wj/2) ≤ 0.
	for _, e := range sh.g.h {
		i, j := e[0], e[1]
		wi, wj := v[3*i+2], v[3*j+2]
		d := v[3*i] + wi/2 - (v[3*j] - wj/2)
		val, dd := hinge(d)
		f += mu * val
		g[3*i] += mu * dd
		g[3*j] -= mu * dd
		g[3*i+2] += mu * dd / 2
		g[3*j+2] += mu * dd / 2
	}
	// V edge: (yi + hi/2) − (yj − hj/2) ≤ 0 with h = s/w,
	// ∂h/∂w = −s/w².
	for _, e := range sh.g.v {
		i, j := e[0], e[1]
		wi, wj := v[3*i+2], v[3*j+2]
		hi := sh.area[i] / wi
		hj := sh.area[j] / wj
		d := v[3*i+1] + hi/2 - (v[3*j+1] - hj/2)
		val, dd := hinge(d)
		f += mu * val
		g[3*i+1] += mu * dd
		g[3*j+1] -= mu * dd
		g[3*i+2] += mu * dd / 2 * (-sh.area[i] / (wi * wi))
		g[3*j+2] += mu * dd / 2 * (-sh.area[j] / (wj * wj))
	}
	// Outline and width bounds.
	out := sh.opt.Outline
	for i := 0; i < n; i++ {
		wi := v[3*i+2]
		hi := sh.area[i] / wi
		// Left/right.
		val, dd := hinge(out.MinX - (v[3*i] - wi/2))
		f += mu * val
		g[3*i] -= mu * dd
		g[3*i+2] += mu * dd / 2
		val, dd = hinge(v[3*i] + wi/2 - out.MaxX)
		f += mu * val
		g[3*i] += mu * dd
		g[3*i+2] += mu * dd / 2
		// Bottom/top (h depends on w).
		val, dd = hinge(out.MinY - (v[3*i+1] - hi/2))
		f += mu * val
		g[3*i+1] -= mu * dd
		g[3*i+2] += mu * dd / 2 * (sh.area[i] / (wi * wi)) // −h/2 shrinks as w grows
		val, dd = hinge(v[3*i+1] + hi/2 - out.MaxY)
		f += mu * val
		g[3*i+1] += mu * dd
		g[3*i+2] += mu * dd / 2 * (-sh.area[i] / (wi * wi))
		// Width box.
		val, dd = hinge(sh.minW[i] - wi)
		f += mu * val
		g[3*i+2] -= mu * dd
		val, dd = hinge(wi - sh.maxW[i])
		f += mu * val
		g[3*i+2] += mu * dd
	}
	return f
}

// longestPathX returns the left-packed positions and total width.
func (sh *shaper) longestPathX() ([]float64, float64) {
	order := sh.topoOrderX()
	lp := make([]float64, sh.n)
	total := 0.0
	for _, m := range order {
		for _, p := range sh.predH[m] {
			if v := lp[p] + sh.w[p]; v > lp[m] {
				lp[m] = v
			}
		}
		if v := lp[m] + sh.w[m]; v > total {
			total = v
		}
	}
	return lp, total
}

func (sh *shaper) longestPathY() ([]float64, float64) {
	order := sh.topoOrderY()
	lp := make([]float64, sh.n)
	total := 0.0
	for _, m := range order {
		for _, p := range sh.predV[m] {
			if v := lp[p] + sh.h[p]; v > lp[m] {
				lp[m] = v
			}
		}
		if v := lp[m] + sh.h[m]; v > total {
			total = v
		}
	}
	return lp, total
}

// topoOrderX returns modules sorted by the ORIGINAL global x — a valid
// topological order of the H DAG, because every H edge (original or
// flipped) is oriented by that same potential; the stable sort breaks ties
// by index, matching buildGraphs' tie rule.
func (sh *shaper) topoOrderX() []int {
	if sh.topoX == nil {
		sh.topoX = make([]int, sh.n)
		for i := range sh.topoX {
			sh.topoX[i] = i
		}
		sortutil.ByKey(sh.topoX, func(m int) float64 { return sh.orig[m].X })
	}
	return sh.topoX
}

func (sh *shaper) topoOrderY() []int {
	if sh.topoY == nil {
		sh.topoY = make([]int, sh.n)
		for i := range sh.topoY {
			sh.topoY[i] = i
		}
		sortutil.ByKey(sh.topoY, func(m int) float64 { return sh.orig[m].Y })
	}
	return sh.topoY
}

// repairShapes shrinks modules on over-long critical paths within their
// aspect bounds until the packing fits the outline (or rounds run out).
// When shrinking stalls — the critical modules are already at their aspect
// bounds — a critical separation edge is flipped into the other constraint
// graph (the pair is stacked instead of abutted), which is the only remedy
// when the minimum widths along a path exceed the outline.
func (sh *shaper) repairShapes() {
	out := sh.opt.Outline
	prevW, prevH := math.Inf(1), math.Inf(1)
	for round := 0; round < sh.opt.RepairRounds; round++ {
		lpx, wTot := sh.longestPathX()
		lpy, hTot := sh.longestPathY()
		fitW, fitH := wTot <= out.W(), hTot <= out.H()
		if fitW && fitH {
			return
		}
		stalled := round > 0 && wTot >= prevW-1e-9 && hTot >= prevH-1e-9
		if stalled {
			if !sh.flipBestEdge(wTot, hTot) {
				return // no improving flip either: genuinely infeasible
			}
		} else {
			if !fitW {
				sh.shrinkCriticalX(lpx, wTot, out.W())
			}
			if !fitH {
				sh.shrinkCriticalY(lpy, hTot, out.H())
			}
		}
		prevW, prevH = wTot, hTot
	}
}

// flipBestEdge evaluates moving each critical-path edge into the other
// constraint graph and applies the flip that most reduces the worse of the
// two overflow ratios. Returns false when no flip improves. Orientation of
// the moved edge follows the ORIGINAL-center potential (index tiebreak), so
// both DAGs stay consistent with the cached topological orders.
func (sh *shaper) flipBestEdge(wTot, hTot float64) bool {
	out := sh.opt.Outline
	score := func(w, h float64) float64 {
		return math.Max(w/out.W(), h/out.H())
	}
	base := score(wTot, hTot)

	lpx, _ := sh.longestPathX()
	lpy, _ := sh.longestPathY()
	critX := map[int]bool{}
	for _, m := range sh.criticalModulesX(lpx, wTot) {
		critX[m] = true
	}
	critY := map[int]bool{}
	for _, m := range sh.criticalModulesY(lpy, hTot) {
		critY[m] = true
	}

	type cand struct {
		fromH bool
		idx   int
	}
	var best *cand
	bestScore := base - 1e-9
	try := func(c cand) {
		sh.applyFlip(c.fromH, c.idx)
		_, w2 := sh.longestPathX()
		_, h2 := sh.longestPathY()
		if s := score(w2, h2); s < bestScore {
			bestScore = s
			cc := c
			best = &cc
		}
		sh.undoFlip(c.fromH)
	}
	for idx, e := range sh.g.h {
		if critX[e[0]] && critX[e[1]] {
			try(cand{fromH: true, idx: idx})
		}
	}
	for idx, e := range sh.g.v {
		if critY[e[0]] && critY[e[1]] {
			try(cand{fromH: false, idx: idx})
		}
	}
	if best == nil {
		return false
	}
	sh.applyFlip(best.fromH, best.idx)
	return true
}

// applyFlip moves edge idx from the H graph to the V graph (fromH) or the
// reverse, appending it to the destination with original-potential
// orientation, and refreshes adjacency.
func (sh *shaper) applyFlip(fromH bool, idx int) {
	if fromH {
		e := sh.g.h[idx]
		sh.g.h = append(sh.g.h[:idx], sh.g.h[idx+1:]...)
		i, j := e[0], e[1]
		//sdpvet:ignore floateq exact tie-break on stored coordinates keeps the sweep order deterministic
		if sh.orig[i].Y > sh.orig[j].Y || (sh.orig[i].Y == sh.orig[j].Y && i > j) {
			i, j = j, i
		}
		sh.g.v = append(sh.g.v, [2]int{i, j})
	} else {
		e := sh.g.v[idx]
		sh.g.v = append(sh.g.v[:idx], sh.g.v[idx+1:]...)
		i, j := e[0], e[1]
		//sdpvet:ignore floateq exact tie-break on stored coordinates keeps the sweep order deterministic
		if sh.orig[i].X > sh.orig[j].X || (sh.orig[i].X == sh.orig[j].X && i > j) {
			i, j = j, i
		}
		sh.g.h = append(sh.g.h, [2]int{i, j})
	}
	sh.rebuildAdjacency()
}

// undoFlip reverses the most recent applyFlip (the moved edge is the last
// element of the destination list; it is re-inserted at the back of the
// source, which is order-insensitive for longest paths).
func (sh *shaper) undoFlip(wasFromH bool) {
	if wasFromH {
		e := sh.g.v[len(sh.g.v)-1]
		sh.g.v = sh.g.v[:len(sh.g.v)-1]
		i, j := e[0], e[1]
		//sdpvet:ignore floateq exact tie-break on stored coordinates keeps the sweep order deterministic
		if sh.orig[i].X > sh.orig[j].X || (sh.orig[i].X == sh.orig[j].X && i > j) {
			i, j = j, i
		}
		sh.g.h = append(sh.g.h, [2]int{i, j})
	} else {
		e := sh.g.h[len(sh.g.h)-1]
		sh.g.h = sh.g.h[:len(sh.g.h)-1]
		i, j := e[0], e[1]
		//sdpvet:ignore floateq exact tie-break on stored coordinates keeps the sweep order deterministic
		if sh.orig[i].Y > sh.orig[j].Y || (sh.orig[i].Y == sh.orig[j].Y && i > j) {
			i, j = j, i
		}
		sh.g.v = append(sh.g.v, [2]int{i, j})
	}
	sh.rebuildAdjacency()
}

// rebuildAdjacency refreshes the succ/pred lists after an edge flip.
func (sh *shaper) rebuildAdjacency() {
	for i := 0; i < sh.n; i++ {
		sh.succH[i] = sh.succH[i][:0]
		sh.predH[i] = sh.predH[i][:0]
		sh.succV[i] = sh.succV[i][:0]
		sh.predV[i] = sh.predV[i][:0]
	}
	for _, e := range sh.g.h {
		sh.succH[e[0]] = append(sh.succH[e[0]], e[1])
		sh.predH[e[1]] = append(sh.predH[e[1]], e[0])
	}
	for _, e := range sh.g.v {
		sh.succV[e[0]] = append(sh.succV[e[0]], e[1])
		sh.predV[e[1]] = append(sh.predV[e[1]], e[0])
	}
}

// shrinkCriticalX narrows every module on a critical horizontal path.
func (sh *shaper) shrinkCriticalX(lp []float64, total, limit float64) {
	crit := sh.criticalModulesX(lp, total)
	if len(crit) == 0 {
		return
	}
	factor := math.Max(0.85, limit/total)
	for _, m := range crit {
		nw := math.Max(sh.minW[m], sh.w[m]*factor)
		sh.w[m] = nw
		sh.h[m] = sh.area[m] / nw
	}
}

func (sh *shaper) shrinkCriticalY(lp []float64, total, limit float64) {
	crit := sh.criticalModulesY(lp, total)
	if len(crit) == 0 {
		return
	}
	factor := math.Max(0.85, limit/total)
	for _, m := range crit {
		nh := math.Max(sh.area[m]/sh.maxW[m], sh.h[m]*factor)
		sh.h[m] = nh
		sh.w[m] = sh.area[m] / nh
	}
}

// criticalModulesX returns modules on some longest horizontal path.
func (sh *shaper) criticalModulesX(lp []float64, total float64) []int {
	// Backward pass: tail length from each module.
	order := sh.topoOrderX()
	tail := make([]float64, sh.n)
	for idx := len(order) - 1; idx >= 0; idx-- {
		m := order[idx]
		tail[m] = sh.w[m]
		for _, s := range sh.succH[m] {
			if v := sh.w[m] + tail[s]; v > tail[m] {
				tail[m] = v
			}
		}
	}
	var crit []int
	for m := 0; m < sh.n; m++ {
		if lp[m]+tail[m] >= total-1e-9 {
			crit = append(crit, m)
		}
	}
	return crit
}

func (sh *shaper) criticalModulesY(lp []float64, total float64) []int {
	order := sh.topoOrderY()
	tail := make([]float64, sh.n)
	for idx := len(order) - 1; idx >= 0; idx-- {
		m := order[idx]
		tail[m] = sh.h[m]
		for _, s := range sh.succV[m] {
			if v := sh.h[m] + tail[s]; v > tail[m] {
				tail[m] = v
			}
		}
	}
	var crit []int
	for m := 0; m < sh.n; m++ {
		if lp[m]+tail[m] >= total-1e-9 {
			crit = append(crit, m)
		}
	}
	return crit
}

// compact assigns final positions: longest-path lower bounds, upper bounds
// from the reverse paths, then wirelength-driven slack-distribution sweeps.
func (sh *shaper) compact() *Result {
	out := sh.opt.Outline
	lpx, wTot := sh.longestPathX()
	lpy, hTot := sh.longestPathY()
	res := &Result{PackedW: wTot, PackedH: hTot}
	feasible := wTot <= out.W()*(1+1e-9) && hTot <= out.H()*(1+1e-9)

	// Initial positions: left/bottom packed.
	copy(sh.x, lpx)
	copy(sh.y, lpy)

	if feasible {
		sh.distributeSlack()
		// The sweeps clamp to the lower bound when a module's slack window
		// inverts transiently, which can leave residual overlap; project
		// back onto the legal polytope (always possible when the critical
		// paths fit the outline).
		sh.projectLegal()
	}

	rects := make([]geom.Rect, sh.n)
	centers := make([]geom.Point, sh.n)
	for i := 0; i < sh.n; i++ {
		rects[i] = geom.Rect{
			MinX: out.MinX + sh.x[i], MinY: out.MinY + sh.y[i],
			MaxX: out.MinX + sh.x[i] + sh.w[i], MaxY: out.MinY + sh.y[i] + sh.h[i],
		}
		centers[i] = rects[i].Center()
	}
	res.Rects = rects
	res.Centers = centers
	res.HPWL = sh.nl.HPWL(centers)
	res.Feasible = feasible && sh.noOverlap(rects)
	return res
}

// projectLegal restores constraint-graph feasibility after the sweeps: in
// topological order each module is clamped into [max preds(x+w), L − tail],
// where tail is the longest downstream path. When the critical path fits
// the outline this window is provably non-empty (x_p + w_p ≤ L − tail_p +
// w_p ≤ L − tail_m for every edge p→m), so the projection always succeeds.
func (sh *shaper) projectLegal() {
	out := sh.opt.Outline
	// Horizontal.
	orderX := sh.topoOrderX()
	tailX := make([]float64, sh.n)
	for idx := len(orderX) - 1; idx >= 0; idx-- {
		m := orderX[idx]
		tailX[m] = sh.w[m]
		for _, s := range sh.succH[m] {
			if v := sh.w[m] + tailX[s]; v > tailX[m] {
				tailX[m] = v
			}
		}
	}
	for _, m := range orderX {
		lower := 0.0
		for _, p := range sh.predH[m] {
			if v := sh.x[p] + sh.w[p]; v > lower {
				lower = v
			}
		}
		hi := out.W() - tailX[m]
		if hi < lower {
			hi = lower // numerically tight packings: prefer the separation constraint
		}
		sh.x[m] = clampF(sh.x[m], lower, hi)
	}
	// Vertical.
	orderY := sh.topoOrderY()
	tailY := make([]float64, sh.n)
	for idx := len(orderY) - 1; idx >= 0; idx-- {
		m := orderY[idx]
		tailY[m] = sh.h[m]
		for _, s := range sh.succV[m] {
			if v := sh.h[m] + tailY[s]; v > tailY[m] {
				tailY[m] = v
			}
		}
	}
	for _, m := range orderY {
		lower := 0.0
		for _, p := range sh.predV[m] {
			if v := sh.y[p] + sh.h[p]; v > lower {
				lower = v
			}
		}
		hi := out.H() - tailY[m]
		if hi < lower {
			hi = lower
		}
		sh.y[m] = clampF(sh.y[m], lower, hi)
	}
}

// distributeSlack runs alternating forward/backward sweeps that move each
// module toward its wirelength-preferred position within the slack window
// allowed by its placed neighbours.
func (sh *shaper) distributeSlack() {
	out := sh.opt.Outline
	for sweep := 0; sweep < sh.opt.Sweeps; sweep++ {
		// X sweep (reverse topological, pushing right toward preferences,
		// then forward enforcing lower bounds).
		orderX := sh.topoOrderX()
		for idx := len(orderX) - 1; idx >= 0; idx-- {
			m := orderX[idx]
			upper := out.W() - sh.w[m]
			for _, s := range sh.succH[m] {
				if v := sh.x[s] - sh.w[m]; v < upper {
					upper = v
				}
			}
			lower := 0.0
			for _, p := range sh.predH[m] {
				if v := sh.x[p] + sh.w[p]; v > lower {
					lower = v
				}
			}
			des := sh.preferredX(m) - sh.w[m]/2 - out.MinX
			sh.x[m] = clampF(des, lower, math.Max(lower, upper))
		}
		orderY := sh.topoOrderY()
		for idx := len(orderY) - 1; idx >= 0; idx-- {
			m := orderY[idx]
			upper := out.H() - sh.h[m]
			for _, s := range sh.succV[m] {
				if v := sh.y[s] - sh.h[m]; v < upper {
					upper = v
				}
			}
			lower := 0.0
			for _, p := range sh.predV[m] {
				if v := sh.y[p] + sh.h[p]; v > lower {
					lower = v
				}
			}
			des := sh.preferredY(m) - sh.h[m]/2 - out.MinY
			sh.y[m] = clampF(des, lower, math.Max(lower, upper))
		}
	}
}

// preferredX returns the wirelength-preferred x center of module m: the
// median of the centers of the other pins on its nets (falling back to the
// global-floorplan position when m has no connections).
func (sh *shaper) preferredX(m int) float64 {
	var vals []float64
	out := sh.opt.Outline
	for _, e := range sh.nl.Nets {
		on := false
		for _, mm := range e.Modules {
			if mm == m {
				on = true
				break
			}
		}
		if !on {
			continue
		}
		for _, mm := range e.Modules {
			if mm != m {
				vals = append(vals, out.MinX+sh.x[mm]+sh.w[mm]/2)
			}
		}
		for _, p := range e.Pads {
			vals = append(vals, sh.nl.Pads[p].Pos.X)
		}
	}
	if len(vals) == 0 {
		return sh.desired[m].X
	}
	return median(vals)
}

func (sh *shaper) preferredY(m int) float64 {
	var vals []float64
	out := sh.opt.Outline
	for _, e := range sh.nl.Nets {
		on := false
		for _, mm := range e.Modules {
			if mm == m {
				on = true
				break
			}
		}
		if !on {
			continue
		}
		for _, mm := range e.Modules {
			if mm != m {
				vals = append(vals, out.MinY+sh.y[mm]+sh.h[mm]/2)
			}
		}
		for _, p := range e.Pads {
			vals = append(vals, sh.nl.Pads[p].Pos.Y)
		}
	}
	if len(vals) == 0 {
		return sh.desired[m].Y
	}
	return median(vals)
}

func (sh *shaper) noOverlap(rects []geom.Rect) bool {
	for i := range rects {
		for j := i + 1; j < len(rects); j++ {
			if rects[i].Intersects(rects[j], 1e-9) {
				return false
			}
		}
	}
	return true
}

func median(v []float64) float64 {
	idx := make([]int, len(v))
	for i := range idx {
		idx[i] = i
	}
	sortutil.ByKey(idx, func(i int) float64 { return v[i] })
	k := len(v) / 2
	if len(v)%2 == 1 {
		return v[idx[k]]
	}
	return 0.5 * (v[idx[k-1]] + v[idx[k]])
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
