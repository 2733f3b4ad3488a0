package sdp

import (
	"context"
	"fmt"
	"math"

	"sdpfloor/internal/linalg"
	"sdpfloor/internal/parallel"
	"sdpfloor/internal/trace"
)

// IPMOptions configure the interior-point solver.
type IPMOptions struct {
	Tol     float64 // relative tolerance on gap and infeasibilities (default 1e-7)
	MaxIter int     // iteration cap (default 100)
	Gamma   float64 // fraction-to-boundary factor in (0,1) (default 0.98)
	NoScale bool    // disable the constraint equilibration presolve
	// Workers is the parallelism used for the Schur complement, the dense
	// factorizations, and the step computation. 0 picks the shared pool
	// default (GOMAXPROCS, or SDPFLOOR_WORKERS when set); 1 is fully
	// sequential. Every parallel path splits work into chunks fixed by the
	// requested count with element-disjoint writes, so the iterate trajectory
	// is bitwise identical for every value of Workers.
	Workers int
	// Warm start (optional): a prior primal–dual iterate, typically the
	// solution of a closely related problem (same constraints, perturbed
	// objective). All five pieces must be present and shape-matched —
	// X0/S0 one matrix per PSD block, XLP0/SLP0 of length LPDim, Y0 of
	// length len(Cons) — or the solver starts cold. The iterate is pushed
	// to the interior (blended with the centered scaled identity) before
	// use, and the solver falls back to the cold start automatically when
	// the blended point is still not safely positive definite; Solution.Warm
	// reports what actually happened. Y0 is given against the original
	// problem; the solver maps it onto the equilibrated rows itself.
	X0, S0     []*linalg.Dense
	XLP0, SLP0 []float64
	Y0         []float64
	// Reuse, when non-nil, caches the equilibration and the constraint
	// layout the Schur assembly reads across a sequence of solves whose
	// constraint set is unchanged (see IPMReuse). Independent of the warm
	// start: either can be used without the other.
	Reuse *IPMReuse
	// Arena, when non-nil, supplies the iteration-scoped scratch — matrices,
	// factorization and eigendecomposition workspaces, direction storage —
	// and receives all of it back when the solve returns. A convex-iteration
	// driver that hands the same arena to every solve of a sequence makes
	// the whole sequence allocation-free in the steady state. An arena must
	// not be shared by concurrent solves. Nil allocates private scratch.
	Arena *linalg.Arena
	// Context, when non-nil, is checked at every iteration boundary; on
	// cancellation or deadline the solver stops, returns the current iterate
	// with StatusCancelled, and reports the context error.
	Context context.Context
	// Trace, when non-nil and enabled, receives structured telemetry
	// ("ipm" events): one "start" record, one "iter" record per completed
	// iteration (μ, objectives, residuals, centering σ, step lengths,
	// Cholesky retries), and exactly one "final" record on every exit path
	// — convergence, numerical failure, the iteration limit, and
	// cancellation. Event content is deterministic across worker counts.
	// When the equilibration presolve is active (NoScale unset), traced
	// objectives and residuals refer to the scaled problem the iterations
	// run on. See internal/trace and docs/TRACING.md.
	Trace trace.Recorder
}

func (o *IPMOptions) setDefaults() {
	if o.Tol == 0 {
		o.Tol = 1e-7
	}
	if o.MaxIter == 0 {
		o.MaxIter = 100
	}
	if o.Gamma == 0 {
		o.Gamma = 0.98
	}
}

// ipmState carries the working variables of one solve. The iterate itself
// (x, s, y, and the LP parts) is allocated plainly — it escapes into the
// returned Solution — while everything iteration-scoped below the scratch
// marker is checked out of the arena at construction and returned by
// release(), so the iteration loop allocates nothing in the steady state.
type ipmState struct {
	p       *Problem
	opt     IPMOptions
	workers int

	nb   int // number of PSD blocks
	m    int // number of constraints
	nu   float64
	lay  *conLayout
	warm bool // iterate seeded from IPMOptions.{X0,S0,Y0,...}

	x, s     []*linalg.Dense
	xlp, slp []float64
	y        []float64

	b      []float64
	bn, cn float64

	// Iteration-scoped scratch (arena-owned).
	arena    *linalg.Arena
	rp       []float64
	rd       []*linalg.Dense
	rdlp     []float64
	ax       []float64
	sinv     []*linalg.Dense
	xchol    []*linalg.Cholesky // views into xcholW, refreshed per iteration
	schol    []*linalg.Cholesky
	xcholW   []*linalg.CholWork
	scholW   []*linalg.CholWork
	tryCholW []*linalg.CholWork // step-safeguard trial factorizations
	eigW     []*linalg.EigWork
	schurW   *linalg.CholWork
	schur    *linalg.Dense
	xrdsinv  []*linalg.Dense // X Rd S⁻¹ cache, shared by predictor and corrector
	corr     []*linalg.Dense // Mehrotra corrector ΔX_aff·ΔS_aff
	corrSinv []*linalg.Dense
	corrLP   []float64
	tmp1     []*linalg.Dense
	tmp2     []*linalg.Dense
	rhs      []float64
	aff, dir *direction
	mm       linalg.MatMulWork

	// Dispatch state for the bound parallel closures: the closures are
	// created once at construction and read the fields below, so per-call
	// dispatch allocates nothing.
	schurFn, rhsFn func(lo, hi int)
	dSigmaMu       float64
	dUseCorr       bool
}

// SolveIPM solves the problem with a primal–dual interior-point method using
// the HKM search direction and Mehrotra's predictor–corrector. It is an
// infeasible-start method: the initial iterate is a scaled identity, or a
// pushed-to-interior blend of the caller's prior solution when the warm-start
// options are set (with automatic fallback to the cold start).
func SolveIPM(p *Problem, opt IPMOptions) (*Solution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	opt.setDefaults()
	orig := p
	reuseHit := opt.Reuse != nil && opt.Reuse.matches(p, opt.NoScale)
	var sp *scaledProblem
	if !opt.NoScale {
		if reuseHit {
			// Same constraints as the cached solve: only the objective
			// changed, and equilibrate shares C/CLP shallowly, so swapping
			// them in revalidates the cached scaled problem.
			sp = opt.Reuse.scaled
			sp.p.C, sp.p.CLP = p.C, p.CLP
		} else {
			sp = equilibrate(p)
		}
		p = sp.p
		if len(opt.Y0) == len(p.Cons) {
			// The iterations run on the row-equilibrated problem; map the
			// warm duals forward (unscaleDuals inverts this on the way out).
			y0 := make([]float64, len(opt.Y0))
			for k, v := range opt.Y0 {
				y0[k] = v * sp.norms[k]
			}
			opt.Y0 = y0
		}
	}
	var lay *conLayout
	if reuseHit {
		lay = opt.Reuse.lay
	}
	st := newIPMState(p, opt, lay)
	if opt.Reuse != nil && !reuseHit {
		opt.Reuse.store(orig, opt.NoScale, sp, st.lay)
	}
	sol := st.run()
	if sp != nil {
		sp.unscaleDuals(sol.Y)
		// Objectives and residuals are reported against the original data.
		sol.DualObj = 0
		for k := range sp.norms {
			sol.DualObj += sol.Y[k] * sp.p.Cons[k].B * sp.norms[k]
		}
	}
	if sol.Status == StatusCancelled {
		return sol, fmt.Errorf("sdp: ipm cancelled after %d iterations: %w",
			sol.Iterations, opt.Context.Err())
	}
	return sol, nil
}

// newIPMState prepares the working state. lay, when non-nil, is a cached
// constraint layout from IPMReuse (valid because the constraint set is
// unchanged); nil builds it fresh.
func newIPMState(p *Problem, opt IPMOptions, lay *conLayout) *ipmState {
	st := &ipmState{p: p, opt: opt, nb: len(p.PSDDims), m: len(p.Cons)}
	st.workers = parallel.Workers(opt.Workers)
	st.nu = float64(p.coneDim())
	st.b = p.rhsVector()
	st.bn, st.cn = p.dataNorms()
	st.lay = lay
	if lay == nil {
		st.lay = newConLayout(p)
	}

	// Initial point: scaled identities (SDPT3-style heuristics).
	xi := math.Max(10, math.Sqrt(st.nu))
	eta := math.Max(10, math.Sqrt(st.nu))
	//sdpvet:ignore ctxloop bounded initial-point setup; the IPM iteration loop checks Context every step
	for k := range p.Cons {
		anorm := constraintNorm(&p.Cons[k])
		if v := float64(p.coneDim()) * math.Abs(p.Cons[k].B) / (1 + anorm); v > xi {
			xi = v
		}
	}
	if st.cn > eta {
		eta = st.cn
	}
	st.x = make([]*linalg.Dense, st.nb)
	st.s = make([]*linalg.Dense, st.nb)
	for bidx, d := range p.PSDDims {
		st.x[bidx] = linalg.Identity(d)
		st.x[bidx].Scale(xi)
		st.s[bidx] = linalg.Identity(d)
		st.s[bidx].Scale(eta)
	}
	st.xlp = make([]float64, p.LPDim)
	st.slp = make([]float64, p.LPDim)
	for i := range st.xlp {
		st.xlp[i] = xi
		st.slp[i] = eta
	}
	st.y = make([]float64, st.m)

	// Arena-owned scratch: everything below is returned by release().
	st.arena = opt.Arena
	if st.arena == nil {
		st.arena = linalg.NewArena()
	}
	a := st.arena
	st.rd = make([]*linalg.Dense, st.nb)
	st.sinv = make([]*linalg.Dense, st.nb)
	st.xchol = make([]*linalg.Cholesky, st.nb)
	st.schol = make([]*linalg.Cholesky, st.nb)
	st.xcholW = make([]*linalg.CholWork, st.nb)
	st.scholW = make([]*linalg.CholWork, st.nb)
	st.tryCholW = make([]*linalg.CholWork, st.nb)
	st.eigW = make([]*linalg.EigWork, st.nb)
	st.xrdsinv = make([]*linalg.Dense, st.nb)
	st.corr = make([]*linalg.Dense, st.nb)
	st.corrSinv = make([]*linalg.Dense, st.nb)
	st.tmp1 = make([]*linalg.Dense, st.nb)
	st.tmp2 = make([]*linalg.Dense, st.nb)
	for bidx, d := range p.PSDDims {
		st.rd[bidx] = a.Mat(d, d)
		st.sinv[bidx] = a.Mat(d, d)
		st.xrdsinv[bidx] = a.Mat(d, d)
		st.corr[bidx] = a.Mat(d, d)
		st.corrSinv[bidx] = a.Mat(d, d)
		st.tmp1[bidx] = a.Mat(d, d)
		st.tmp2[bidx] = a.Mat(d, d)
		st.xcholW[bidx] = a.Chol(d)
		st.scholW[bidx] = a.Chol(d)
		st.tryCholW[bidx] = a.Chol(d)
		st.eigW[bidx] = a.Eig(d)
	}
	st.schurW = a.Chol(st.m)
	st.schur = a.Mat(st.m, st.m)
	st.rp = a.Vec(st.m)
	st.ax = a.Vec(st.m)
	st.rhs = a.Vec(st.m)
	st.rdlp = a.Vec(p.LPDim)
	st.corrLP = a.Vec(p.LPDim)
	st.aff = st.newDirection()
	st.dir = st.newDirection()
	st.schurFn = st.schurRows
	st.rhsFn = st.rhsRows

	// Warm start, when requested: replaces the cold point just prepared,
	// falling back to it automatically if the warmed iterate is unusable.
	st.warm = st.tryWarmStart(xi, eta)
	return st
}

// release returns every piece of iteration-scoped scratch to the arena. Run
// exactly once, when the solve finishes; the next solve sharing the arena
// checks the same buffers out again.
func (st *ipmState) release() {
	a := st.arena
	for bidx := range st.rd {
		a.Put(st.rd[bidx])
		a.Put(st.sinv[bidx])
		a.Put(st.xrdsinv[bidx])
		a.Put(st.corr[bidx])
		a.Put(st.corrSinv[bidx])
		a.Put(st.tmp1[bidx])
		a.Put(st.tmp2[bidx])
		a.PutChol(st.xcholW[bidx])
		a.PutChol(st.scholW[bidx])
		a.PutChol(st.tryCholW[bidx])
		a.PutEig(st.eigW[bidx])
	}
	a.PutChol(st.schurW)
	a.Put(st.schur)
	a.PutVec(st.rp)
	a.PutVec(st.ax)
	a.PutVec(st.rhs)
	a.PutVec(st.rdlp)
	a.PutVec(st.corrLP)
	st.putDirection(st.aff)
	st.putDirection(st.dir)
}

func constraintNorm(c *Constraint) float64 {
	s := 0.0
	for _, es := range c.PSD {
		for _, e := range es {
			if e.I == e.J {
				s += e.V * e.V
			} else {
				s += 2 * e.V * e.V
			}
		}
	}
	for _, e := range c.LP {
		s += e.V * e.V
	}
	return math.Sqrt(s)
}

// direction holds one search direction over all blocks. Its storage is
// arena-owned (see newDirection/putDirection); the two directions the solver
// needs live for the whole solve and are reused every iteration.
type direction struct {
	dx, ds     []*linalg.Dense
	dxlp, dslp []float64
	dy         []float64
}

func (st *ipmState) newDirection() *direction {
	a := st.arena
	d := &direction{
		dx: make([]*linalg.Dense, st.nb), ds: make([]*linalg.Dense, st.nb),
		dxlp: a.Vec(st.p.LPDim), dslp: a.Vec(st.p.LPDim),
		dy: a.Vec(st.m),
	}
	for bidx, dim := range st.p.PSDDims {
		d.dx[bidx] = a.Mat(dim, dim)
		d.ds[bidx] = a.Mat(dim, dim)
	}
	return d
}

func (st *ipmState) putDirection(d *direction) {
	a := st.arena
	for bidx := range d.dx {
		a.Put(d.dx[bidx])
		a.Put(d.ds[bidx])
	}
	a.PutVec(d.dxlp)
	a.PutVec(d.dslp)
	a.PutVec(d.dy)
}

func (st *ipmState) run() *Solution {
	defer st.release()
	p, opt := st.p, st.opt
	sol := &Solution{Status: StatusIterationLimit}
	tracing := traceOn(opt.Trace)
	if tracing {
		// The deferred record covers every exit path — convergence, the
		// three numerical-failure returns, the iteration limit, and the
		// cancellation break — so a trace always closes with one "final".
		defer func() {
			opt.Trace.Record(trace.Event{
				Solver: "ipm", Kind: "final", Iter: sol.Iterations,
				Status: sol.Status.String(),
				Fields: []trace.Field{
					{Key: "pobj", Val: sol.PrimalObj},
					{Key: "dobj", Val: sol.DualObj},
					{Key: "relP", Val: sol.PrimalInfeas},
					{Key: "relD", Val: sol.DualInfeas},
					{Key: "relG", Val: sol.Gap},
					{Key: "warm", Val: boolVal(st.warm)},
				},
			})
		}()
		opt.Trace.Record(trace.Event{
			Solver: "ipm", Kind: "start",
			Fields: []trace.Field{
				{Key: "m", Val: float64(st.m)},
				{Key: "nu", Val: st.nu},
				{Key: "tol", Val: opt.Tol},
				{Key: "maxIter", Val: float64(opt.MaxIter)},
				{Key: "warm", Val: boolVal(st.warm)},
			},
		})
	}

	for iter := 0; iter < opt.MaxIter; iter++ {
		if opt.Context != nil && opt.Context.Err() != nil {
			sol.Status = StatusCancelled
			break
		}
		sol.Iterations = iter
		st.residuals()

		gap := st.innerXS()
		mu := gap / st.nu
		pobj := p.primalObjective(st.x, st.xlp)
		dobj := linalg.Dot(st.b, st.y)
		relP := linalg.Norm2(st.rp) / (1 + st.bn)
		relD := st.dualResNorm() / (1 + st.cn)
		relG := math.Abs(pobj-dobj) / (1 + math.Abs(pobj) + math.Abs(dobj))
		if relP < opt.Tol && relD < opt.Tol && relG < opt.Tol {
			sol.Status = StatusOptimal
			st.fill(sol, pobj, dobj, relP, relD, relG)
			return sol
		}

		// Factor X and S; compute S⁻¹.
		if !st.factorIterates() {
			sol.Status = StatusNumericalFailure
			if st.nearOptimal(relP, relD, relG) {
				sol.Status = StatusOptimal
			}
			st.fill(sol, pobj, dobj, relP, relD, relG)
			return sol
		}

		// Schur complement (shared by predictor and corrector).
		schur := st.formSchur()
		sfac, retries, err := factorSchur(st.schurW, schur, st.workers)
		if err != nil {
			sol.Status = StatusNumericalFailure
			if st.nearOptimal(relP, relD, relG) {
				sol.Status = StatusOptimal
			}
			st.fill(sol, pobj, dobj, relP, relD, relG)
			return sol
		}

		// A(X Rd S⁻¹) — reused by both solves this iteration.
		st.prepXrdsinv()

		// Predictor: σ = 0, no corrector term.
		aff := st.aff
		st.solveDirection(sfac, aff, 0, mu, false)
		apAff := st.maxStepPrimal(aff)
		adAff := st.maxStepDual(aff)

		// Mehrotra centering parameter.
		muAff := st.innerXSAfter(aff, apAff, adAff) / st.nu
		sigma := math.Pow(muAff/mu, 3)
		if sigma > 1 {
			sigma = 1
		}
		if sigma < 1e-8 {
			sigma = 1e-8
		}

		// Corrector.
		st.buildCorrector(aff)
		dir := st.dir
		st.solveDirection(sfac, dir, sigma, mu, true)

		ap := st.maxStepPrimal(dir)
		ad := st.maxStepDual(dir)
		// Safety: ensure factorizability after the step; back off if needed.
		ap = st.safeguardPrimal(dir, ap)
		ad = st.safeguardDual(dir, ad)
		if ap < 1e-10 && ad < 1e-10 {
			sol.Status = StatusNumericalFailure
			if st.nearOptimal(relP, relD, relG) {
				sol.Status = StatusOptimal
			}
			st.fill(sol, pobj, dobj, relP, relD, relG)
			return sol
		}

		for bidx := range st.x {
			st.x[bidx].AddScaled(ap, dir.dx[bidx])
			st.x[bidx].Symmetrize()
			st.s[bidx].AddScaled(ad, dir.ds[bidx])
			st.s[bidx].Symmetrize()
		}
		for i := range st.xlp {
			st.xlp[i] += ap * dir.dxlp[i]
			st.slp[i] += ad * dir.dslp[i]
		}
		linalg.Axpy(ad, dir.dy, st.y)

		if tracing {
			opt.Trace.Record(trace.Event{
				Solver: "ipm", Kind: "iter", Iter: iter,
				Fields: []trace.Field{
					{Key: "mu", Val: mu},
					{Key: "pobj", Val: pobj},
					{Key: "dobj", Val: dobj},
					{Key: "relP", Val: relP},
					{Key: "relD", Val: relD},
					{Key: "relG", Val: relG},
					{Key: "sigma", Val: sigma},
					{Key: "alphaP", Val: ap},
					{Key: "alphaD", Val: ad},
					{Key: "cholRetries", Val: float64(retries)},
				},
			})
		}
	}

	// Iteration limit: report final residuals.
	pobj := p.primalObjective(st.x, st.xlp)
	dobj := linalg.Dot(st.b, st.y)
	p.applyA(st.x, st.xlp, st.ax)
	for k := range st.rp {
		st.rp[k] = st.b[k] - st.ax[k]
	}
	relP := linalg.Norm2(st.rp) / (1 + st.bn)
	relD := st.dualResNorm() / (1 + st.cn)
	relG := math.Abs(pobj-dobj) / (1 + math.Abs(pobj) + math.Abs(dobj))
	st.fill(sol, pobj, dobj, relP, relD, relG)
	return sol
}

// nearOptimal downgrades a numerical stall close to convergence —
// interior-point iterations routinely lose positive definiteness in the last
// digits of an already-excellent iterate; callers get the near-optimal point
// rather than a failure.
func (st *ipmState) nearOptimal(relP, relD, relG float64) bool {
	loose := 50 * st.opt.Tol
	return relP < loose && relD < loose && relG < loose
}

// residuals refreshes Ax, rp = b − Ax, Rd = C − S − Aᵀy, and the LP dual
// residual at the current iterate.
//
//sdpvet:hotpath
func (st *ipmState) residuals() {
	p := st.p
	p.applyA(st.x, st.xlp, st.ax)
	for k := range st.rp {
		st.rp[k] = st.b[k] - st.ax[k]
	}
	p.applyAT(st.y, st.rd, st.rdlp)
	for bidx := range st.rd {
		// Rd = C − S − Aᵀ(y); applyAT stored Aᵀ(y), flip and add.
		rd := st.rd[bidx]
		rd.Scale(-1)
		rd.AddScaled(1, p.C[bidx])
		rd.AddScaled(-1, st.s[bidx])
	}
	for i := range st.rdlp {
		st.rdlp[i] = p.CLP[i] - st.slp[i] - st.rdlp[i]
	}
}

// factorIterates refactors every X and S block into the recycled workspaces
// and refreshes S⁻¹ in place; it reports false when a block has lost positive
// definiteness.
//
//sdpvet:hotpath
func (st *ipmState) factorIterates() bool {
	for bidx := range st.x {
		c, err := st.xcholW[bidx].Factor(st.x[bidx], st.workers)
		if err != nil {
			return false
		}
		st.xchol[bidx] = c
		c, err = st.scholW[bidx].Factor(st.s[bidx], st.workers)
		if err != nil {
			return false
		}
		st.schol[bidx] = c
		c.InverseInto(st.sinv[bidx], st.workers)
		st.sinv[bidx].Symmetrize()
	}
	return true
}

// prepXrdsinv refreshes the per-block X Rd S⁻¹ product cache shared by the
// predictor and corrector right-hand sides.
//
//sdpvet:hotpath
func (st *ipmState) prepXrdsinv() {
	for bidx := range st.x {
		st.mm.MatMulInto(st.tmp1[bidx], st.x[bidx], st.rd[bidx], st.workers)
		st.mm.MatMulInto(st.xrdsinv[bidx], st.tmp1[bidx], st.sinv[bidx], st.workers)
	}
}

// buildCorrector fills the Mehrotra corrector terms ΔX_aff·ΔS_aff (and the
// LP analogue) from the affine direction.
//
//sdpvet:hotpath
func (st *ipmState) buildCorrector(aff *direction) {
	for bidx := range st.corr {
		st.mm.MatMulInto(st.corr[bidx], aff.dx[bidx], aff.ds[bidx], st.workers)
	}
	for i := range st.corrLP {
		st.corrLP[i] = aff.dxlp[i] * aff.dslp[i]
	}
}

func (st *ipmState) fill(sol *Solution, pobj, dobj, relP, relD, relG float64) {
	sol.Warm = st.warm
	sol.X = st.x
	sol.XLP = st.xlp
	sol.Y = st.y
	sol.S = st.s
	sol.SLP = st.slp
	sol.PrimalObj = pobj
	sol.DualObj = dobj
	sol.PrimalInfeas = relP
	sol.DualInfeas = relD
	sol.Gap = relG
}

//sdpvet:hotpath
func (st *ipmState) innerXS() float64 {
	g := linalg.Dot(st.xlp, st.slp)
	for bidx := range st.x {
		g += linalg.InnerProd(st.x[bidx], st.s[bidx])
	}
	return g
}

// innerXSAfter evaluates ⟨X + αpΔX, S + αdΔS⟩ by bilinear expansion — four
// inner products per block instead of two cloned-and-updated matrices.
//
//sdpvet:hotpath
func (st *ipmState) innerXSAfter(d *direction, ap, ad float64) float64 {
	g := 0.0
	for bidx := range st.x {
		x, s := st.x[bidx], st.s[bidx]
		dx, ds := d.dx[bidx], d.ds[bidx]
		g += linalg.InnerProd(x, s) + ad*linalg.InnerProd(x, ds) +
			ap*linalg.InnerProd(dx, s) + ap*ad*linalg.InnerProd(dx, ds)
	}
	for i := range st.xlp {
		g += (st.xlp[i] + ap*d.dxlp[i]) * (st.slp[i] + ad*d.dslp[i])
	}
	return g
}

//sdpvet:hotpath
func (st *ipmState) dualResNorm() float64 {
	s := 0.0
	for bidx := range st.rd {
		f := st.rd[bidx].FrobNorm()
		s += f * f
	}
	f := linalg.Norm2(st.rdlp)
	return math.Sqrt(s + f*f)
}

// factorSchur factors the Schur complement into the recycled workspace,
// retrying with a diagonal shift when the factorization fails. The shift is
// recomputed from the *current* diagonal before every retry: earlier attempts
// have already shifted the matrix, so a bound captured once up front both
// understates what a later attempt needs and — when taken from MaxAbs of the
// full matrix — overshoots badly for Schur complements whose off-diagonal
// entries dwarf the diagonal. On success the (possibly shifted) matrix
// remains in schur, and the second return value reports how many shifted
// retries were needed (0 on a clean factorization) — surfaced per iteration
// by the trace layer.
//
//sdpvet:hotpath
func factorSchur(w *linalg.CholWork, schur *linalg.Dense, workers int) (*linalg.Cholesky, int, error) {
	m := schur.Rows
	scale := 1e-13
	var err error
	for attempt := 0; attempt < 8; attempt++ {
		var sfac *linalg.Cholesky
		sfac, err = w.Factor(schur, workers)
		if err == nil {
			return sfac, attempt, nil
		}
		dmax := 0.0
		for i := 0; i < m; i++ {
			if a := math.Abs(schur.At(i, i)); a > dmax {
				dmax = a
			}
		}
		reg := scale * (1 + dmax)
		for i := 0; i < m; i++ {
			schur.Add(i, i, reg)
		}
		scale *= 100
	}
	return nil, 8, err
}

// conLayout is the constraint data in the form the Schur assembly and the
// direction right-hand side read. ents holds every constraint's PSD entries
// expanded to both orientations, block-major then constraint-major, so the
// Schur row sweep walks it sequentially; an off-diagonal (I, J) is listed
// as (J, I) first, then (I, J). Every sum over a constraint's entries runs
// in list order, so that order is part of the solver's exact rounding. lp
// holds the LP part of the Schur complement, Σ_i a_ki a_li xᵢ/sᵢ, as one
// term per matching coefficient pair with l ≤ k: only rows that share an
// LP variable contribute, which for the floorplan problem (one slack per
// inequality) is just the diagonal. r1 marks the rows whose PSD part is
// the rank-one c·d dᵀ, d = e_a − e_b, on one block (the floorplan's
// distance rows): the Schur element of two such rows on the same block is a
// product of two bilinear forms, four lookups each, instead of an entry-pair
// sum. The layout depends only on the constraint set, so IPMReuse caches it
// across solves.
type conLayout struct {
	ents  []schurEntry
	off   [][]int  // block b, constraint k: ents[off[b][k]:off[b][k+1]]
	lp    []lpTerm // row k's terms, by column then coefficient order
	lpOff []int    // row k: lp[lpOff[k]:lpOff[k+1]]
	r1    []rankOne
}

// rankOne describes a constraint whose PSD part is c·d dᵀ with
// d = e_a − e_b on block blk (blk < 0: the row is not of that form). an and
// bn are the row offsets a·n and b·n into the block's storage.
type rankOne struct {
	c            float64
	blk          int
	a, b, an, bn int
}

// schurEntry is one expanded constraint entry A[I][J] = V of an n×n block,
// with the column offset J·n precomputed.
type schurEntry struct {
	V     float64
	I, Jn int
}

// lpTerm adds V·x_i/s_i to element (k, l) of the Schur complement; V is the
// product of row k's and row l's coefficients on LP variable i.
type lpTerm struct {
	V    float64
	l, i int32
}

func newConLayout(p *Problem) *conLayout {
	m := len(p.Cons)
	lay := &conLayout{off: make([][]int, len(p.PSDDims)), lpOff: make([]int, 1, m+1)}
	size, nlp := 0, 0
	for k := range p.Cons {
		for _, es := range p.Cons[k].PSD {
			size += 2 * len(es)
		}
		nlp += len(p.Cons[k].LP)
	}
	lay.ents = make([]schurEntry, 0, size)
	lay.lp = make([]lpTerm, 0, nlp) // exact when no two rows share an LP variable
	for bidx, n := range p.PSDDims {
		off := make([]int, 1, m+1)
		off[0] = len(lay.ents)
		for k := range p.Cons {
			if c := &p.Cons[k]; bidx < len(c.PSD) {
				for _, e := range c.PSD[bidx] {
					lay.ents = append(lay.ents, schurEntry{V: e.V, I: e.J, Jn: e.I * n})
					if e.I != e.J {
						lay.ents = append(lay.ents, schurEntry{V: e.V, I: e.I, Jn: e.J * n})
					}
				}
			}
			off = append(off, len(lay.ents))
		}
		lay.off[bidx] = off
	}
	lay.r1 = make([]rankOne, m)
	for k := range p.Cons {
		c := &p.Cons[k]
		lay.r1[k] = asRankOne(c, p.PSDDims)
		for l := 0; l <= k; l++ {
			for _, e := range c.LP {
				for _, f := range p.Cons[l].LP {
					if e.I == f.I {
						lay.lp = append(lay.lp, lpTerm{V: e.V * f.V, l: int32(l), i: int32(e.I)})
					}
				}
			}
		}
		lay.lpOff = append(lay.lpOff, len(lay.lp))
	}
	return lay
}

// asRankOne recognizes a constraint whose only PSD block holds exactly the
// three entries of c·d dᵀ with d = e_a − e_b — (a, a, c), (b, b, c) and
// (a, b, −c), in any order and orientation — and returns blk −1 for any
// other constraint.
func asRankOne(c *Constraint, dims []int) rankOne {
	none := rankOne{blk: -1}
	blk := -1
	for bidx, es := range c.PSD {
		if len(es) == 0 {
			continue
		}
		if blk >= 0 {
			return none
		}
		blk = bidx
	}
	if blk < 0 || len(c.PSD[blk]) != 3 {
		return none
	}
	var diag [2]Entry
	var off Entry
	nDiag, nOff := 0, 0
	for _, e := range c.PSD[blk] {
		if e.I != e.J {
			off = e
			nOff++
		} else if nDiag < 2 {
			diag[nDiag] = e
			nDiag++
		}
	}
	v := diag[0].V
	//sdpvet:ignore floateq the product form must reproduce the entries exactly, so equal means bit-equal
	if nDiag != 2 || nOff != 1 || v == 0 || diag[1].V != v || off.V != -v {
		return none
	}
	a, b := off.I, off.J
	if !(diag[0].I == a && diag[1].I == b) && !(diag[0].I == b && diag[1].I == a) {
		return none
	}
	n := dims[blk]
	return rankOne{c: v, blk: blk, a: a, b: b, an: a * n, bn: b * n}
}

// formSchur builds M_kl = Σ_blocks tr(A_l X A_k S⁻¹) + Σ_i a_ki a_li xᵢ/sᵢ
// into the persistent st.schur. With symmetric data the HKM Schur complement
// is symmetric positive definite, and its consumers — the Cholesky and the
// diagonal shift of factorSchur — read only the lower triangle, so only that
// is computed; the strict upper triangle holds stale values. Row k costs k+1
// pair evaluations, so the row sweep is balanced triangularly
// (parallel.ForTri); each element is written by exactly one chunk and
// computed in the sequential order, so the matrix is bitwise identical for
// every worker count.
//
//sdpvet:hotpath
func (st *ipmState) formSchur() *linalg.Dense {
	parallel.ForTri(st.workers, st.m, 36, st.schurFn)
	return st.schur
}

// schurRows computes the lower-triangle part of rows [klo, khi) of the Schur
// complement. Blocks are the outer loop so each block's row-k entries and
// matrices are loaded once per row; element (k, l) still accumulates from
// 0 over the blocks in order and then the LP terms, as the formula reads.
// When rows k and l are both rank-one on the block (conLayout.r1), the
// block's term is c_k·c_l·(d_lᵀ X d_k)(d_kᵀ S⁻¹ d_l); every other element
// takes the entry-pair sum.
//
//sdpvet:hotpath
func (st *ipmState) schurRows(klo, khi int) {
	lay := st.lay
	for k := klo; k < khi; k++ {
		row := st.schur.Row(k)[:k+1]
		clear(row)
		rk := &lay.r1[k]
		for bidx, off := range lay.off {
			ek := lay.ents[off[k]:off[k+1]]
			sk, xk := st.sinv[bidx].Data, st.x[bidx].Data
			kOne := rk.blk == bidx
			lo := off[0]
			for l, hi := range off[1 : k+2] {
				v := row[l]
				el := lay.ents[lo:hi]
				lo = hi
				if rl := &lay.r1[l]; kOne && rl.blk == bidx {
					dxd := xk[rl.an+rk.a] - xk[rl.an+rk.b] - xk[rl.bn+rk.a] + xk[rl.bn+rk.b]
					dsd := sk[rk.an+rl.a] - sk[rk.an+rl.b] - sk[rk.bn+rl.a] + sk[rk.bn+rl.b]
					row[l] = v + rk.c*rl.c*dxd*dsd
					continue
				}
				for _, e := range el {
					for _, f := range ek {
						// tr(A_l X A_k S⁻¹) term: S⁻¹[f.J, e.I] · X[e.J, f.I]
						v += e.V * f.V * sk[f.Jn+e.I] * xk[e.Jn+f.I]
					}
				}
				row[l] = v
			}
		}
		for _, t := range lay.lp[lay.lpOff[k]:lay.lpOff[k+1]] {
			row[t.l] += t.V * st.xlp[t.i] / st.slp[t.i]
		}
	}
}

// solveDirection computes the search direction for centering parameter σ,
// including the Mehrotra corrector terms (st.corr/st.corrLP, prepared by
// buildCorrector) when useCorr is set.
//
//sdpvet:hotpath
func (st *ipmState) solveDirection(sfac *linalg.Cholesky, d *direction, sigma, mu float64, useCorr bool) {
	p := st.p
	if useCorr {
		for bidx := range st.corrSinv {
			st.mm.MatMulInto(st.corrSinv[bidx], st.corr[bidx], st.sinv[bidx], st.workers)
		}
	}
	// Right-hand side: rp − A(σμS⁻¹ − X) + A(X Rd S⁻¹) + A(corr·S⁻¹), plus
	// the LP analogues. Each rhs[k] only reads shared state, so the
	// constraint sweep splits cleanly across the pool.
	st.dSigmaMu = sigma * mu
	st.dUseCorr = useCorr
	parallel.For(st.workers, st.m, 64, st.rhsFn)
	copy(d.dy, st.rhs)
	sfac.SolveVec(d.dy)

	// ΔS = Rd − Aᵀ(Δy).
	p.applyAT(d.dy, d.ds, d.dslp)
	for bidx := range d.ds {
		ds := d.ds[bidx]
		ds.Scale(-1)
		ds.AddScaled(1, st.rd[bidx])
	}
	for i := range d.dslp {
		d.dslp[i] = st.rdlp[i] - d.dslp[i]
	}

	// ΔX = σμS⁻¹ − X − H(X ΔS S⁻¹ + corr S⁻¹).
	for bidx := range d.dx {
		st.mm.MatMulInto(st.tmp1[bidx], st.x[bidx], d.ds[bidx], st.workers)
		st.mm.MatMulInto(st.tmp2[bidx], st.tmp1[bidx], st.sinv[bidx], st.workers)
		t := st.tmp2[bidx]
		if useCorr {
			t.AddScaled(1, st.corrSinv[bidx])
		}
		dx := d.dx[bidx]
		dx.CopyFrom(st.sinv[bidx])
		dx.Scale(sigma * mu)
		dx.AddScaled(-1, st.x[bidx])
		dx.AddScaled(-1, t)
		dx.Symmetrize()
	}
	for i := range d.dxlp {
		v := sigma*mu/st.slp[i] - st.xlp[i] - st.xlp[i]/st.slp[i]*d.dslp[i]
		if useCorr {
			v -= st.corrLP[i] / st.slp[i]
		}
		d.dxlp[i] = v
	}
}

// rhsRows fills st.rhs[klo:khi] for the current direction solve, reading the
// dispatch fields dSigmaMu/dUseCorr set by solveDirection.
//
//sdpvet:hotpath
func (st *ipmState) rhsRows(klo, khi int) {
	p, lay := st.p, st.lay
	sigmaMu, useCorr := st.dSigmaMu, st.dUseCorr
	for k := klo; k < khi; k++ {
		v := st.rp[k]
		for bidx, off := range lay.off {
			es := lay.ents[off[k]:off[k+1]]
			if len(es) == 0 {
				continue
			}
			sinv, x, xrd := st.sinv[bidx].Data, st.x[bidx].Data, st.xrdsinv[bidx].Data
			var cs []float64
			if useCorr {
				cs = st.corrSinv[bidx].Data
			}
			// ⟨A_k, M⟩ = Σ A[I][J]·M[J][I], entry by entry.
			for _, e := range es {
				ji := e.Jn + e.I
				v -= e.V * (sigmaMu*sinv[ji] - x[ji])
				v += e.V * xrd[ji]
				if useCorr {
					v += e.V * cs[ji]
				}
			}
		}
		for _, e := range p.Cons[k].LP {
			i := e.I
			v -= e.V * (sigmaMu/st.slp[i] - st.xlp[i])
			v += e.V * (st.xlp[i] / st.slp[i]) * st.rdlp[i]
			if useCorr {
				v += e.V * st.corrLP[i] / st.slp[i]
			}
		}
		st.rhs[k] = v
	}
}

// maxStepPSD returns the largest α such that P + α·ΔP ⪰ 0 for block bidx,
// using λmin(L⁻¹ ΔP L⁻ᵀ) where P = LLᵀ. Both triangular solves run as
// row-sweeps over contiguous storage (ΔP is symmetric, so its rows are its
// columns), and λmin comes from the block's eigen workspace without
// eigenvectors (EigWork.MinEigenvalue); every step is bitwise deterministic
// across worker counts.
//
//sdpvet:hotpath
func (st *ipmState) maxStepPSD(chol *linalg.Cholesky, dp *linalg.Dense, bidx int) float64 {
	m1, m2 := st.tmp1[bidx], st.tmp2[bidx]
	// m1 = Wᵀ where W = L⁻¹ ΔP: row j of ΔP is column j, so the row solve
	// produces the columns of W as rows.
	m1.CopyFrom(dp)
	chol.ForwardSolveRows(m1, st.workers)
	// T = W L⁻ᵀ, i.e. Tᵀ = L⁻¹ Wᵀ: the rows of m1ᵀ are the columns of Wᵀ;
	// row-solving them yields the rows of T.
	m1.TransposeInto(m2)
	chol.ForwardSolveRows(m2, st.workers)
	m2.Symmetrize()
	lmin, err := st.eigW[bidx].MinEigenvalue(m2, st.workers)
	if err != nil {
		return 0
	}
	if lmin >= 0 {
		return math.Inf(1)
	}
	return -1 / lmin
}

//sdpvet:hotpath
func (st *ipmState) maxStepPrimal(d *direction) float64 {
	a := math.Inf(1)
	for bidx := range st.x {
		if s := st.maxStepPSD(st.xchol[bidx], d.dx[bidx], bidx); s < a {
			a = s
		}
	}
	for i := range st.xlp {
		if d.dxlp[i] < 0 {
			if s := -st.xlp[i] / d.dxlp[i]; s < a {
				a = s
			}
		}
	}
	return math.Min(1, st.opt.Gamma*a)
}

//sdpvet:hotpath
func (st *ipmState) maxStepDual(d *direction) float64 {
	a := math.Inf(1)
	for bidx := range st.s {
		if s := st.maxStepPSD(st.schol[bidx], d.ds[bidx], bidx); s < a {
			a = s
		}
	}
	for i := range st.slp {
		if d.dslp[i] < 0 {
			if s := -st.slp[i] / d.dslp[i]; s < a {
				a = s
			}
		}
	}
	return math.Min(1, st.opt.Gamma*a)
}

//sdpvet:hotpath
func (st *ipmState) safeguardPrimal(d *direction, a float64) float64 {
	for try := 0; try < 30; try++ {
		ok := true
		for bidx := range st.x {
			x2 := st.tmp1[bidx]
			x2.CopyFrom(st.x[bidx])
			x2.AddScaled(a, d.dx[bidx])
			x2.Symmetrize()
			if _, err := st.tryCholW[bidx].Factor(x2, st.workers); err != nil {
				ok = false
				break
			}
		}
		if ok {
			return a
		}
		a *= 0.8
	}
	return 0
}

//sdpvet:hotpath
func (st *ipmState) safeguardDual(d *direction, a float64) float64 {
	for try := 0; try < 30; try++ {
		ok := true
		for bidx := range st.s {
			s2 := st.tmp1[bidx]
			s2.CopyFrom(st.s[bidx])
			s2.AddScaled(a, d.ds[bidx])
			s2.Symmetrize()
			if _, err := st.tryCholW[bidx].Factor(s2, st.workers); err != nil {
				ok = false
				break
			}
		}
		if ok {
			return a
		}
		a *= 0.8
	}
	return 0
}
