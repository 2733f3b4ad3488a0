package sdp

import (
	"context"
	"fmt"
	"math"

	"sdpfloor/internal/linalg"
	"sdpfloor/internal/parallel"
	"sdpfloor/internal/trace"
)

// ADMMOptions configure the first-order solver.
type ADMMOptions struct {
	Tol     float64 // relative residual tolerance (default 1e-5)
	MaxIter int     // iteration cap (default 5000)
	Mu      float64 // initial penalty (default 1); adapted during the run
	// Workers is the parallelism for the per-iteration eigendecomposition and
	// PSD projection. 0 picks the shared pool default; the iterate trajectory
	// is bitwise identical for every value (see IPMOptions.Workers).
	Workers int
	// Warm start (optional): initial primal/dual iterates and penalty. Each
	// field is used only when its shape matches the problem (every PSD block
	// for X0/S0, LPDim for XLP0/SLP0, the constraint count for Y0), so a
	// stale iterate from a differently-shaped problem silently falls back to
	// the cold default for that piece rather than failing the solve. Mu0 > 0
	// resumes the adapted penalty reported in Solution.Mu by a previous run;
	// it takes precedence over Mu. Mu0 is for resuming the SAME problem
	// (e.g. continuing after a cancellation or iteration limit): on a
	// changed objective the terminal penalty is mistuned for the new
	// transient and can stall convergence, which is why the automatic
	// warm-start layer in internal/core deliberately leaves it unset.
	X0   []*linalg.Dense
	XLP0 []float64
	Y0   []float64
	S0   []*linalg.Dense
	SLP0 []float64
	Mu0  float64
	// Arena, when non-nil, supplies the iteration-scoped scratch (see
	// IPMOptions.Arena — the same contract: shared across a sequence of
	// solves but never across concurrent ones, returned in full when the
	// solve exits, nil allocates private scratch).
	Arena *linalg.Arena
	// Context, when non-nil, is checked at every iteration boundary; on
	// cancellation or deadline the solver stops, returns the current iterate
	// with StatusCancelled, and reports the context error.
	Context context.Context
	// Trace, when non-nil and enabled, receives structured telemetry
	// ("admm" events): one "start" record, one "iter" record per iteration
	// (objectives, primal/dual residuals, the adapted penalty μ, and the
	// positive-eigenvalue count of the PSD projection), and exactly one
	// "final" record on every exit path including cancellation. Event
	// content is deterministic across worker counts; see internal/trace.
	Trace trace.Recorder
}

func (o *ADMMOptions) setDefaults() {
	if o.Tol == 0 {
		o.Tol = 1e-5
	}
	if o.MaxIter == 0 {
		o.MaxIter = 5000
	}
	if o.Mu == 0 {
		o.Mu = 1
	}
}

// admmState carries the working variables of one ADMM solve. The iterate
// (x, s, y, LP parts) is allocated plainly — it escapes into the Solution —
// while the per-iteration scratch is checked out of the arena once at
// construction and returned by release(), so iterate() allocates nothing in
// the steady state.
type admmState struct {
	p       *Problem
	opt     ADMMOptions
	workers int
	nb, m   int
	b       []float64
	bn, cn  float64
	warm    bool

	x, s     []*linalg.Dense
	xlp, slp []float64
	y        []float64
	mu       float64

	// Iteration-scoped scratch (arena-owned).
	arena     *linalg.Arena
	aty       []*linalg.Dense
	atylp     []float64
	ax        []float64
	rhs       []float64
	cs        []*linalg.Dense // C − S for the y-update; dual-residual scratch
	cslp      []float64
	vblk      []*linalg.Dense // V = C − Aᵀ(y) − μX per block
	tmpBlocks []*linalg.Dense // AAᵀ operator scratch
	tmpLP     []float64
	eigW      []*linalg.EigWork
	cgw       *linalg.CGWork
	aat       linalg.MulVecFn // bound once over tmpBlocks/tmpLP
}

func newADMMState(p *Problem, opt ADMMOptions) *admmState {
	st := &admmState{p: p, opt: opt, nb: len(p.PSDDims), m: len(p.Cons)}
	st.workers = parallel.Workers(opt.Workers)
	st.b = p.rhsVector()
	st.bn, st.cn = p.dataNorms()

	// Warm-start fields are consumed piecewise: whatever matches the problem
	// shape seeds the iterate, the rest keeps the cold default.
	useX0 := blocksMatch(opt.X0, p.PSDDims)
	useS0 := blocksMatch(opt.S0, p.PSDDims)
	useXLP0 := p.LPDim > 0 && len(opt.XLP0) == p.LPDim
	useSLP0 := p.LPDim > 0 && len(opt.SLP0) == p.LPDim
	useY0 := st.m > 0 && len(opt.Y0) == st.m
	st.warm = useX0 || useS0 || useXLP0 || useSLP0 || useY0 || opt.Mu0 > 0
	st.x = make([]*linalg.Dense, st.nb)
	st.s = make([]*linalg.Dense, st.nb)
	//sdpvet:ignore ctxloop bounded warm-start seeding; the ADMM iteration loop checks Context every step
	for bi, d := range p.PSDDims {
		if useX0 {
			st.x[bi] = opt.X0[bi].Clone()
		} else {
			st.x[bi] = linalg.Identity(d)
		}
		if useS0 {
			st.s[bi] = opt.S0[bi].Clone()
		} else {
			st.s[bi] = linalg.Identity(d)
		}
	}
	st.xlp = make([]float64, p.LPDim)
	st.slp = make([]float64, p.LPDim)
	for i := range st.xlp {
		st.xlp[i] = 1
		st.slp[i] = 1
		if useXLP0 {
			st.xlp[i] = opt.XLP0[i]
		}
		if useSLP0 {
			st.slp[i] = opt.SLP0[i]
		}
	}
	st.y = make([]float64, st.m)
	if useY0 {
		copy(st.y, opt.Y0)
	}
	st.mu = opt.Mu
	if opt.Mu0 > 0 {
		st.mu = opt.Mu0
	}

	// Arena-owned scratch.
	st.arena = opt.Arena
	if st.arena == nil {
		st.arena = linalg.NewArena()
	}
	a := st.arena
	st.aty = make([]*linalg.Dense, st.nb)
	st.cs = make([]*linalg.Dense, st.nb)
	st.vblk = make([]*linalg.Dense, st.nb)
	st.tmpBlocks = make([]*linalg.Dense, st.nb)
	st.eigW = make([]*linalg.EigWork, st.nb)
	for bi, d := range p.PSDDims {
		st.aty[bi] = a.Mat(d, d)
		st.cs[bi] = a.Mat(d, d)
		st.vblk[bi] = a.Mat(d, d)
		st.tmpBlocks[bi] = a.Mat(d, d)
		st.eigW[bi] = a.Eig(d)
	}
	st.atylp = a.Vec(p.LPDim)
	st.ax = a.Vec(st.m)
	st.rhs = a.Vec(st.m)
	st.cslp = a.Vec(p.LPDim)
	st.tmpLP = a.Vec(p.LPDim)
	st.cgw = a.CG()
	// Matrix-free AAᵀ operator for the y-update CG solve, bound once.
	st.aat = func(dst, v []float64) {
		p.applyAT(v, st.tmpBlocks, st.tmpLP)
		p.applyA(st.tmpBlocks, st.tmpLP, dst)
	}
	return st
}

// release returns every piece of iteration-scoped scratch to the arena.
func (st *admmState) release() {
	a := st.arena
	for bi := range st.aty {
		a.Put(st.aty[bi])
		a.Put(st.cs[bi])
		a.Put(st.vblk[bi])
		a.Put(st.tmpBlocks[bi])
		a.PutEig(st.eigW[bi])
	}
	a.PutVec(st.atylp)
	a.PutVec(st.ax)
	a.PutVec(st.rhs)
	a.PutVec(st.cslp)
	a.PutVec(st.tmpLP)
	a.PutCG(st.cgw)
}

// iterate runs one ADMM iteration and reports whether the loop should stop
// (convergence, numerical failure); it updates sol's status and residual
// fields as the original inline loop did.
//
//sdpvet:hotpath
func (st *admmState) iterate(sol *Solution, iter int, tracing bool) bool {
	p, opt := st.p, st.opt
	mu := st.mu

	// y-update: (AAᵀ) y = μ(b − A(X)) + A(C − S).
	p.applyA(st.x, st.xlp, st.ax)
	for bi := range st.cs {
		st.cs[bi].CopyFrom(p.C[bi])
		st.cs[bi].AddScaled(-1, st.s[bi])
	}
	for i := range st.cslp {
		st.cslp[i] = p.CLP[i] - st.slp[i]
	}
	p.applyA(st.cs, st.cslp, st.rhs)
	for k := 0; k < st.m; k++ {
		st.rhs[k] += mu * (st.b[k] - st.ax[k])
	}
	linalg.CGWith(st.cgw, st.aat, st.rhs, st.y, 1e-10, 4*st.m+100)

	// S-update and X-update from V = C − Aᵀ(y) − μX:
	// S = Proj_PSD(V), X⁺ = (S − V)/μ = Proj_PSD(−V)/μ.
	p.applyAT(st.y, st.aty, st.atylp)
	posEig := 0
	for bi := range st.x {
		v := st.vblk[bi]
		v.CopyFrom(p.C[bi])
		v.AddScaled(-1, st.aty[bi])
		v.AddScaled(-mu, st.x[bi])
		v.Symmetrize()
		eg, err := st.eigW[bi].Factor(v, st.workers)
		if err != nil {
			sol.Status = StatusNumericalFailure
			return true
		}
		if tracing {
			// Eigencount of the PSD projection: how many eigenpairs
			// the S-update keeps. Counted only when tracing — the
			// projection itself does not need it.
			for _, lam := range eg.Values {
				if lam > 0 {
					posEig++
				}
			}
		}
		st.eigW[bi].PSDProjectInto(st.s[bi], st.workers)
		// X⁺ = (S − V)·(1/μ), elementwise in place (V already captured the
		// old X, so overwriting is safe).
		inv := 1 / mu
		xd, sd, vd := st.x[bi].Data, st.s[bi].Data, v.Data
		for i := range xd {
			xd[i] = (sd[i] - vd[i]) * inv
		}
	}
	for i := range st.xlp {
		v := p.CLP[i] - st.atylp[i] - mu*st.xlp[i]
		st.slp[i] = math.Max(v, 0)
		st.xlp[i] = (st.slp[i] - v) / mu
	}

	// Residuals.
	p.applyA(st.x, st.xlp, st.ax)
	pres := 0.0
	for k := 0; k < st.m; k++ {
		d := st.ax[k] - st.b[k]
		pres += d * d
	}
	pres = math.Sqrt(pres) / (1 + st.bn)
	p.applyAT(st.y, st.aty, st.atylp)
	dres := 0.0
	for bi := range st.x {
		r := st.cs[bi] // y-update scratch, free to reuse here
		r.CopyFrom(p.C[bi])
		r.AddScaled(-1, st.aty[bi])
		r.AddScaled(-1, st.s[bi])
		f := r.FrobNorm()
		dres += f * f
	}
	for i := range st.xlp {
		d := p.CLP[i] - st.atylp[i] - st.slp[i]
		dres += d * d
	}
	dres = math.Sqrt(dres) / (1 + st.cn)
	pobj := p.primalObjective(st.x, st.xlp)
	dobj := linalg.Dot(st.b, st.y)
	relG := math.Abs(pobj-dobj) / (1 + math.Abs(pobj) + math.Abs(dobj))

	if tracing {
		opt.Trace.Record(trace.Event{
			Solver: "admm", Kind: "iter", Iter: iter,
			//sdpvet:ignore hotalloc tracing-only: guarded by Enabled(), disabled in the alloc-gated benchmarks
			Fields: []trace.Field{
				{Key: "pobj", Val: pobj},
				{Key: "dobj", Val: dobj},
				{Key: "pres", Val: pres},
				{Key: "dres", Val: dres},
				{Key: "relG", Val: relG},
				{Key: "mu", Val: mu},
				{Key: "posEig", Val: float64(posEig)},
			},
		})
	}
	sol.PrimalObj, sol.DualObj = pobj, dobj
	sol.PrimalInfeas, sol.DualInfeas, sol.Gap = pres, dres, relG
	if pres < opt.Tol && dres < opt.Tol && relG < 10*opt.Tol {
		sol.Status = StatusOptimal
		return true
	}

	// Penalty adaptation: balance primal and dual residuals.
	if iter%25 == 24 {
		switch {
		case pres > 10*dres:
			mu *= 0.7 // primal lagging: lighten penalty so X moves more
		case dres > 10*pres:
			mu *= 1.4
		}
		st.mu = math.Min(math.Max(mu, 1e-6), 1e6)
	}
	return false
}

// SolveADMM solves the problem with the alternating-direction augmented
// Lagrangian method on the dual SDP (Wen–Goldfarb–Yin). Each iteration costs
// one CG solve with AAᵀ and one eigendecomposition per PSD block, so it
// scales to constraint counts where the interior-point Schur complement is
// too expensive, at the price of lower accuracy.
func SolveADMM(p *Problem, opt ADMMOptions) (*Solution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	opt.setDefaults()
	st := newADMMState(p, opt)
	defer st.release()

	sol := &Solution{Status: StatusIterationLimit}
	tracing := traceOn(opt.Trace)
	if tracing {
		// Deferred so that every exit — convergence, numerical failure,
		// the iteration limit, and the cancellation break — closes the
		// trace with exactly one "final" record.
		defer func() {
			opt.Trace.Record(trace.Event{
				Solver: "admm", Kind: "final", Iter: sol.Iterations,
				Status: sol.Status.String(),
				Fields: []trace.Field{
					{Key: "pobj", Val: sol.PrimalObj},
					{Key: "dobj", Val: sol.DualObj},
					{Key: "pres", Val: sol.PrimalInfeas},
					{Key: "dres", Val: sol.DualInfeas},
					{Key: "relG", Val: sol.Gap},
					{Key: "warm", Val: boolVal(st.warm)},
				},
			})
		}()
		opt.Trace.Record(trace.Event{
			Solver: "admm", Kind: "start",
			Fields: []trace.Field{
				{Key: "m", Val: float64(st.m)},
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
		if st.iterate(sol, iter, tracing) {
			break
		}
	}
	sol.X, sol.XLP, sol.Y, sol.S, sol.SLP = st.x, st.xlp, st.y, st.s, st.slp
	sol.Warm = st.warm
	sol.Mu = st.mu
	if sol.Status == StatusCancelled {
		return sol, fmt.Errorf("sdp: admm cancelled after %d iterations: %w",
			sol.Iterations, opt.Context.Err())
	}
	return sol, nil
}
