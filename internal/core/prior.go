package core

import (
	"fmt"
	"math"

	"sdpfloor/internal/geom"
	"sdpfloor/internal/linalg"
	"sdpfloor/internal/sdp"
)

// Prior carries an external previous solution into a Solve — the
// incremental (ECO) re-floorplanning entry. Where the in-sequence warm
// start (warmstart.go) resumes from the previous sub-problem solve of the
// SAME run, a Prior seeds a NEW run from module centers obtained elsewhere:
// a previous Solve of a slightly different netlist, a parsed placement
// file, or a service job being re-solved after an ECO delta.
//
// A prior changes only the starting point of the convex iteration, never
// its feasible set: the same constraints are built and the same
// convergence tests apply, so a solve from a bad prior degrades to roughly
// a cold solve rather than to a wrong answer. Concretely, a valid prior
//
//   - starts the iterate at the rank-2 lift Z_prior of the given centers
//     (exactly satisfying the identity-block equalities Z₀₀=1, Z₁₁=1,
//     Z₀₁=0),
//   - initializes the direction matrix W from Z_prior's Ky-Fan
//     eigenvectors instead of the identity, so the very first sub-problem
//     already penalizes rank in the prior's frame,
//   - seeds the adaptive-B centers, so Eq. 20 adapts from iteration 1,
//   - under lazy constraints, pre-loads the working set with the pairs the
//     prior violates (modules an ECO delta made overlap), and
//   - synthesizes a warm-start record at Z_prior so the first sub-problem
//     solve enters the IPM push-to-interior / ADMM resume path instead of
//     a cold start (both solvers keep their certified fallbacks).
type Prior struct {
	// Centers is the previous center per module, in netlist order. Its
	// length must equal the netlist's module count.
	Centers []geom.Point
}

// validate rejects priors that cannot seed a solve over n modules.
func (p *Prior) validate(n int) error {
	if len(p.Centers) != n {
		return fmt.Errorf("core: prior has %d centers, want %d", len(p.Centers), n)
	}
	for i, c := range p.Centers {
		if math.IsNaN(c.X) || math.IsInf(c.X, 0) || math.IsNaN(c.Y) || math.IsInf(c.Y, 0) {
			return fmt.Errorf("core: prior center %d is not finite: (%g, %g)", i, c.X, c.Y)
		}
	}
	return nil
}

// priorZ lifts centers to the rank-2 PSD iterate Z = VVᵀ with
// V = [e₁ | e₂ | x₁ … xₙ]ᵀ — the exact Z a fully converged run would
// produce for this placement (Eq. 9's structure with G the Gram matrix of
// the centers).
func priorZ(centers []geom.Point) *linalg.Dense {
	n := len(centers)
	z := linalg.NewDense(n+2, n+2)
	z.Set(0, 0, 1)
	z.Set(1, 1, 1)
	for i, c := range centers {
		z.Set(0, 2+i, c.X)
		z.Set(2+i, 0, c.X)
		z.Set(1, 2+i, c.Y)
		z.Set(2+i, 1, c.Y)
		for j := i; j < n; j++ {
			v := c.X*centers[j].X + c.Y*centers[j].Y
			z.Set(2+i, 2+j, v)
			z.Set(2+j, 2+i, v)
		}
	}
	return z
}

// seedWarmFromPrior installs a synthetic warm-start record at the prior
// iterate, as if a previous sub-problem solve over rows had terminated at
// zp. Primal LP slacks are evaluated exactly against the constraint rows
// (clamped away from the cone boundary); the dual is left at a neutral
// point (S = I, y = 0) — the IPM blends toward the interior and test-
// factorizes before trusting it, and the ADMM consumes the blocks
// piecewise, so a synthetic dual can slow the first solve but never
// corrupt it.
func (b *builder) seedWarmFromPrior(zp *linalg.Dense, rows rowSet) {
	if b.opt.NoWarmStart {
		return
	}
	prob := b.buildProblem(linalg.NewDense(b.dim, b.dim), rows)
	xlp := make([]float64, prob.LPDim)
	slp := make([]float64, prob.LPDim)
	for i := range slp {
		slp[i] = 1
	}
	for k := range prob.Cons {
		c := &prob.Cons[k]
		if len(c.LP) != 1 {
			continue // equality row: no slack variable
		}
		val := 0.0
		for _, e := range c.PSD[0] {
			if e.I == e.J {
				val += e.V * zp.At(e.I, e.J)
			} else {
				val += 2 * e.V * zp.At(e.I, e.J)
			}
		}
		xlp[c.LP[0].I] = maxf(val-c.B, 1e-8)
	}
	b.warm = &warmState{
		sol: &sdp.Solution{
			Status: sdp.StatusOptimal,
			X:      []*linalg.Dense{zp},
			XLP:    xlp,
			Y:      make([]float64, len(prob.Cons)),
			S:      []*linalg.Dense{linalg.Identity(b.dim)},
			SLP:    slp,
		},
		rows: rows.clone(),
	}
}
