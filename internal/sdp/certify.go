package sdp

import (
	"fmt"
	"math"

	"sdpfloor/internal/linalg"
)

// CheckKKT verifies the full KKT optimality certificate of sol for p, all
// conditions relative within tol:
//
//   - primal feasibility:  ‖A(X)−b‖₂ ≤ tol·(1+‖b‖₂), λmin(X_b) ≥ −tol per
//     PSD block, x_lp ≥ −tol componentwise
//   - dual feasibility:    ‖C_b − (Aᵀy)_b − S_b‖_F ≤ tol·(1+‖C_b‖_F) per
//     block (and the LP analogue componentwise), λmin(S_b) ≥ −tol, s_lp ≥ −tol
//   - duality gap:         |pobj − dobj| ≤ tol·(1+|pobj|+|dobj|)
//   - complementarity:     |Σ⟨X_b,S_b⟩ + x_lpᵀs_lp| ≤ tol·(1+|pobj|)
//
// A nil error is a machine-checkable proof of (tol-approximate) optimality
// independent of which solver produced sol. IPM solutions certify at
// tol ~1e-5 (the floorplanner's IPM tolerance 1e-6, core's default, plus
// unscaling slack); ADMM at its looser first-order accuracy, typically 1e-3. Tests use the assertKKT wrapper;
// the exported form backs cross-package differential and warm-start parity
// checks.
func CheckKKT(p *Problem, sol *Solution, tol float64) error {
	if sol == nil {
		return fmt.Errorf("nil solution")
	}

	// Primal feasibility.
	bnorm := linalg.Norm2(p.rhsVector())
	if res := p.PrimalResidual(sol.X, sol.XLP); res > tol*(1+bnorm) {
		return fmt.Errorf("primal residual ‖A(X)−b‖ = %g > %g", res, tol*(1+bnorm))
	}
	for b, x := range sol.X {
		eg, err := linalg.NewSymEig(x, 1)
		if err != nil {
			return fmt.Errorf("eig of X[%d]: %v", b, err)
		}
		if lam := eg.MinEigenvalue(); lam < -tol {
			return fmt.Errorf("X[%d] not PSD: λmin = %g", b, lam)
		}
	}
	for i, v := range sol.XLP {
		if v < -tol {
			return fmt.Errorf("x_lp[%d] = %g < 0", i, v)
		}
	}

	// Dual feasibility: C − Aᵀy − S = 0 per block, S in the cone.
	aty := make([]*linalg.Dense, len(p.PSDDims))
	for b, d := range p.PSDDims {
		aty[b] = linalg.NewDense(d, d)
	}
	atyLP := make([]float64, p.LPDim)
	p.applyAT(sol.Y, aty, atyLP)
	for b := range p.PSDDims {
		r := p.C[b].Clone()
		r.AddScaled(-1, aty[b])
		r.AddScaled(-1, sol.S[b])
		cn := p.C[b].FrobNorm()
		if f := r.FrobNorm(); f > tol*(1+cn) {
			return fmt.Errorf("dual residual block %d: ‖C−Aᵀy−S‖ = %g > %g", b, f, tol*(1+cn))
		}
		eg, err := linalg.NewSymEig(sol.S[b], 1)
		if err != nil {
			return fmt.Errorf("eig of S[%d]: %v", b, err)
		}
		if lam := eg.MinEigenvalue(); lam < -tol {
			return fmt.Errorf("S[%d] not PSD: λmin = %g", b, lam)
		}
	}
	for i := 0; i < p.LPDim; i++ {
		r := p.CLP[i] - atyLP[i] - sol.SLP[i]
		if math.Abs(r) > tol*(1+math.Abs(p.CLP[i])) {
			return fmt.Errorf("dual LP residual [%d] = %g", i, r)
		}
		if sol.SLP[i] < -tol {
			return fmt.Errorf("s_lp[%d] = %g < 0", i, sol.SLP[i])
		}
	}

	// Duality gap, on the reported and the recomputed primal objective (the
	// two differ only by accumulated round-off).
	pobj := p.primalObjective(sol.X, sol.XLP)
	if math.Abs(pobj-sol.PrimalObj) > tol*(1+math.Abs(pobj)) {
		return fmt.Errorf("reported pobj %g vs recomputed %g", sol.PrimalObj, pobj)
	}
	if gap := math.Abs(sol.PrimalObj - sol.DualObj); gap > tol*(1+math.Abs(sol.PrimalObj)+math.Abs(sol.DualObj)) {
		return fmt.Errorf("duality gap %g (pobj %g, dobj %g)", gap, sol.PrimalObj, sol.DualObj)
	}

	// Complementarity ⟨X, S⟩ ≈ 0.
	comp := linalg.Dot(sol.XLP, sol.SLP)
	for b := range sol.X {
		comp += linalg.InnerProd(sol.X[b], sol.S[b])
	}
	if math.Abs(comp) > tol*(1+math.Abs(sol.PrimalObj)) {
		return fmt.Errorf("complementarity ⟨X,S⟩ = %g", comp)
	}
	return nil
}
