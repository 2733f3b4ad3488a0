package linalg

// MulVecFn is a matrix-free linear operator: it writes A*x into dst.
type MulVecFn func(dst, x []float64)

// CGResult reports the outcome of a conjugate-gradient solve.
type CGResult struct {
	Iterations int
	Residual   float64 // final ‖b − A x‖₂
	Converged  bool
}

// CG solves the symmetric positive-definite system A x = b with the
// conjugate-gradient method, starting from x (which is updated in place).
// It stops when ‖r‖ ≤ tol·max(1, ‖b‖) or after maxIter iterations. The
// iteration vectors come from the workspace w, so repeated solves allocate
// nothing after the first; a zero CGWork is ready to use.
func CG(w *CGWork, mul MulVecFn, b, x []float64, tol float64, maxIter int) CGResult {
	n := len(b)
	if len(x) != n {
		panic("linalg: CG dimension mismatch")
	}
	w.ensure(n)
	r, ax, p, ap := w.r, w.ax, w.p, w.ap
	mul(ax, x)
	for i := range r {
		r[i] = b[i] - ax[i]
	}
	copy(p, r)
	rr := Dot(r, r)
	bnorm := Norm2(b)
	if bnorm < 1 {
		bnorm = 1
	}
	res := CGResult{}
	for k := 0; k < maxIter; k++ {
		if Norm2(r) <= tol*bnorm {
			res.Converged = true
			break
		}
		mul(ap, p)
		pap := Dot(p, ap)
		if pap <= 0 {
			// Not positive definite along p (or numerical breakdown): stop.
			break
		}
		alpha := rr / pap
		Axpy(alpha, p, x)
		Axpy(-alpha, ap, r)
		rrNew := Dot(r, r)
		beta := rrNew / rr
		for i := range p {
			p[i] = r[i] + beta*p[i]
		}
		rr = rrNew
		res.Iterations = k + 1
	}
	res.Residual = Norm2(r)
	if res.Residual <= tol*bnorm {
		res.Converged = true
	}
	return res
}
