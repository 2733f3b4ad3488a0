package sdp

import (
	"sdpfloor/internal/linalg"
)

// IPMReuse caches constraint-derived solver state across a sequence of
// SolveIPM calls over the *identical* constraint set (same Cons entries and
// right-hand sides, same block dimensions and LP dimension) with a varying
// objective C — the convex-iteration pattern, where only the direction
// matrix changes between solves. Pass the same non-nil handle to each solve:
// on a hit the solver skips the equilibration pass and the construction of
// the constraint layout the Schur assembly reads, and reuses the cached
// copies.
//
// The solver revalidates only cheap structural invariants (constraint count,
// block dimensions, per-constraint entry counts, the NoScale flag) and
// rebuilds the cache on any mismatch; constraint *values* are not rechecked
// — by passing the handle the caller asserts they are unchanged. A handle
// must not be shared by concurrent solves.
type IPMReuse struct {
	valid   bool
	noScale bool
	m, lp   int
	dims    []int
	counts  []int // per-constraint total entry count (PSD + LP)
	scaled  *scaledProblem
	lay     *conLayout
}

// matches reports whether the cached state was built for a problem with the
// same constraint structure under the same scaling mode.
func (r *IPMReuse) matches(p *Problem, noScale bool) bool {
	if !r.valid || r.noScale != noScale || r.m != len(p.Cons) || r.lp != p.LPDim {
		return false
	}
	if len(r.dims) != len(p.PSDDims) {
		return false
	}
	for i, d := range p.PSDDims {
		if r.dims[i] != d {
			return false
		}
	}
	for k := range p.Cons {
		n := len(p.Cons[k].LP)
		for _, es := range p.Cons[k].PSD {
			n += len(es)
		}
		if r.counts[k] != n {
			return false
		}
	}
	return true
}

// store records the structural key of p plus the derived state.
func (r *IPMReuse) store(p *Problem, noScale bool, sp *scaledProblem, lay *conLayout) {
	r.valid = true
	r.noScale = noScale
	r.m = len(p.Cons)
	r.lp = p.LPDim
	r.dims = append(r.dims[:0], p.PSDDims...)
	r.counts = r.counts[:0]
	for k := range p.Cons {
		n := len(p.Cons[k].LP)
		for _, es := range p.Cons[k].PSD {
			n += len(es)
		}
		r.counts = append(r.counts, n)
	}
	r.scaled = sp
	r.lay = lay
}

// blocksMatch reports whether bs is a usable warm start for PSD blocks of
// the given dimensions: one non-nil square matrix per block.
func blocksMatch(bs []*linalg.Dense, dims []int) bool {
	if len(bs) != len(dims) || len(dims) == 0 {
		return false
	}
	for i, d := range dims {
		if bs[i] == nil || bs[i].Rows != d || bs[i].Cols != d {
			return false
		}
	}
	return true
}

// warmBlendPSD is the push-to-interior weight: the warm iterate is blended
// with the centered scaled identity as (1−λ)·M + λ·c·I. A solved iterate
// sits on the cone boundary (tiny eigenvalues), where interior-point steps
// collapse; the blend restores a safe distance from the boundary while
// keeping most of the information in the prior solution.
const warmBlend = 0.1

// tryWarmStart replaces the cold initial point with a push-to-interior
// blend of the caller-supplied iterate, and reports whether it did. The
// fallback to the cold start is automatic: shape-mismatched inputs are
// rejected up front, and the blended X and S blocks are test-factorized —
// exactly the factorization the first iteration needs — so a warm start
// that would fail the first Cholesky is refused here and the prepared cold
// point (already in st) is kept. xi and eta are the cold-start scales.
func (st *ipmState) tryWarmStart(xi, eta float64) bool {
	opt, p := &st.opt, st.p
	if !blocksMatch(opt.X0, p.PSDDims) || !blocksMatch(opt.S0, p.PSDDims) {
		return false
	}
	if len(opt.Y0) != st.m {
		return false
	}
	if p.LPDim > 0 && (len(opt.XLP0) != p.LPDim || len(opt.SLP0) != p.LPDim) {
		return false
	}
	wx := make([]*linalg.Dense, st.nb)
	ws := make([]*linalg.Dense, st.nb)
	for bidx := range p.PSDDims {
		wx[bidx] = blendInterior(opt.X0[bidx], warmBlend*xi)
		ws[bidx] = blendInterior(opt.S0[bidx], warmBlend*eta)
		if _, err := linalg.NewCholesky(wx[bidx], st.workers); err != nil {
			return false
		}
		if _, err := linalg.NewCholesky(ws[bidx], st.workers); err != nil {
			return false
		}
	}
	wxlp := make([]float64, p.LPDim)
	wslp := make([]float64, p.LPDim)
	for i := 0; i < p.LPDim; i++ {
		wxlp[i] = (1-warmBlend)*opt.XLP0[i] + warmBlend*xi
		wslp[i] = (1-warmBlend)*opt.SLP0[i] + warmBlend*eta
		if !(wxlp[i] > 0) || !(wslp[i] > 0) {
			return false
		}
	}
	copy(st.x, wx)
	copy(st.s, ws)
	copy(st.xlp, wxlp)
	copy(st.slp, wslp)
	copy(st.y, opt.Y0)
	return true
}

// blendInterior returns (1−warmBlend)·sym(m) + shift·I.
func blendInterior(m *linalg.Dense, shift float64) *linalg.Dense {
	out := m.Clone()
	out.Symmetrize()
	out.Scale(1 - warmBlend)
	for i := 0; i < out.Rows; i++ {
		out.Add(i, i, shift)
	}
	return out
}
