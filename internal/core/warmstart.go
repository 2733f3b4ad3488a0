package core

import (
	"sdpfloor/internal/linalg"
	"sdpfloor/internal/sdp"
)

// warmState carries solver state across the sub-problem-1 solve sequence of
// one convex-iteration run. Consecutive SDPs differ only in the objective
// (direction matrix, adaptive B) and in a slowly changing working set of
// pair and outline rows, so the previous solution is an excellent starting
// point for the next solve: the PSD block and its dual slack carry over
// directly (the block dimension n+2 never changes), while the multipliers
// and LP slacks are projected onto the new constraint layout. The IPM
// additionally keeps an assembly/equilibration cache for runs of solves with
// an unchanged working set. The ADMM penalty is deliberately NOT resumed: the
// terminal adapted penalty is tuned for the previous problem's endgame and
// measurably slows — in bad cases stalls — the transient on the changed
// objective, while re-adapting from the default recovers quickly from the
// warm iterate.
type warmState struct {
	sol  *sdp.Solution // last usable solution (duals against the original problem)
	rows rowSet        // working set that solution was solved with

	reuse     *sdp.IPMReuse // constraint-assembly cache (IPM only)
	reuseRows rowSet        // working set the cache was built for
}

// noteSolution records sol as the warm-start source for the next solve.
// Solutions from failed or cancelled solves are not recorded; iterate-limit
// terminations are — their iterate is inexact but still far closer to the
// next solution than a cold start.
func (b *builder) noteSolution(sol *sdp.Solution, rows rowSet) {
	if b.opt.NoWarmStart || sol == nil {
		return
	}
	switch sol.Status {
	case sdp.StatusOptimal, sdp.StatusIterationLimit:
	default:
		return
	}
	if b.warm == nil {
		b.warm = &warmState{}
	}
	b.warm.sol = sol
	b.warm.rows = rows.clone() // snapshot: the working set is edited in place
}

// prefixCons returns the number of constraints buildProblem emits before the
// pair block: the 3 identity-block equalities plus the PPM equalities (two
// per fixed module and one pairwise dot product per fixed pair, i incl. j).
func (b *builder) prefixCons() int {
	f := 0
	for _, m := range b.nl.Modules {
		if m.Fixed {
			f++
		}
	}
	return 3 + 2*f + f*(f+1)/2
}

// projectWarm maps the previous solution's dual vector and LP block onto the
// constraint layout of the new working set. buildProblem's ordering is
// [prefix | one row+slack per pair | distance caps | one row+slack per
// outline bound]. The prefix and the caps never change, so their rows map
// by position; pairs and bounds map by identity. A row new to the working
// set gets multiplier 0 and a primal slack read off the current iterate (so
// A(X) ≈ b holds on the fresh row); dropped rows simply lose their entries.
// Returns nils when the recorded solution does not match the expected layout
// (e.g. it came from a differently configured builder), which cold-starts
// the solve.
func (b *builder) projectWarm(w *warmState, rows rowSet) (y, xlp, slp []float64) {
	prev := w.sol
	pre, caps := b.prefixCons(), len(b.opt.DistanceCaps)
	p0, p1 := len(w.rows.pairs), len(rows.pairs)
	lp0 := p0 + caps + len(w.rows.bounds)
	lp1 := p1 + caps + len(rows.bounds)
	if len(prev.Y) != pre+lp0 || len(prev.XLP) != lp0 || len(prev.SLP) != lp0 {
		return nil, nil, nil
	}
	y = make([]float64, pre+lp1)
	xlp = make([]float64, lp1)
	slp = make([]float64, lp1)
	copy(y[:pre], prev.Y[:pre])
	z := prev.X[0]
	// carry copies LP row r0 of the previous solution (and its multiplier)
	// into row r1; fresh starts a row new to the working set at slack v.
	carry := func(r0, r1 int) {
		y[pre+r1] = prev.Y[pre+r0]
		xlp[r1], slp[r1] = prev.XLP[r0], prev.SLP[r0]
	}
	fresh := func(r1 int, v float64) {
		xlp[r1], slp[r1] = maxf(v, 1e-8), 1
	}
	pairAt := indexOf(w.rows.pairs)
	for t, pr := range rows.pairs {
		if t0, ok := pairAt[pr]; ok {
			carry(t0, t)
		} else {
			fresh(t, b.pairSlack(z, pr))
		}
	}
	for c := 0; c < caps; c++ {
		carry(p0+c, p1+c)
	}
	boundAt := indexOf(w.rows.bounds)
	for t, bd := range rows.bounds {
		if t0, ok := boundAt[bd]; ok {
			carry(p0+caps+t0, p1+caps+t)
		} else {
			fresh(p1+caps+t, b.boundSlack(z, bd))
		}
	}
	return y, xlp, slp
}

// indexOf maps each member of ks to its position.
func indexOf[K comparable](ks []K) map[K]int {
	idx := make(map[K]int, len(ks))
	for i, k := range ks {
		idx[k] = i
	}
	return idx
}

// reuseFor returns the IPM assembly cache to pass for a solve over rows,
// rotating in a fresh handle whenever the working set changed (the cache is
// only valid across solves with identical constraints; see sdp.IPMReuse).
func (w *warmState) reuseFor(rows rowSet) *sdp.IPMReuse {
	if w.reuse == nil || !w.reuseRows.equal(rows) {
		w.reuse = &sdp.IPMReuse{}
		w.reuseRows = rows.clone()
	}
	return w.reuse
}

// warmBlocks returns clones-by-reference of the previous PSD iterate and its
// dual slack when their dimension matches the current problem (it always
// does within one Solve; the guard protects against misuse).
func (b *builder) warmBlocks(prev *sdp.Solution) (x0, s0 []*linalg.Dense) {
	if len(prev.X) != 1 || prev.X[0].Rows != b.dim {
		return nil, nil
	}
	if len(prev.S) != 1 || prev.S[0].Rows != b.dim {
		return prev.X, nil
	}
	return prev.X, prev.S
}
