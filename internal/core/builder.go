package core

import (
	"math"
	"sort"

	"sdpfloor/internal/geom"
	"sdpfloor/internal/linalg"
	"sdpfloor/internal/netlist"
	"sdpfloor/internal/sdp"
)

// pair identifies one unordered module pair with i < j.
type pair struct{ i, j int }

// builder assembles sub-problem-1 SDP instances for one netlist. It is
// created once per Solve call and reused across convex iterations (only the
// objective and the constraint working set change).
type builder struct {
	nl     *netlist.Netlist
	opt    *Options
	n      int
	dim    int // n + 2
	radii  []float64
	aspect []float64
	baseA  *linalg.Dense
	deg    []float64
	padA   *linalg.Dense // n×(#pads); nil when there are no pads
	// padRowSum[i] = Σ_j Ā_ij; padMoment[i] = Σ_j Ā_ij·x̄_j (vector).
	padRowSum []float64
	padMoment []geom.Point
	padConst  float64 // Σ_ij Ā_ij‖x̄_j‖², additive objective constant
	// pairs and bounds are sub-problem 1's working set of distance and
	// outline rows (lazy.go). Without LazyConstraints they hold every row
	// for the whole solve.
	pairs  lazySet[pair]
	bounds lazySet[bound]
	// warm carries the previous sub-problem solution and reuse caches across
	// the solve sequence (nil until the first solve; see warmstart.go).
	warm *warmState
	// subSolves/warmStarts count sub-problem-1 solves and how many of them
	// consumed a warm start — surfaced in Result and the service metrics.
	subSolves, warmStarts int
	// arena supplies iteration-scoped solver scratch, shared by every
	// sub-problem solve of the sequence so that repeated solves of
	// same-shaped problems allocate nothing in the steady state. Solves are
	// strictly sequential within a builder, which the arena requires.
	arena *linalg.Arena
}

func newBuilder(nl *netlist.Netlist, opt *Options) *builder {
	n := nl.N()
	b := &builder{
		nl:     nl,
		opt:    opt,
		n:      n,
		dim:    n + 2,
		radii:  nl.Radii(opt.NonSquare),
		aspect: make([]float64, n),
		baseA:  nl.Adjacency(),
		arena:  linalg.NewArena(),
	}
	for i, m := range nl.Modules {
		b.aspect[i] = m.MaxAspect
	}
	b.deg = netlist.Degrees(b.baseA)
	if len(nl.Pads) > 0 {
		b.padA = nl.PadAdjacency()
		b.padRowSum = make([]float64, n)
		b.padMoment = make([]geom.Point, n)
		//sdpvet:ignore ctxloop bounded one-pass pad-adjacency accumulation; Options.Context gates the iteration loops downstream
		for i := 0; i < n; i++ {
			for j, p := range nl.Pads {
				w := b.padA.At(i, j)
				if w == 0 {
					continue
				}
				b.padRowSum[i] += w
				b.padMoment[i] = b.padMoment[i].Add(p.Pos.Scale(w))
				b.padConst += w * (p.Pos.X*p.Pos.X + p.Pos.Y*p.Pos.Y)
			}
		}
	}
	return b
}

// objectiveC builds the (n+2)×(n+2) objective matrix: B embedded in the G
// block, the boundary-pin terms of Eq. (21), and the rank penalty α·W.
func (b *builder) objectiveC(bmat, w *linalg.Dense, alpha float64) *linalg.Dense {
	c := linalg.NewDense(b.dim, b.dim)
	for i := 0; i < b.n; i++ {
		for j := 0; j < b.n; j++ {
			c.Set(2+i, 2+j, bmat.At(i, j))
		}
	}
	if b.padA != nil {
		for i := 0; i < b.n; i++ {
			if b.padRowSum[i] == 0 {
				continue
			}
			// Σ_j Ā_ij·D̄_ij = (Σ_j Ā_ij)·G_ii − 2·(Σ_j Ā_ij x̄_j)ᵀxᵢ + const.
			c.Add(2+i, 2+i, b.padRowSum[i])
			c.Add(0, 2+i, -b.padMoment[i].X)
			c.Add(2+i, 0, -b.padMoment[i].X)
			c.Add(1, 2+i, -b.padMoment[i].Y)
			c.Add(2+i, 1, -b.padMoment[i].Y)
		}
	}
	if alpha != 0 && w != nil {
		c.AddScaled(alpha, w)
	}
	return c
}

// bound returns the squared-distance lower bound for a pair under the
// configured constraint model.
func (b *builder) bound(p pair) float64 {
	return distanceBound(p.i, p.j, b.radii, b.aspect, b.baseA, b.deg, b.opt.NonSquare)
}

// outlineInset returns how far module i's center must stay from the outline
// boundary: half its narrowest legal dimension √(sᵢ/kᵢ)/2.
func (b *builder) outlineInset(i int) float64 {
	return math.Sqrt(b.nl.Modules[i].MinArea/b.aspect[i]) / 2
}

// rows returns the current working set.
func (b *builder) rows() rowSet {
	return rowSet{pairs: b.pairs.rows, bounds: b.bounds.rows}
}

// buildProblem assembles the SDP for the given objective matrix and working
// set of distance and outline rows.
func (b *builder) buildProblem(c *linalg.Dense, rows rowSet) *sdp.Problem {
	var cons []sdp.Constraint
	// Identity block: Z₀₀ = 1, Z₁₁ = 1, Z₀₁ = 0 (Eq. 9).
	cons = append(cons,
		sdp.Constraint{PSD: [][]sdp.Entry{{{I: 0, J: 0, V: 1}}}, B: 1},
		sdp.Constraint{PSD: [][]sdp.Entry{{{I: 1, J: 1, V: 1}}}, B: 1},
		sdp.Constraint{PSD: [][]sdp.Entry{{{I: 0, J: 1, V: 0.5}}}, B: 0},
	)
	// PPM equalities (Eqs. 23–24).
	var fixed []int
	for i, m := range b.nl.Modules {
		if !m.Fixed {
			continue
		}
		fixed = append(fixed, i)
		cons = append(cons,
			sdp.Constraint{PSD: [][]sdp.Entry{{{I: 0, J: 2 + i, V: 0.5}}}, B: m.FixedPos.X},
			sdp.Constraint{PSD: [][]sdp.Entry{{{I: 1, J: 2 + i, V: 0.5}}}, B: m.FixedPos.Y},
		)
	}
	for a := 0; a < len(fixed); a++ {
		for bidx := a; bidx < len(fixed); bidx++ {
			i, j := fixed[a], fixed[bidx]
			pi, pj := b.nl.Modules[i].FixedPos, b.nl.Modules[j].FixedPos
			dotv := pi.X*pj.X + pi.Y*pj.Y
			v := 0.5
			if i == j {
				v = 1
			}
			cons = append(cons, sdp.Constraint{
				PSD: [][]sdp.Entry{{{I: 2 + i, J: 2 + j, V: v}}}, B: dotv,
			})
		}
	}

	// Inequalities get one LP slack each.
	lp := 0
	addIneq := func(es []sdp.Entry, rhs float64) {
		cons = append(cons, sdp.Constraint{
			PSD: [][]sdp.Entry{es},
			LP:  []sdp.LPEntry{{I: lp, V: -1}},
			B:   rhs,
		})
		lp++
	}
	// Distance constraints D_ij ≥ bound (Eq. 11 / Eq. 26).
	for _, p := range rows.pairs {
		es := []sdp.Entry{
			{I: 2 + p.i, J: 2 + p.i, V: 1},
			{I: 2 + p.j, J: 2 + p.j, V: 1},
			{I: 2 + p.i, J: 2 + p.j, V: -1},
		}
		addIneq(es, b.bound(p))
	}
	// Proximity caps D_ij ≤ MaxDist² (Section IV-D's distance control).
	for _, cap := range b.opt.DistanceCaps {
		es := []sdp.Entry{
			{I: 2 + cap.I, J: 2 + cap.I, V: -1},
			{I: 2 + cap.J, J: 2 + cap.J, V: -1},
			{I: 2 + cap.I, J: 2 + cap.J, V: 1},
		}
		addIneq(es, -cap.MaxDist*cap.MaxDist)
	}
	// Fixed-outline bounds on the X block.
	for _, bd := range rows.bounds {
		axis, v, rhs := b.boundRow(bd)
		addIneq([]sdp.Entry{{I: axis, J: 2 + bd.i, V: v}}, rhs)
	}

	return &sdp.Problem{
		PSDDims: []int{b.dim},
		LPDim:   lp,
		C:       []*linalg.Dense{c},
		CLP:     make([]float64, lp),
		Cons:    cons,
	}
}

// allPairs returns every unordered module pair.
func (b *builder) allPairs() []pair {
	out := make([]pair, 0, b.n*(b.n-1)/2)
	for i := 0; i < b.n; i++ {
		for j := i + 1; j < b.n; j++ {
			out = append(out, pair{i, j})
		}
	}
	return out
}

// seedPairs returns the initial lazy working set: the 3n most strongly
// connected pairs (these are the ones the objective pulls together, so
// their distance constraints activate first; the violation rounds add any
// others). Seeding with every connected pair would defeat the working set
// on dense adjacencies, where nearly all pairs are connected.
func (b *builder) seedPairs() []pair {
	type wp struct {
		p pair
		w float64
	}
	var all []wp
	for i := 0; i < b.n; i++ {
		for j := i + 1; j < b.n; j++ {
			if w := b.baseA.At(i, j); w > 0 {
				all = append(all, wp{pair{i, j}, w})
			}
		}
	}
	sort.Slice(all, func(a, c int) bool { return all[a].w > all[c].w })
	limit := 3 * b.n
	if limit > len(all) {
		limit = len(all)
	}
	out := make([]pair, 0, limit)
	for _, e := range all[:limit] {
		out = append(out, e.p)
	}
	return out
}

// violatedPairs scans all pairs against the G block of z and returns up to
// maxAdd of the most-violated pairs (relative violation) not already in
// have. Capping the additions keeps the working set from exploding on the
// first iterations, where the trace heuristic collapses the layout and
// violates every pair at once; the remaining violations resolve or re-enter
// over subsequent rounds.
func (b *builder) violatedPairs(z *linalg.Dense, have map[pair]bool, maxAdd int) []pair {
	type viol struct {
		p pair
		v float64 // relative violation
	}
	var out []viol
	for i := 0; i < b.n; i++ {
		for j := i + 1; j < b.n; j++ {
			p := pair{i, j}
			if have[p] {
				continue
			}
			d := z.At(2+i, 2+i) + z.At(2+j, 2+j) - 2*z.At(2+i, 2+j)
			bound := b.bound(p)
			if d < bound*(1-1e-6) {
				out = append(out, viol{p, (bound - d) / bound})
			}
		}
	}
	sort.Slice(out, func(a, c int) bool { return out[a].v > out[c].v })
	if maxAdd > 0 && len(out) > maxAdd {
		out = out[:maxAdd]
	}
	ps := make([]pair, len(out))
	for i, v := range out {
		ps[i] = v.p
	}
	return ps
}

// pairSlack returns D_ij − bound for a pair under the current z.
func (b *builder) pairSlack(z *linalg.Dense, p pair) float64 {
	d := z.At(2+p.i, 2+p.i) + z.At(2+p.j, 2+p.j) - 2*z.At(2+p.i, 2+p.j)
	return d - b.bound(p)
}
