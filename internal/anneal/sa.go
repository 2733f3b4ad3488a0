package anneal

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"sdpfloor/internal/geom"
	"sdpfloor/internal/netlist"
	"sdpfloor/internal/trace"
)

// Options configure the simulated-annealing floorplanner.
type Options struct {
	// Outline is the fixed outline; the packing must fit inside it. The
	// packing is anchored at (Outline.MinX, Outline.MinY).
	Outline geom.Rect
	// Seed drives all random choices.
	Seed int64
	// MovesPerTemp is the number of proposed moves per temperature step
	// (default 30·n).
	MovesPerTemp int
	// CoolingRate is the geometric temperature decay (default 0.93).
	CoolingRate float64
	// MinTemp terminates the schedule (default 1e-5 of the initial temp).
	MinTemp float64
	// WirelengthWeight balances HPWL against outline violation in the cost
	// (default 0.5; the violation term dominates when the packing does not
	// fit).
	WirelengthWeight float64
	// AspectChoices is the number of discrete widths a soft module may take
	// within its aspect bounds (default 9).
	AspectChoices int
	// Init, when non-nil, seeds the annealer with an existing sequence pair
	// (e.g. from FromPlacement — the pl2sp post-processing used on the
	// analytical baselines in Table III) instead of a random shuffle.
	Init *SeqPair
	// T0Scale scales the calibrated initial temperature; values well below
	// 1 turn the run into local refinement that preserves the Init
	// structure (default 1).
	T0Scale float64
	// Context, when non-nil, is checked at every temperature step; on
	// cancellation Solve returns the best floorplan found so far together
	// with the wrapped context error.
	Context context.Context
	// Trace, when non-nil and enabled, receives structured telemetry
	// ("sa" events): one "iter" record per temperature step (temperature,
	// current/best cost, accepted moves) and exactly one "final" record on
	// every exit path. See internal/trace.
	Trace trace.Recorder
}

func (o *Options) setDefaults(n int) {
	if o.MovesPerTemp == 0 {
		o.MovesPerTemp = 30 * n
	}
	if o.CoolingRate == 0 {
		o.CoolingRate = 0.93
	}
	if o.WirelengthWeight == 0 {
		o.WirelengthWeight = 0.5
	}
	if o.AspectChoices == 0 {
		o.AspectChoices = 9
	}
}

// Result is a finished annealing floorplan.
type Result struct {
	Rects    []geom.Rect  // placed modules (legal, axis-aligned)
	Centers  []geom.Point // module centers (for HPWL evaluation)
	HPWL     float64
	Width    float64 // packing bounding box
	Height   float64
	Feasible bool // fits inside the outline
	Moves    int  // accepted moves
}

// Solve runs fixed-outline simulated annealing over sequence pairs with
// soft-module reshaping (the Parquet-4-style baseline).
func Solve(nl *netlist.Netlist, opt Options) (*Result, error) {
	n := nl.N()
	if n == 0 {
		return nil, errors.New("anneal: empty netlist")
	}
	if err := nl.Validate(); err != nil {
		return nil, err
	}
	if opt.Outline.W() <= 0 || opt.Outline.H() <= 0 {
		return nil, errors.New("anneal: outline must have positive area")
	}
	opt.setDefaults(n)
	rng := rand.New(rand.NewSource(opt.Seed))

	st := newSAState(nl, &opt, rng)
	cost := st.cost()

	// Initial temperature from the dispersion of random-move costs.
	t0 := st.calibrateTemperature(cost, rng)
	if opt.T0Scale > 0 {
		t0 *= opt.T0Scale
	}
	minTemp := opt.MinTemp
	if minTemp == 0 {
		minTemp = 1e-5 * t0
	}

	st.cur, st.bestCost = cost, cost
	st.best = st.snapshot()
	steps := 0
	var cancelErr error
	tracing := opt.Trace != nil && opt.Trace.Enabled()
	if tracing {
		// Deferred so the schedule running dry and mid-schedule
		// cancellation both close the trace with one "sa" final.
		defer func() {
			status := "ok"
			if cancelErr != nil {
				status = "cancelled"
			}
			opt.Trace.Record(trace.Event{
				Solver: "sa", Kind: trace.KindFinal, Iter: steps, Status: status,
				Fields: []trace.Field{
					{Key: "cost", Val: st.bestCost},
					{Key: "accepted", Val: float64(st.accepted)},
				},
			})
		}()
		opt.Trace.Record(trace.Event{
			Solver: "sa", Kind: trace.KindStart,
			Fields: []trace.Field{
				{Key: "n", Val: float64(n)},
				{Key: "movesPerTemp", Val: float64(opt.MovesPerTemp)},
				{Key: "coolingRate", Val: opt.CoolingRate},
				{Key: "t0", Val: t0},
			},
		})
	}
	for temp := t0; temp > minTemp; temp *= opt.CoolingRate {
		if opt.Context != nil {
			if err := opt.Context.Err(); err != nil {
				cancelErr = fmt.Errorf("anneal: cancelled at temperature %.3g: %w", temp, err)
				break
			}
		}
		for mv := 0; mv < opt.MovesPerTemp; mv++ {
			st.step(rng, temp)
		}
		if tracing {
			opt.Trace.Record(trace.Event{
				Solver: "sa", Kind: trace.KindIter, Iter: steps,
				Fields: []trace.Field{
					{Key: "temp", Val: temp},
					{Key: "cost", Val: st.cur},
					{Key: "best", Val: st.bestCost},
					{Key: "accepted", Val: float64(st.accepted)},
				},
			})
		}
		steps++
	}
	st.restore(st.best)
	res := st.result()
	res.Moves = st.accepted
	return res, cancelErr
}

// Move kinds recorded in saUndo.
const (
	moveNone    = iota // no change (a reshape of a module with a fixed width)
	moveSwapS1         // swap of two positions in S1
	moveSwapAll        // swap of two modules in both sequences
	moveReshape        // new width for one soft module
)

// saUndo records the last proposed move so it can be taken back.
type saUndo struct {
	kind       int
	a, b       int // S1 positions
	pa, pb     int // S2 positions (moveSwapAll)
	ma, mb     int // modules at S1 positions a and b before the move
	i          int // reshaped module
	oldW, oldH float64
}

// saState is the annealing state: a sequence pair plus per-module widths,
// the evaluation workspaces, and the schedule's running costs. Nothing in
// the move loop allocates.
type saState struct {
	nl     *netlist.Netlist
	opt    *Options
	sp     SeqPair
	w, h   []float64
	areas  []float64
	minW   []float64
	maxW   []float64
	hpwl0  float64 // normalization
	pw     *PackWork
	ev     *netlist.HPWLEval
	nCache []geom.Point
	undo   saUndo

	cur, bestCost float64 // current and best cost
	best          saSnapshot
	accepted      int
}

type saSnapshot struct {
	sp SeqPair
	w  []float64
}

func newSAState(nl *netlist.Netlist, opt *Options, rng *rand.Rand) *saState {
	n := nl.N()
	st := &saState{
		nl: nl, opt: opt,
		sp:     NewSeqPair(n),
		w:      make([]float64, n),
		h:      make([]float64, n),
		areas:  make([]float64, n),
		minW:   make([]float64, n),
		maxW:   make([]float64, n),
		pw:     NewPackWork(n),
		ev:     netlist.NewHPWLEval(nl),
		nCache: make([]geom.Point, n),
	}
	if opt.Init != nil {
		st.sp = opt.Init.Clone()
	} else {
		// Shuffle the initial sequences.
		rng.Shuffle(n, func(a, b int) { st.sp.S1[a], st.sp.S1[b] = st.sp.S1[b], st.sp.S1[a] })
		rng.Shuffle(n, func(a, b int) { st.sp.S2[a], st.sp.S2[b] = st.sp.S2[b], st.sp.S2[a] })
	}
	for i, m := range nl.Modules {
		st.areas[i] = m.MinArea
		st.minW[i] = math.Sqrt(m.MinArea / m.MaxAspect)
		st.maxW[i] = math.Sqrt(m.MinArea * m.MaxAspect)
		st.w[i] = math.Sqrt(m.MinArea) // square start
		st.h[i] = m.MinArea / st.w[i]
	}
	st.pack()
	st.hpwl0 = math.Max(st.ev.HPWL(st.nCache), 1)
	return st
}

// pack packs the current sequence pair and dimensions and leaves the
// module centers in nCache.
//
//sdpvet:hotpath
func (st *saState) pack() Packing {
	p := st.sp.Pack(st.w, st.h, st.pw)
	for i := range st.w {
		st.nCache[i] = geom.Point{
			X: st.opt.Outline.MinX + p.X[i] + st.w[i]/2,
			Y: st.opt.Outline.MinY + p.Y[i] + st.h[i]/2,
		}
	}
	return p
}

// cost is the normalized annealing objective: wirelength plus a strongly
// weighted outline-violation term (Adya–Markov style).
//
//sdpvet:hotpath
func (st *saState) cost() float64 {
	p := st.pack()
	hpwl := st.ev.HPWL(st.nCache)
	violW := math.Max(0, p.Width/st.opt.Outline.W()-1)
	violH := math.Max(0, p.Height/st.opt.Outline.H()-1)
	lambda := st.opt.WirelengthWeight
	return lambda*hpwl/st.hpwl0 + (1-lambda)*4*(violW+violH+violW*violH)
}

// step proposes one move and accepts it by the Metropolis rule at temp,
// or takes it back; an accepted move that improves on the best cost so far
// is saved as the new best.
//
//sdpvet:hotpath
func (st *saState) step(rng *rand.Rand, temp float64) {
	st.proposeMove(rng)
	newCost := st.cost()
	dc := newCost - st.cur
	if dc <= 0 || rng.Float64() < math.Exp(-dc/temp) {
		st.cur = newCost
		st.accepted++
		if st.cur < st.bestCost {
			st.bestCost = st.cur
			st.saveTo(&st.best)
		}
	} else {
		st.undoMove()
	}
}

// proposeMove applies a random move and records its undo in st.undo.
//
//sdpvet:hotpath
func (st *saState) proposeMove(rng *rand.Rand) {
	n := len(st.w)
	u := &st.undo
	switch rng.Intn(3) {
	case 0: // swap two positions in S1
		a, b := rng.Intn(n), rng.Intn(n)
		st.sp.S1[a], st.sp.S1[b] = st.sp.S1[b], st.sp.S1[a]
		*u = saUndo{kind: moveSwapS1, a: a, b: b}
	case 1: // swap the same two modules in both sequences
		a, b := rng.Intn(n), rng.Intn(n)
		ma, mb := st.sp.S1[a], st.sp.S1[b]
		pa, pb := indexOf(st.sp.S2, ma), indexOf(st.sp.S2, mb)
		st.sp.S1[a], st.sp.S1[b] = mb, ma
		st.sp.S2[pa], st.sp.S2[pb] = mb, ma
		*u = saUndo{kind: moveSwapAll, a: a, b: b, pa: pa, pb: pb, ma: ma, mb: mb}
	default: // reshape a soft module
		i := rng.Intn(n)
		if st.maxW[i] <= st.minW[i] {
			*u = saUndo{kind: moveNone}
			return
		}
		*u = saUndo{kind: moveReshape, i: i, oldW: st.w[i], oldH: st.h[i]}
		step := (st.maxW[i] - st.minW[i]) / float64(st.opt.AspectChoices-1)
		choice := st.minW[i] + float64(rng.Intn(st.opt.AspectChoices))*step
		st.w[i] = choice
		st.h[i] = st.areas[i] / choice
	}
}

// undoMove takes back the move proposeMove last applied.
//
//sdpvet:hotpath
func (st *saState) undoMove() {
	u := &st.undo
	switch u.kind {
	case moveSwapS1:
		st.sp.S1[u.a], st.sp.S1[u.b] = st.sp.S1[u.b], st.sp.S1[u.a]
	case moveSwapAll:
		st.sp.S1[u.a], st.sp.S1[u.b] = u.ma, u.mb
		st.sp.S2[u.pa], st.sp.S2[u.pb] = u.ma, u.mb
	case moveReshape:
		st.w[u.i], st.h[u.i] = u.oldW, u.oldH
	}
}

func indexOf(xs []int, v int) int {
	for i, x := range xs {
		if x == v {
			return i
		}
	}
	return -1
}

func (st *saState) calibrateTemperature(cost float64, rng *rand.Rand) float64 {
	sum, cnt := 0.0, 0
	for i := 0; i < 50; i++ {
		st.proposeMove(rng)
		if d := math.Abs(st.cost() - cost); d > 0 {
			sum += d
			cnt++
		}
		st.undoMove()
	}
	if cnt == 0 {
		return 1
	}
	return 2 * sum / float64(cnt) // accept most uphill moves initially
}

func (st *saState) snapshot() saSnapshot {
	return saSnapshot{sp: st.sp.Clone(), w: append([]float64(nil), st.w...)}
}

// saveTo copies the current sequence pair and widths into s, reusing its
// buffers.
//
//sdpvet:hotpath
func (st *saState) saveTo(s *saSnapshot) {
	copy(s.sp.S1, st.sp.S1)
	copy(s.sp.S2, st.sp.S2)
	copy(s.w, st.w)
}

func (st *saState) restore(s saSnapshot) {
	copy(st.sp.S1, s.sp.S1)
	copy(st.sp.S2, s.sp.S2)
	copy(st.w, s.w)
	for i := range st.h {
		st.h[i] = st.areas[i] / st.w[i]
	}
}

func (st *saState) result() *Result {
	p := st.sp.Pack(st.w, st.h, st.pw)
	res := &Result{
		Width: p.Width, Height: p.Height,
		Feasible: p.Width <= st.opt.Outline.W()*(1+1e-9) && p.Height <= st.opt.Outline.H()*(1+1e-9),
	}
	res.Rects = make([]geom.Rect, len(st.w))
	res.Centers = make([]geom.Point, len(st.w))
	for i := range st.w {
		res.Rects[i] = geom.Rect{
			MinX: st.opt.Outline.MinX + p.X[i],
			MinY: st.opt.Outline.MinY + p.Y[i],
			MaxX: st.opt.Outline.MinX + p.X[i] + st.w[i],
			MaxY: st.opt.Outline.MinY + p.Y[i] + st.h[i],
		}
		res.Centers[i] = res.Rects[i].Center()
	}
	res.HPWL = st.nl.HPWL(res.Centers)
	return res
}
