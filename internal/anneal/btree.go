package anneal

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"sdpfloor/internal/geom"
	"sdpfloor/internal/netlist"
)

// BTree is a B*-tree floorplan representation (Chang et al. [5], the other
// packing family the paper's related work discusses): an ordered binary
// tree over placement slots. The left child of a slot is packed immediately
// to the right of it; the right child at the same x, above it (y from the
// packing contour). A separate permutation assigns modules to slots so
// annealing moves stay trivially valid.
type BTree struct {
	Par, Left, Right []int // -1 for none
	Root             int
}

// NewBTreeChain returns a left-skewed chain (all modules in one row).
func NewBTreeChain(n int) *BTree {
	t := &BTree{
		Par:   make([]int, n),
		Left:  make([]int, n),
		Right: make([]int, n),
		Root:  0,
	}
	for i := 0; i < n; i++ {
		t.Par[i], t.Left[i], t.Right[i] = i-1, i+1, -1
		if i == n-1 {
			t.Left[i] = -1
		}
	}
	if n > 0 {
		t.Par[0] = -1
	}
	return t
}

// Clone deep-copies the tree.
func (t *BTree) Clone() *BTree {
	return &BTree{
		Par:   append([]int(nil), t.Par...),
		Left:  append([]int(nil), t.Left...),
		Right: append([]int(nil), t.Right...),
		Root:  t.Root,
	}
}

// Validate checks the structure is a single binary tree over all slots.
func (t *BTree) Validate() error {
	n := len(t.Par)
	if len(t.Left) != n || len(t.Right) != n {
		return errors.New("anneal: btree slice lengths differ")
	}
	if n == 0 {
		return nil
	}
	if t.Root < 0 || t.Root >= n || t.Par[t.Root] != -1 {
		return fmt.Errorf("anneal: bad root %d", t.Root)
	}
	seen := make([]bool, n)
	stack := []int{t.Root}
	count := 0
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if s < 0 || s >= n || seen[s] {
			return errors.New("anneal: btree cycle or out-of-range child")
		}
		seen[s] = true
		count++
		for _, c := range []int{t.Left[s], t.Right[s]} {
			if c != -1 {
				if t.Par[c] != s {
					return fmt.Errorf("anneal: parent pointer of %d inconsistent", c)
				}
				stack = append(stack, c)
			}
		}
	}
	if count != n {
		return fmt.Errorf("anneal: tree reaches %d of %d slots", count, n)
	}
	return nil
}

// contour is the packing skyline: a list of segments sorted by x covering
// [0, ∞) (implicit y = 0 past the last segment).
type contour struct {
	segs []contourSeg
}

type contourSeg struct {
	x1, x2, y float64
}

// place returns the y at which a module spanning [x1, x2) rests and raises
// the skyline over that span to y + h.
func (c *contour) place(x1, x2, h float64) float64 {
	y := 0.0
	for _, s := range c.segs {
		if s.x2 <= x1 || s.x1 >= x2 {
			continue
		}
		if s.y > y {
			y = s.y
		}
	}
	// Rebuild: keep parts outside [x1, x2), insert the new top segment.
	var out []contourSeg
	inserted := false
	for _, s := range c.segs {
		switch {
		case s.x2 <= x1 || s.x1 >= x2:
			out = append(out, s)
		default:
			if s.x1 < x1 {
				out = append(out, contourSeg{s.x1, x1, s.y})
			}
			if !inserted {
				out = append(out, contourSeg{x1, x2, y + h})
				inserted = true
			}
			if s.x2 > x2 {
				out = append(out, contourSeg{x2, s.x2, s.y})
			}
		}
	}
	if !inserted {
		out = append(out, contourSeg{x1, x2, y + h})
	}
	// Keep sorted by x1 (insertion above preserves order except the brand-new
	// tail segment; a single pass fixes it).
	for i := len(out) - 1; i > 0; i-- {
		if out[i].x1 < out[i-1].x1 {
			out[i], out[i-1] = out[i-1], out[i]
		} else {
			break
		}
	}
	c.segs = out
	return y
}

// Pack computes the placement implied by the tree for the slot→module
// permutation and module dimensions. DFS preorder with the classic contour
// update; left children abut to the right, right children stack above.
func (t *BTree) Pack(perm []int, w, h []float64) Packing {
	n := len(t.Par)
	p := Packing{X: make([]float64, len(w)), Y: make([]float64, len(w))}
	if n == 0 {
		return p
	}
	var c contour
	type frame struct {
		slot int
		x    float64
	}
	stack := []frame{{t.Root, 0}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		m := perm[f.slot]
		y := c.place(f.x, f.x+w[m], h[m])
		p.X[m] = f.x
		p.Y[m] = y
		if f.x+w[m] > p.Width {
			p.Width = f.x + w[m]
		}
		if y+h[m] > p.Height {
			p.Height = y + h[m]
		}
		// Right child first so the left child is processed next (preorder:
		// the left chain grows rightward before stacking).
		if r := t.Right[f.slot]; r != -1 {
			stack = append(stack, frame{r, f.x})
		}
		if l := t.Left[f.slot]; l != -1 {
			stack = append(stack, frame{l, f.x + w[m]})
		}
	}
	return p
}

// moveLeaf detaches a random leaf and reattaches it at a random free child
// pointer. Returns an undo closure, or nil if no move was possible.
func (t *BTree) moveLeaf(rng *rand.Rand) func() {
	n := len(t.Par)
	if n < 3 {
		return nil
	}
	// Collect leaves (no children) that are not the root.
	var leaves []int
	for s := 0; s < n; s++ {
		if t.Left[s] == -1 && t.Right[s] == -1 && s != t.Root {
			leaves = append(leaves, s)
		}
	}
	if len(leaves) == 0 {
		return nil
	}
	leaf := leaves[rng.Intn(len(leaves))]
	oldPar := t.Par[leaf]
	oldWasLeft := t.Left[oldPar] == leaf

	// Detach.
	if oldWasLeft {
		t.Left[oldPar] = -1
	} else {
		t.Right[oldPar] = -1
	}
	// Candidate attachment points: slots with a free child pointer.
	type slot struct {
		s    int
		left bool
	}
	var cands []slot
	for s := 0; s < n; s++ {
		if s == leaf {
			continue
		}
		if t.Left[s] == -1 {
			cands = append(cands, slot{s, true})
		}
		if t.Right[s] == -1 {
			cands = append(cands, slot{s, false})
		}
	}
	at := cands[rng.Intn(len(cands))]
	t.Par[leaf] = at.s
	if at.left {
		t.Left[at.s] = leaf
	} else {
		t.Right[at.s] = leaf
	}
	return func() {
		if at.left {
			t.Left[at.s] = -1
		} else {
			t.Right[at.s] = -1
		}
		t.Par[leaf] = oldPar
		if oldWasLeft {
			t.Left[oldPar] = leaf
		} else {
			t.Right[oldPar] = leaf
		}
	}
}

// SolveBTree runs the same fixed-outline annealing as Solve but over the
// B*-tree representation — the representation ablation for the paper's
// packing-based related work.
func SolveBTree(nl *netlist.Netlist, opt Options) (*Result, error) {
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

	st := &btState{
		nl: nl, opt: &opt,
		tree: NewBTreeChain(n),
		perm: rng.Perm(n),
		w:    make([]float64, n), h: make([]float64, n),
		areas: make([]float64, n), minW: make([]float64, n), maxW: make([]float64, n),
		ev: netlist.NewHPWLEval(nl),
	}
	for i, m := range nl.Modules {
		st.areas[i] = m.MinArea
		st.minW[i] = math.Sqrt(m.MinArea / m.MaxAspect)
		st.maxW[i] = math.Sqrt(m.MinArea * m.MaxAspect)
		st.w[i] = math.Sqrt(m.MinArea)
		st.h[i] = m.MinArea / st.w[i]
	}
	st.hpwl0 = math.Max(st.hpwl(), 1)

	cost := st.cost()
	t0 := st.calibrate(cost, rng)
	if opt.T0Scale > 0 {
		t0 *= opt.T0Scale
	}
	minTemp := opt.MinTemp
	if minTemp == 0 {
		minTemp = 1e-5 * t0
	}
	best := st.snapshot()
	bestCost := cost
	accepted := 0
	var cancelErr error
	for temp := t0; temp > minTemp; temp *= opt.CoolingRate {
		if opt.Context != nil {
			if err := opt.Context.Err(); err != nil {
				cancelErr = fmt.Errorf("anneal: b*-tree cancelled at temperature %.3g: %w", temp, err)
				break
			}
		}
		for mv := 0; mv < opt.MovesPerTemp; mv++ {
			undo := st.propose(rng)
			if undo == nil {
				continue
			}
			nc := st.cost()
			dc := nc - cost
			if dc <= 0 || rng.Float64() < math.Exp(-dc/temp) {
				cost = nc
				accepted++
				if cost < bestCost {
					bestCost = cost
					best = st.snapshot()
				}
			} else {
				undo()
			}
		}
	}
	st.restore(best)
	return st.result(accepted), cancelErr
}

type btState struct {
	nl    *netlist.Netlist
	opt   *Options
	tree  *BTree
	perm  []int
	w, h  []float64
	areas []float64
	minW  []float64
	maxW  []float64
	hpwl0 float64
	cache []geom.Point
	ev    *netlist.HPWLEval
}

type btSnapshot struct {
	tree *BTree
	perm []int
	w    []float64
}

func (st *btState) centers() []geom.Point {
	p := st.tree.Pack(st.perm, st.w, st.h)
	if st.cache == nil {
		st.cache = make([]geom.Point, len(st.w))
	}
	for i := range st.w {
		st.cache[i] = geom.Point{
			X: st.opt.Outline.MinX + p.X[i] + st.w[i]/2,
			Y: st.opt.Outline.MinY + p.Y[i] + st.h[i]/2,
		}
	}
	return st.cache
}

func (st *btState) hpwl() float64 { return st.nl.HPWL(st.centers()) }

func (st *btState) cost() float64 {
	p := st.tree.Pack(st.perm, st.w, st.h)
	hp := st.ev.HPWL(st.centersFromPacking(p))
	violW := math.Max(0, p.Width/st.opt.Outline.W()-1)
	violH := math.Max(0, p.Height/st.opt.Outline.H()-1)
	lambda := st.opt.WirelengthWeight
	return lambda*hp/st.hpwl0 + (1-lambda)*4*(violW+violH+violW*violH)
}

func (st *btState) centersFromPacking(p Packing) []geom.Point {
	if st.cache == nil {
		st.cache = make([]geom.Point, len(st.w))
	}
	for i := range st.w {
		st.cache[i] = geom.Point{
			X: st.opt.Outline.MinX + p.X[i] + st.w[i]/2,
			Y: st.opt.Outline.MinY + p.Y[i] + st.h[i]/2,
		}
	}
	return st.cache
}

func (st *btState) propose(rng *rand.Rand) func() {
	n := len(st.w)
	switch rng.Intn(3) {
	case 0: // swap two slot assignments
		a, b := rng.Intn(n), rng.Intn(n)
		st.perm[a], st.perm[b] = st.perm[b], st.perm[a]
		return func() { st.perm[a], st.perm[b] = st.perm[b], st.perm[a] }
	case 1: // move a leaf
		return st.tree.moveLeaf(rng)
	default: // reshape
		i := rng.Intn(n)
		if st.maxW[i] <= st.minW[i] {
			return nil
		}
		oldW, oldH := st.w[i], st.h[i]
		step := (st.maxW[i] - st.minW[i]) / float64(st.opt.AspectChoices-1)
		st.w[i] = st.minW[i] + float64(rng.Intn(st.opt.AspectChoices))*step
		st.h[i] = st.areas[i] / st.w[i]
		return func() { st.w[i], st.h[i] = oldW, oldH }
	}
}

func (st *btState) calibrate(cost float64, rng *rand.Rand) float64 {
	sum, cnt := 0.0, 0
	for i := 0; i < 50; i++ {
		undo := st.propose(rng)
		if undo == nil {
			continue
		}
		if d := math.Abs(st.cost() - cost); d > 0 {
			sum += d
			cnt++
		}
		undo()
	}
	if cnt == 0 {
		return 1
	}
	return 2 * sum / float64(cnt)
}

func (st *btState) snapshot() btSnapshot {
	return btSnapshot{
		tree: st.tree.Clone(),
		perm: append([]int(nil), st.perm...),
		w:    append([]float64(nil), st.w...),
	}
}

func (st *btState) restore(s btSnapshot) {
	st.tree = s.tree.Clone()
	copy(st.perm, s.perm)
	copy(st.w, s.w)
	for i := range st.h {
		st.h[i] = st.areas[i] / st.w[i]
	}
}

func (st *btState) result(moves int) *Result {
	p := st.tree.Pack(st.perm, st.w, st.h)
	res := &Result{
		Width: p.Width, Height: p.Height,
		Feasible: p.Width <= st.opt.Outline.W()*(1+1e-9) && p.Height <= st.opt.Outline.H()*(1+1e-9),
		Moves:    moves,
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
