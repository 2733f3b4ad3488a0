package core

import (
	"slices"

	"sdpfloor/internal/linalg"
)

// bound identifies one fixed-outline row of a free module: side 0 bounds
// its center's x from below, side 1 from above, sides 2 and 3 its y.
type bound struct{ i, side int }

// rowSet is the lazily managed part of sub-problem 1's constraints, in row
// order: buildProblem emits one row and one LP slack per pair, then the
// distance caps, then one row and slack per bound.
type rowSet struct {
	pairs  []pair
	bounds []bound
}

// clone returns a copy whose slices the working set's later edits cannot
// reach.
func (r rowSet) clone() rowSet {
	return rowSet{pairs: slices.Clone(r.pairs), bounds: slices.Clone(r.bounds)}
}

func (r rowSet) equal(o rowSet) bool {
	return slices.Equal(r.pairs, o.pairs) && slices.Equal(r.bounds, o.bounds)
}

// dropAfter is how many consecutive judged convex iterations a working-set
// row must stay far from active before it leaves the working set.
const dropAfter = 3

// lazySet is one kind of lazily managed inequality row: its members in row
// order, their membership for the violation scans, and how many consecutive
// judged convex iterations each member has stayed far from active.
type lazySet[K comparable] struct {
	rows []K
	have map[K]bool
	far  map[K]int
}

func newLazySet[K comparable](rows []K) lazySet[K] {
	s := lazySet[K]{have: make(map[K]bool, len(rows)), far: make(map[K]int)}
	s.add(rows)
	return s
}

// add appends rows that have re-entered (or entered) the working set.
func (s *lazySet[K]) add(rows []K) {
	for _, k := range rows {
		s.have[k] = true
		delete(s.far, k)
	}
	s.rows = append(s.rows, rows...)
}

// dropFar counts one more judged iteration for every member that isFar
// reports far from active, resets the count of every other member, and
// removes the members whose count reaches dropAfter. The hysteresis
// prevents oscillation; a dropped row that tightens again re-enters
// through the violation scan, so the final iterate stays feasible for it.
func (s *lazySet[K]) dropFar(isFar func(K) bool) {
	kept := s.rows[:0]
	for _, k := range s.rows {
		if isFar(k) {
			s.far[k]++
		} else {
			s.far[k] = 0
		}
		if s.far[k] >= dropAfter {
			delete(s.have, k)
			delete(s.far, k)
			continue
		}
		kept = append(kept, k)
	}
	s.rows = kept
}

// Outline-row thresholds, as fractions of the outline's extent on the
// row's axis (its width for x rows, its height for y rows).
const (
	// boundFar: a row whose slack exceeds this is far from active.
	boundFar = 0.05
	// boundViolated: a row outside the working set whose slack falls below
	// −boundViolated is violated and re-enters.
	boundViolated = 1e-6
)

// allBounds returns the four outline rows of every free module, module by
// module (nil without an outline). Every sub-problem-1 solve sequence starts
// with all of them.
func (b *builder) allBounds() []bound {
	if b.opt.Outline == nil {
		return nil
	}
	var out []bound
	for i, m := range b.nl.Modules {
		if m.Fixed {
			continue
		}
		for side := 0; side < 4; side++ {
			out = append(out, bound{i, side})
		}
	}
	return out
}

// boundRow returns an outline row as the single X-block entry (axis, 2+i)
// with value v and its right-hand side: ±xᵢ (or ±yᵢ) ≥ rhs keeps the
// module's center inset from the outline by its minimal half-width.
func (b *builder) boundRow(bd bound) (axis int, v, rhs float64) {
	o := *b.opt.Outline
	inset := b.outlineInset(bd.i)
	switch bd.side {
	case 0: // xᵢ ≥ MinX+inset
		return 0, 0.5, o.MinX + inset
	case 1: // −xᵢ ≥ −(MaxX−inset)
		return 0, -0.5, -(o.MaxX - inset)
	case 2: // yᵢ ≥ MinY+inset
		return 1, 0.5, o.MinY + inset
	default: // −yᵢ ≥ −(MaxY−inset)
		return 1, -0.5, -(o.MaxY - inset)
	}
}

// boundSlack returns an outline row's slack ⟨A, Z⟩ − rhs at z, the value
// its LP slack variable takes when the row holds with equality.
func (b *builder) boundSlack(z *linalg.Dense, bd bound) float64 {
	axis, v, rhs := b.boundRow(bd)
	return 2*v*z.At(axis, 2+bd.i) - rhs
}

// boundExtent is the outline's extent on a row's axis, the scale of the
// drop and violation thresholds.
func (b *builder) boundExtent(bd bound) float64 {
	if bd.side < 2 {
		return b.opt.Outline.W()
	}
	return b.opt.Outline.H()
}

// violatedBounds returns, in (module, side) order, the outline rows not in
// have that z violates.
func (b *builder) violatedBounds(z *linalg.Dense, have map[bound]bool) []bound {
	var out []bound
	for _, bd := range b.allBounds() {
		if !have[bd] && b.boundSlack(z, bd) < -boundViolated*b.boundExtent(bd) {
			out = append(out, bd)
		}
	}
	return out
}
