// Package anneal implements a fixed-outline simulated-annealing floorplanner
// in the style of Parquet-4 (Adya–Markov [20]), the packing-based baseline of
// Table III. Floorplans are represented by sequence pairs and evaluated with
// the FAST-SP longest-common-subsequence algorithm (O(n log n) per packing)
// using a Fenwick tree for prefix maxima. Soft modules are reshaped within
// their aspect-ratio bounds during annealing.
package anneal

import (
	"fmt"

	"sdpfloor/internal/geom"
	"sdpfloor/internal/sortutil"
)

// SeqPair is a sequence-pair floorplan representation: module i is left of j
// iff i precedes j in both sequences; i is below j iff i follows j in S1 and
// precedes j in S2.
type SeqPair struct {
	S1, S2 []int
}

// NewSeqPair returns the identity sequence pair over n modules (all modules
// in one row).
func NewSeqPair(n int) SeqPair {
	sp := SeqPair{S1: make([]int, n), S2: make([]int, n)}
	for i := 0; i < n; i++ {
		sp.S1[i] = i
		sp.S2[i] = i
	}
	return sp
}

// Clone deep-copies the sequence pair.
func (sp SeqPair) Clone() SeqPair {
	return SeqPair{
		S1: append([]int(nil), sp.S1...),
		S2: append([]int(nil), sp.S2...),
	}
}

// Validate checks that both sequences are permutations of the same length.
func (sp SeqPair) Validate() error {
	n := len(sp.S1)
	if len(sp.S2) != n {
		return fmt.Errorf("anneal: sequence lengths differ: %d vs %d", n, len(sp.S2))
	}
	seen := make([]bool, n)
	for _, v := range sp.S1 {
		if v < 0 || v >= n || seen[v] {
			return fmt.Errorf("anneal: S1 is not a permutation")
		}
		seen[v] = true
	}
	for i := range seen {
		seen[i] = false
	}
	for _, v := range sp.S2 {
		if v < 0 || v >= n || seen[v] {
			return fmt.Errorf("anneal: S2 is not a permutation")
		}
		seen[v] = true
	}
	return nil
}

// Packing is the placement implied by a sequence pair for given dimensions.
type Packing struct {
	X, Y          []float64 // lower-left corners
	Width, Height float64   // bounding box of the packing
}

// PackWork is the reusable scratch of SeqPair.Pack: each module's position
// in S1, the Fenwick tree of the two weighted-LCS passes, and the
// coordinates the returned Packing aliases.
type PackWork struct {
	match []int
	x, y  []float64
	fw    fenwickMax
}

// NewPackWork returns a packing workspace for n modules.
func NewPackWork(n int) *PackWork {
	return &PackWork{
		match: make([]int, n),
		x:     make([]float64, n),
		y:     make([]float64, n),
		fw:    newFenwickMax(n),
	}
}

// Pack computes the minimum-area placement of the sequence pair for module
// dimensions (w, h) with the FAST-SP weighted-LCS algorithm, using ws from
// NewPackWork(len(sp.S1)) as scratch. The packing's X and Y live in ws and
// are overwritten by the next Pack into ws.
//
//sdpvet:hotpath
func (sp SeqPair) Pack(w, h []float64, ws *PackWork) Packing {
	n := len(sp.S1)
	if len(ws.match) != n {
		panic("anneal: PackWork size does not match the sequence pair")
	}
	for pos, m := range sp.S1 {
		ws.match[m] = pos // position of module m in S1
	}
	p := Packing{X: ws.x, Y: ws.y}

	// X: weighted LCS of (S1, S2) with weights w.
	ws.fw.reset()
	for _, m := range sp.S2 {
		pos := ws.match[m]
		x := ws.fw.prefixMax(pos) // max over positions < pos
		p.X[m] = x
		ws.fw.update(pos, x+w[m])
		if x+w[m] > p.Width {
			p.Width = x + w[m]
		}
	}
	// Y: weighted LCS of (reverse(S1), S2) with weights h.
	ws.fw.reset()
	for _, m := range sp.S2 {
		pos := n - 1 - ws.match[m]
		y := ws.fw.prefixMax(pos)
		p.Y[m] = y
		ws.fw.update(pos, y+h[m])
		if y+h[m] > p.Height {
			p.Height = y + h[m]
		}
	}
	return p
}

// Rects returns the placed rectangles of a packing for dimensions (w, h).
func (p Packing) Rects(w, h []float64) []geom.Rect {
	out := make([]geom.Rect, len(p.X))
	for i := range out {
		out[i] = geom.Rect{
			MinX: p.X[i], MinY: p.Y[i],
			MaxX: p.X[i] + w[i], MaxY: p.Y[i] + h[i],
		}
	}
	return out
}

// FromPlacement derives a sequence pair consistent with the relative
// positions of the given centers: S1 sorts by (x − y), S2 by (x + y). For an
// overlap-free placement the induced packing preserves all left-of/below
// relations (this is Parquet's pl2sp operation, used to post-process the
// analytical baselines in Table III).
func FromPlacement(centers []geom.Point) SeqPair {
	n := len(centers)
	sp := NewSeqPair(n)
	sortutil.ByKey(sp.S1, func(m int) float64 { return centers[m].X - centers[m].Y })
	sortutil.ByKey(sp.S2, func(m int) float64 { return centers[m].X + centers[m].Y })
	return sp
}

// fenwickMax is a Fenwick (binary indexed) tree over [0, n) supporting
// prefix-maximum queries and point updates, the core of FAST-SP. It takes
// maxima with the builtin max, which compiles to a few branch-free
// instructions, instead of a compare-and-branch the CPU must predict. The
// two agree whenever no operand is NaN and no tie is between +0 and −0,
// and Pack gives them no other: the tree starts at +0, and every update is
// x + w with x a prefix maximum (so ≥ +0, never −0) and w the annealer's
// finite positive width or height of a module (netlist.Validate rejects
// a non-finite area or aspect bound). So every entry and query is finite,
// ≥ +0 and never −0.
type fenwickMax struct {
	tree []float64
}

func newFenwickMax(n int) fenwickMax {
	return fenwickMax{tree: make([]float64, n+1)}
}

// reset empties the tree (every prefix maximum back to 0).
func (f *fenwickMax) reset() { clear(f.tree) }

// update raises position i (0-based) to at least v.
func (f *fenwickMax) update(i int, v float64) {
	for i++; i < len(f.tree); i += i & (-i) {
		f.tree[i] = max(f.tree[i], v)
	}
}

// prefixMax returns the maximum over positions [0, i) (0 for i == 0).
func (f *fenwickMax) prefixMax(i int) float64 {
	m := 0.0
	for ; i > 0; i -= i & (-i) {
		m = max(m, f.tree[i])
	}
	return m
}
