package anneal

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"sdpfloor/internal/geom"
	"sdpfloor/internal/netlist"
)

func TestSeqPairKnownPackings(t *testing.T) {
	// Two unit squares side by side: (01, 01) → module 1 right of 0.
	sp := SeqPair{S1: []int{0, 1}, S2: []int{0, 1}}
	w := []float64{1, 1}
	h := []float64{1, 1}
	p := sp.Pack(w, h, NewPackWork(len(w)))
	if p.X[0] != 0 || p.X[1] != 1 || p.Y[0] != 0 || p.Y[1] != 0 {
		t.Fatalf("horizontal packing wrong: %+v", p)
	}
	if p.Width != 2 || p.Height != 1 {
		t.Fatalf("bbox = %g x %g, want 2 x 1", p.Width, p.Height)
	}
	// (10, 01): 0 follows 1 in S1 and precedes 1 in S2 → 0 below 1.
	sp = SeqPair{S1: []int{1, 0}, S2: []int{0, 1}}
	p = sp.Pack(w, h, NewPackWork(len(w)))
	if p.Width != 1 || p.Height != 2 {
		t.Fatalf("vertical bbox = %g x %g, want 1 x 2", p.Width, p.Height)
	}
	if p.Y[0] != 0 || p.Y[1] != 1 {
		t.Fatalf("vertical stacking wrong: %+v", p)
	}
}

func TestSeqPairThreeModuleLShape(t *testing.T) {
	// S1=(2,0,1), S2=(0,1,2): 0 left of 1; 2 above both? Check relations:
	// 0 before 1 in both → 0 left of 1. 2 after 0 in S1? 2 before 0 in S1 and
	// after... S1=(2,0,1): 2 precedes 0; S2=(0,1,2): 2 follows 0 → by the
	// rule (i after j in S1, i before j in S2 → i below j): here 0 is after 2
	// in S1 and before 2 in S2 → 0 below 2.
	sp := SeqPair{S1: []int{2, 0, 1}, S2: []int{0, 1, 2}}
	w := []float64{2, 1, 1}
	h := []float64{1, 1, 1}
	p := sp.Pack(w, h, NewPackWork(len(w)))
	rects := p.Rects(w, h)
	// No overlaps.
	for i := 0; i < 3; i++ {
		for j := i + 1; j < 3; j++ {
			if rects[i].Intersects(rects[j], 1e-12) {
				t.Fatalf("rects %d and %d overlap: %+v %+v", i, j, rects[i], rects[j])
			}
		}
	}
	// 0 is left of 1, 0 below 2, 1 below 2.
	if !(p.X[0]+w[0] <= p.X[1]+1e-12) {
		t.Fatalf("0 not left of 1: %+v", p)
	}
	if !(p.Y[0]+h[0] <= p.Y[2]+1e-12) {
		t.Fatalf("0 not below 2: %+v", p)
	}
}

func TestSeqPairPackingNoOverlapProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		sp := NewSeqPair(n)
		rng.Shuffle(n, func(a, b int) { sp.S1[a], sp.S1[b] = sp.S1[b], sp.S1[a] })
		rng.Shuffle(n, func(a, b int) { sp.S2[a], sp.S2[b] = sp.S2[b], sp.S2[a] })
		w := make([]float64, n)
		h := make([]float64, n)
		for i := range w {
			w[i] = 0.5 + rng.Float64()*3
			h[i] = 0.5 + rng.Float64()*3
		}
		p := sp.Pack(w, h, NewPackWork(len(w)))
		rects := p.Rects(w, h)
		for i := 0; i < n; i++ {
			if p.X[i] < 0 || p.Y[i] < 0 {
				return false
			}
			if p.X[i]+w[i] > p.Width+1e-9 || p.Y[i]+h[i] > p.Height+1e-9 {
				return false
			}
			for j := i + 1; j < n; j++ {
				if rects[i].Intersects(rects[j], 1e-9) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSeqPairPackingIsCompact(t *testing.T) {
	// Total packing area is at least the sum of module areas, and the
	// packing width/height never exceed the sums of dimensions.
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(8)
		sp := NewSeqPair(n)
		rng.Shuffle(n, func(a, b int) { sp.S1[a], sp.S1[b] = sp.S1[b], sp.S1[a] })
		rng.Shuffle(n, func(a, b int) { sp.S2[a], sp.S2[b] = sp.S2[b], sp.S2[a] })
		w := make([]float64, n)
		h := make([]float64, n)
		area, sw, sh := 0.0, 0.0, 0.0
		for i := range w {
			w[i] = 0.5 + rng.Float64()*2
			h[i] = 0.5 + rng.Float64()*2
			area += w[i] * h[i]
			sw += w[i]
			sh += h[i]
		}
		p := sp.Pack(w, h, NewPackWork(len(w)))
		if p.Width*p.Height < area-1e-9 {
			t.Fatalf("packing area %g below module area %g", p.Width*p.Height, area)
		}
		if p.Width > sw+1e-9 || p.Height > sh+1e-9 {
			t.Fatalf("packing exceeds trivial bounds")
		}
	}
}

func TestValidateSeqPair(t *testing.T) {
	good := NewSeqPair(3)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := SeqPair{S1: []int{0, 0, 2}, S2: []int{0, 1, 2}}
	if bad.Validate() == nil {
		t.Fatal("expected duplicate error")
	}
	bad2 := SeqPair{S1: []int{0, 1}, S2: []int{0, 1, 2}}
	if bad2.Validate() == nil {
		t.Fatal("expected length error")
	}
}

func TestFromPlacementPreservesRelations(t *testing.T) {
	// A 2×2 grid of unit modules: pl2sp then pack must keep them disjoint
	// and in the same relative order.
	centers := []geom.Point{
		{X: 0, Y: 0}, {X: 2, Y: 0},
		{X: 0, Y: 2}, {X: 2, Y: 2},
	}
	sp := FromPlacement(centers)
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	w := []float64{1, 1, 1, 1}
	h := []float64{1, 1, 1, 1}
	p := sp.Pack(w, h, NewPackWork(len(w)))
	// Module 1 right of 0, module 2 above 0.
	if !(p.X[0] < p.X[1]) || !(p.Y[0] < p.Y[2]) {
		t.Fatalf("relations lost: %+v", p)
	}
	if p.Width != 2 || p.Height != 2 {
		t.Fatalf("grid should pack to 2x2, got %g x %g", p.Width, p.Height)
	}
}

func TestFenwickMax(t *testing.T) {
	f := newFenwickMax(8)
	f.update(3, 5)
	f.update(1, 2)
	if got := f.prefixMax(3); got != 2 {
		t.Fatalf("prefixMax(3) = %g, want 2", got)
	}
	if got := f.prefixMax(4); got != 5 {
		t.Fatalf("prefixMax(4) = %g, want 5", got)
	}
	if got := f.prefixMax(0); got != 0 {
		t.Fatalf("prefixMax(0) = %g, want 0", got)
	}
	f.update(3, 1) // lower value must not overwrite
	if got := f.prefixMax(4); got != 5 {
		t.Fatalf("prefixMax(4) after weak update = %g, want 5", got)
	}
	f.reset()
	if got := f.prefixMax(8); got != 0 {
		t.Fatalf("prefixMax(8) after reset = %g, want 0", got)
	}
}

func saTestNetlist(n int, rng *rand.Rand) *netlist.Netlist {
	nl := &netlist.Netlist{}
	for i := 0; i < n; i++ {
		nl.Modules = append(nl.Modules, netlist.Module{
			Name: "m", MinArea: 1 + rng.Float64()*3, MaxAspect: 3,
		})
	}
	for i := 0; i < 2*n; i++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b {
			continue
		}
		nl.Nets = append(nl.Nets, netlist.Net{Name: "n", Weight: 1, Modules: []int{a, b}})
	}
	return nl
}

func TestSolveProducesLegalFloorplan(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	nl := saTestNetlist(8, rng)
	side := math.Sqrt(nl.TotalArea() * 1.3)
	out := geom.Rect{MinX: 0, MinY: 0, MaxX: side, MaxY: side}
	res, err := Solve(nl, Options{Outline: out, Seed: 7, MovesPerTemp: 60, CoolingRate: 0.85})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatalf("annealer could not fit 30%% whitespace outline: %g x %g in %g x %g",
			res.Width, res.Height, out.W(), out.H())
	}
	for i := range res.Rects {
		for j := i + 1; j < len(res.Rects); j++ {
			if res.Rects[i].Intersects(res.Rects[j], 1e-9) {
				t.Fatalf("modules %d and %d overlap", i, j)
			}
		}
		// Area preserved.
		if math.Abs(res.Rects[i].Area()-nl.Modules[i].MinArea) > 1e-6*nl.Modules[i].MinArea {
			t.Fatalf("module %d area %g, want %g", i, res.Rects[i].Area(), nl.Modules[i].MinArea)
		}
		// Aspect bounds respected.
		ar := res.Rects[i].W() / res.Rects[i].H()
		if ar > 3+1e-6 || ar < 1.0/3-1e-6 {
			t.Fatalf("module %d aspect %g outside [1/3, 3]", i, ar)
		}
	}
	if res.HPWL <= 0 {
		t.Fatal("HPWL should be positive")
	}
}

func TestSolveDeterministicForSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	nl := saTestNetlist(6, rng)
	out := geom.Rect{MinX: 0, MinY: 0, MaxX: 6, MaxY: 6}
	r1, err := Solve(nl, Options{Outline: out, Seed: 11, MovesPerTemp: 20, CoolingRate: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Solve(nl, Options{Outline: out, Seed: 11, MovesPerTemp: 20, CoolingRate: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	if r1.HPWL != r2.HPWL {
		t.Fatalf("same seed, different results: %g vs %g", r1.HPWL, r2.HPWL)
	}
}

func TestSolveRejectsBadInput(t *testing.T) {
	if _, err := Solve(&netlist.Netlist{}, Options{Outline: geom.Rect{MaxX: 1, MaxY: 1}}); err == nil {
		t.Fatal("expected error for empty netlist")
	}
	nl := &netlist.Netlist{Modules: []netlist.Module{{Name: "m", MinArea: 1, MaxAspect: 1}}}
	if _, err := Solve(nl, Options{}); err == nil {
		t.Fatal("expected error for empty outline")
	}
}

func TestSolveWithInitRefinesStructure(t *testing.T) {
	// Seeding with a pl2sp sequence pair and a tiny T0Scale should act as
	// local refinement: the result must be deterministic and legal, and the
	// initial relative order should largely survive.
	rng := rand.New(rand.NewSource(5))
	nl := saTestNetlist(8, rng)
	side := math.Sqrt(nl.TotalArea() * 1.4)
	out := geom.Rect{MinX: 0, MinY: 0, MaxX: side, MaxY: side}

	// A deliberate left-to-right placement to seed from.
	centers := make([]geom.Point, 8)
	for i := range centers {
		centers[i] = geom.Point{X: float64(i) * side / 8, Y: side / 2}
	}
	sp := FromPlacement(centers)
	res, err := Solve(nl, Options{
		Outline: out, Seed: 3, Init: &sp, T0Scale: 0.02,
		MovesPerTemp: 40, CoolingRate: 0.8,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Rects {
		for j := i + 1; j < len(res.Rects); j++ {
			if res.Rects[i].Intersects(res.Rects[j], 1e-9) {
				t.Fatalf("overlap after refinement: %d, %d", i, j)
			}
		}
	}
	if res.HPWL <= 0 {
		t.Fatal("HPWL must be positive")
	}
}

func TestPackDimensionsDoNotMutate(t *testing.T) {
	sp := SeqPair{S1: []int{0, 1}, S2: []int{0, 1}}
	w := []float64{1, 2}
	h := []float64{3, 4}
	sp.Pack(w, h, NewPackWork(len(w)))
	if w[0] != 1 || w[1] != 2 || h[0] != 3 || h[1] != 4 {
		t.Fatal("Pack mutated its inputs")
	}
}

func TestCloneIndependence(t *testing.T) {
	sp := NewSeqPair(3)
	cp := sp.Clone()
	cp.S1[0], cp.S1[2] = cp.S1[2], cp.S1[0]
	if sp.S1[0] != 0 {
		t.Fatal("Clone shares storage with the original")
	}
}

// TestPackWorkReuseMatchesFresh packs many random sequence pairs through
// one workspace and checks each packing against a fresh workspace bit for
// bit: nothing from an earlier packing may leak into a later one.
func TestPackWorkReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 12
	ws := NewPackWork(n)
	w, h := make([]float64, n), make([]float64, n)
	for trial := 0; trial < 50; trial++ {
		sp := NewSeqPair(n)
		rng.Shuffle(n, func(a, b int) { sp.S1[a], sp.S1[b] = sp.S1[b], sp.S1[a] })
		rng.Shuffle(n, func(a, b int) { sp.S2[a], sp.S2[b] = sp.S2[b], sp.S2[a] })
		for i := range w {
			w[i] = 0.5 + rng.Float64()*3
			h[i] = 0.5 + rng.Float64()*3
		}
		got, want := sp.Pack(w, h, ws), sp.Pack(w, h, NewPackWork(n))
		if got.Width != want.Width || got.Height != want.Height {
			t.Fatalf("trial %d: reused %gx%g, fresh %gx%g", trial, got.Width, got.Height, want.Width, want.Height)
		}
		for i := range w {
			if got.X[i] != want.X[i] || got.Y[i] != want.Y[i] {
				t.Fatalf("trial %d module %d: reused (%g,%g), fresh (%g,%g)", trial, i, got.X[i], got.Y[i], want.X[i], want.Y[i])
			}
		}
	}
}

// branchyFenwick is the compare-and-branch prefix-maximum tree fenwickMax
// used before it took the builtin max, kept as the reference of
// TestPackMatchesBranchy.
type branchyFenwick struct{ tree []float64 }

func (f *branchyFenwick) update(i int, v float64) {
	for i++; i < len(f.tree); i += i & (-i) {
		if f.tree[i] < v {
			f.tree[i] = v
		}
	}
}

func (f *branchyFenwick) prefixMax(i int) float64 {
	m := 0.0
	for ; i > 0; i -= i & (-i) {
		if f.tree[i] > m {
			m = f.tree[i]
		}
	}
	return m
}

// packBranchy is SeqPair.Pack over branchyFenwick.
func packBranchy(sp SeqPair, w, h []float64) Packing {
	n := len(sp.S1)
	match := make([]int, n)
	for pos, m := range sp.S1 {
		match[m] = pos
	}
	p := Packing{X: make([]float64, n), Y: make([]float64, n)}
	f := branchyFenwick{tree: make([]float64, n+1)}
	for _, m := range sp.S2 {
		pos := match[m]
		x := f.prefixMax(pos)
		p.X[m] = x
		f.update(pos, x+w[m])
		if x+w[m] > p.Width {
			p.Width = x + w[m]
		}
	}
	f = branchyFenwick{tree: make([]float64, n+1)}
	for _, m := range sp.S2 {
		pos := n - 1 - match[m]
		y := f.prefixMax(pos)
		p.Y[m] = y
		f.update(pos, y+h[m])
		if y+h[m] > p.Height {
			p.Height = y + h[m]
		}
	}
	return p
}

// TestPackMatchesBranchy checks Pack, whose Fenwick tree takes the
// builtin max, against the compare-and-branch tree bit for bit on random
// sequence pairs of 1–64 modules with finite positive dimensions: spread
// over many magnitudes, or small integers so that equal prefix maxima tie.
func TestPackMatchesBranchy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dim := func(ties bool) float64 {
		if ties {
			return float64(1 + rng.Intn(3))
		}
		return math.Ldexp(0.5+rng.Float64(), rng.Intn(40)-20)
	}
	for n := 1; n <= 64; n++ {
		ws := NewPackWork(n)
		w, h := make([]float64, n), make([]float64, n)
		for trial := 0; trial < 40; trial++ {
			sp := NewSeqPair(n)
			rng.Shuffle(n, func(a, b int) { sp.S1[a], sp.S1[b] = sp.S1[b], sp.S1[a] })
			rng.Shuffle(n, func(a, b int) { sp.S2[a], sp.S2[b] = sp.S2[b], sp.S2[a] })
			ties := trial%2 == 1
			for i := range w {
				w[i], h[i] = dim(ties), dim(ties)
			}
			got, want := sp.Pack(w, h, ws), packBranchy(sp, w, h)
			same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
			if !same(got.Width, want.Width) || !same(got.Height, want.Height) {
				t.Fatalf("n=%d trial %d: Pack %gx%g, branchy %gx%g", n, trial, got.Width, got.Height, want.Width, want.Height)
			}
			for i := range w {
				if !same(got.X[i], want.X[i]) || !same(got.Y[i], want.Y[i]) {
					t.Fatalf("n=%d trial %d module %d: Pack (%g,%g), branchy (%g,%g)", n, trial, i, got.X[i], got.Y[i], want.X[i], want.Y[i])
				}
			}
		}
	}
}
