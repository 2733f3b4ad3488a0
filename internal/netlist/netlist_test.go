package netlist

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"sdpfloor/internal/geom"
	"sdpfloor/internal/linalg"
)

// twoModuleNL builds a minimal two-module netlist with one connecting net.
func twoModuleNL() *Netlist {
	return &Netlist{
		Modules: []Module{
			{Name: "a", MinArea: 4, MaxAspect: 2},
			{Name: "b", MinArea: 9, MaxAspect: 3},
		},
		Nets: []Net{{Name: "n0", Weight: 2, Modules: []int{0, 1}}},
	}
}

func TestValidate(t *testing.T) {
	nl := twoModuleNL()
	if err := nl.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := twoModuleNL()
	bad.Modules[0].MinArea = 0
	if bad.Validate() == nil {
		t.Fatal("expected error for zero area")
	}
	bad = twoModuleNL()
	bad.Nets[0].Modules = []int{0, 5}
	if bad.Validate() == nil {
		t.Fatal("expected error for out-of-range module index")
	}
	bad = twoModuleNL()
	bad.Nets[0].Modules = []int{0}
	if bad.Validate() == nil {
		t.Fatal("expected error for single-pin net")
	}
	bad = twoModuleNL()
	bad.Nets[0].Modules = []int{0, 0}
	if bad.Validate() == nil {
		t.Fatal("expected error for duplicate pin")
	}
	bad = twoModuleNL()
	bad.Modules[0].MaxAspect = 0.5
	if bad.Validate() == nil {
		t.Fatal("expected error for MaxAspect < 1")
	}
}

// TestValidateRejectsNonFinite checks that NaN and ±Inf areas, aspect
// bounds, weights, pad coordinates and fixed modules' positions are
// rejected: every comparison in the positivity checks is false for NaN,
// and +Inf passes them. A module that is not fixed may carry any FixedPos.
func TestValidateRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name string
		edit func(nl *Netlist)
		want string
	}{
		{"NaN area", func(nl *Netlist) { nl.Modules[0].MinArea = nan }, "non-finite area"},
		{"+Inf area", func(nl *Netlist) { nl.Modules[1].MinArea = inf }, "non-finite area"},
		{"-Inf area", func(nl *Netlist) { nl.Modules[0].MinArea = -inf }, "non-finite area"},
		{"NaN MaxAspect", func(nl *Netlist) { nl.Modules[0].MaxAspect = nan }, "non-finite MaxAspect"},
		{"+Inf MaxAspect", func(nl *Netlist) { nl.Modules[1].MaxAspect = inf }, "non-finite MaxAspect"},
		{"NaN weight", func(nl *Netlist) { nl.Nets[0].Weight = nan }, "non-finite weight"},
		{"+Inf weight", func(nl *Netlist) { nl.Nets[0].Weight = inf }, "non-finite weight"},
		{"NaN pad X", func(nl *Netlist) { nl.Pads[0].Pos.X = nan }, "non-finite position"},
		{"-Inf pad Y", func(nl *Netlist) { nl.Pads[0].Pos.Y = -inf }, "non-finite position"},
		{"+Inf unconnected pad", func(nl *Netlist) { nl.Pads = append(nl.Pads, Pad{Name: "q", Pos: geom.Point{X: inf}}) }, "pad 1 (q)"},
		{"NaN fixed X", func(nl *Netlist) {
			nl.Modules[0].Fixed, nl.Modules[0].FixedPos = true, geom.Point{X: nan, Y: 1}
		}, "non-finite fixed position"},
		{"+Inf fixed Y", func(nl *Netlist) {
			nl.Modules[1].Fixed, nl.Modules[1].FixedPos = true, geom.Point{X: 1, Y: inf}
		}, "module 1"},
		{"NaN and +Inf fixed", func(nl *Netlist) {
			nl.Modules[0].Fixed, nl.Modules[0].FixedPos = true, geom.Point{X: nan, Y: inf}
		}, "non-finite fixed position"},
	} {
		nl := twoModuleNL()
		nl.Pads = []Pad{{Name: "p", Pos: geom.Point{X: 1, Y: 2}}}
		nl.Nets[0].Pads = []int{0}
		if err := nl.Validate(); err != nil {
			t.Fatalf("%s: the unedited netlist fails: %v", tc.name, err)
		}
		tc.edit(nl)
		err := nl.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate() = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
	nl := twoModuleNL()
	nl.Modules[0].FixedPos = geom.Point{X: nan, Y: inf}
	if err := nl.Validate(); err != nil {
		t.Errorf("a non-finite FixedPos on a module that is not fixed: Validate() = %v, want nil", err)
	}
}

func TestAdjacencyTwoPin(t *testing.T) {
	a := twoModuleNL().Adjacency()
	if a.At(0, 1) != 2 || a.At(1, 0) != 2 || a.At(0, 0) != 0 {
		t.Fatalf("adjacency wrong:\n%v", a)
	}
}

func TestAdjacencyCliqueWeights(t *testing.T) {
	nl := &Netlist{
		Modules: []Module{
			{Name: "a", MinArea: 1, MaxAspect: 1},
			{Name: "b", MinArea: 1, MaxAspect: 1},
			{Name: "c", MinArea: 1, MaxAspect: 1},
		},
		Nets: []Net{{Name: "n0", Weight: 2, Modules: []int{0, 1, 2}}},
	}
	a := nl.Adjacency()
	// Three-pin net of weight 2: each pair gets 2/(3-1) = 1.
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 1.0
			if i == j {
				want = 0
			}
			if a.At(i, j) != want {
				t.Fatalf("A[%d,%d] = %g, want %g", i, j, a.At(i, j), want)
			}
		}
	}
}

func TestPadAdjacency(t *testing.T) {
	nl := &Netlist{
		Modules: []Module{{Name: "a", MinArea: 1, MaxAspect: 1}},
		Pads:    []Pad{{Name: "p0", Pos: geom.Point{X: 0, Y: 0}}},
		Nets:    []Net{{Name: "n0", Weight: 3, Modules: []int{0}, Pads: []int{0}}},
	}
	pa := nl.PadAdjacency()
	if pa.At(0, 0) != 3 {
		t.Fatalf("pad adjacency = %g, want 3", pa.At(0, 0))
	}
}

func TestBuildBInnerProductIdentity(t *testing.T) {
	// Property (Eq. 7 ≡ Eq. 6): ⟨B, XᵀX⟩ == Σ A_ij ‖xᵢ−xⱼ‖² for random A, X.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(8)
		a := linalg.NewDense(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && r.Float64() < 0.6 {
					a.Set(i, j, r.Float64()*5)
				}
			}
		}
		x := linalg.NewDense(2, n)
		centers := make([]geom.Point, n)
		for j := 0; j < n; j++ {
			centers[j] = geom.Point{X: r.NormFloat64() * 3, Y: r.NormFloat64() * 3}
			x.Set(0, j, centers[j].X)
			x.Set(1, j, centers[j].Y)
		}
		g := linalg.MatMul(x.T(), x)
		b := BuildB(a, 1)
		lhs := linalg.InnerProd(b, g)
		rhs := WeightedPairDistance(a, centers, geom.Point.DistSq)
		return math.Abs(lhs-rhs) <= 1e-8*(1+math.Abs(rhs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestBuildBBitIdenticalAcrossWorkers builds B at n = 200, where the rows
// split across the pool, and requires every worker count to reproduce the
// sequential matrix bit for bit.
func TestBuildBBitIdenticalAcrossWorkers(t *testing.T) {
	const n = 200
	rng := rand.New(rand.NewSource(3))
	a := linalg.NewDense(n, n)
	for i := range a.Data {
		if rng.Float64() < 0.1 {
			a.Data[i] = rng.Float64()
		}
	}
	ref := BuildB(a, 1)
	for _, w := range []int{2, 3, 4, 7} {
		got := BuildB(a, w)
		for i := range ref.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(ref.Data[i]) {
				t.Fatalf("workers=%d: element %d = %v, want %v (bitwise)", w, i, got.Data[i], ref.Data[i])
			}
		}
	}
}

func TestBuildBRowSumsZero(t *testing.T) {
	// For symmetric A, B is a (scaled) graph Laplacian: rows sum to zero.
	rng := rand.New(rand.NewSource(2))
	n := 6
	a := linalg.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			w := rng.Float64()
			a.Set(i, j, w)
			a.Set(j, i, w)
		}
	}
	b := BuildB(a, 1)
	for i := 0; i < n; i++ {
		s := 0.0
		for j := 0; j < n; j++ {
			s += b.At(i, j)
		}
		if math.Abs(s) > 1e-12 {
			t.Fatalf("row %d of B sums to %g", i, s)
		}
	}
}

func TestRadii(t *testing.T) {
	nl := twoModuleNL()
	r := nl.Radii(false)
	if math.Abs(r[0]-1) > 1e-15 || math.Abs(r[1]-1.5) > 1e-15 {
		t.Fatalf("square radii = %v", r)
	}
	rns := nl.Radii(true)
	if math.Abs(rns[0]-math.Sqrt(2*4.0/4)) > 1e-15 {
		t.Fatalf("non-square radius[0] = %g", rns[0])
	}
	// Forbidden-zone area must equal the module area: 2r · 2r/k = s.
	for i, m := range nl.Modules {
		area := 2 * rns[i] * 2 * rns[i] / m.MaxAspect
		if math.Abs(area-m.MinArea) > 1e-12 {
			t.Fatalf("forbidden-zone area %g != MinArea %g", area, m.MinArea)
		}
	}
}

func TestHPWL(t *testing.T) {
	nl := twoModuleNL()
	centers := []geom.Point{{X: 0, Y: 0}, {X: 3, Y: 4}}
	// One net, weight 2, bbox half-perimeter 7.
	if got := nl.HPWL(centers); math.Abs(got-14) > 1e-12 {
		t.Fatalf("HPWL = %g, want 14", got)
	}
}

func TestHPWLWithPads(t *testing.T) {
	nl := &Netlist{
		Modules: []Module{{Name: "a", MinArea: 1, MaxAspect: 1}},
		Pads:    []Pad{{Name: "p", Pos: geom.Point{X: 10, Y: 0}}},
		Nets:    []Net{{Name: "n", Weight: 1, Modules: []int{0}, Pads: []int{0}}},
	}
	got := nl.HPWL([]geom.Point{{X: 0, Y: 2}})
	if math.Abs(got-12) > 1e-12 {
		t.Fatalf("HPWL = %g, want 12", got)
	}
}

func TestHPWLTranslationInvariantWithoutPads(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	nl := &Netlist{
		Modules: []Module{
			{Name: "a", MinArea: 1, MaxAspect: 1},
			{Name: "b", MinArea: 1, MaxAspect: 1},
			{Name: "c", MinArea: 1, MaxAspect: 1},
		},
		Nets: []Net{
			{Name: "n0", Weight: 1, Modules: []int{0, 1}},
			{Name: "n1", Weight: 2, Modules: []int{0, 1, 2}},
		},
	}
	for trial := 0; trial < 30; trial++ {
		c := make([]geom.Point, 3)
		for i := range c {
			c[i] = geom.Point{X: rng.NormFloat64(), Y: rng.NormFloat64()}
		}
		base := nl.HPWL(c)
		shift := geom.Point{X: rng.NormFloat64() * 100, Y: rng.NormFloat64() * 100}
		shifted := make([]geom.Point, 3)
		for i := range c {
			shifted[i] = c[i].Add(shift)
		}
		if math.Abs(nl.HPWL(shifted)-base) > 1e-9*(1+base) {
			t.Fatal("HPWL not translation invariant")
		}
	}
}

func TestDegrees(t *testing.T) {
	a := linalg.NewDenseFrom([][]float64{{0, 1, 2}, {1, 0, 0}, {2, 0, 0}})
	d := Degrees(a)
	want := []float64{3, 1, 2}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("Degrees = %v, want %v", d, want)
		}
	}
}

func TestTotalArea(t *testing.T) {
	if got := twoModuleNL().TotalArea(); got != 13 {
		t.Fatalf("TotalArea = %g, want 13", got)
	}
}

func TestWeightedPairDistanceManhattan(t *testing.T) {
	a := linalg.NewDenseFrom([][]float64{{0, 1}, {0, 0}})
	centers := []geom.Point{{X: 0, Y: 0}, {X: 3, Y: 4}}
	got := WeightedPairDistance(a, centers, geom.Point.Manhattan)
	if got != 7 {
		t.Fatalf("Manhattan objective = %g, want 7", got)
	}
}

func TestComputeStats(t *testing.T) {
	nl := &Netlist{
		Modules: []Module{
			{Name: "a", MinArea: 2, MaxAspect: 1},
			{Name: "b", MinArea: 8, MaxAspect: 1},
		},
		Pads: []Pad{{Name: "p", Pos: geom.Point{}}},
		Nets: []Net{
			{Name: "n0", Weight: 1, Modules: []int{0, 1}},
			{Name: "n1", Weight: 1, Modules: []int{0}, Pads: []int{0}},
		},
	}
	st := nl.ComputeStats()
	if st.Modules != 2 || st.Nets != 2 || st.Pads != 1 {
		t.Fatalf("counts wrong: %+v", st)
	}
	if st.Pins != 4 || st.AvgDegree != 2 {
		t.Fatalf("pins/degree wrong: %+v", st)
	}
	if st.TotalArea != 10 || st.MinArea != 2 || st.MaxArea != 8 {
		t.Fatalf("areas wrong: %+v", st)
	}
	if st.PadNets != 1 || st.DegreeHis[2] != 2 {
		t.Fatalf("structure wrong: %+v", st)
	}
	s := st.String()
	for _, want := range []string{"modules 2", "fanout histogram:", "pad-connected nets 1"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() missing %q:\n%s", want, s)
		}
	}
}

func TestComputeStatsEmpty(t *testing.T) {
	st := (&Netlist{}).ComputeStats()
	if st.MinArea != 0 || st.AvgDegree != 0 {
		t.Fatalf("empty stats: %+v", st)
	}
	_ = st.String() // must not panic or divide by zero
}
