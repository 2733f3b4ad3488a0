package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPointOps(t *testing.T) {
	p, q := Point{1, 2}, Point{4, 6}
	if p.Add(q) != (Point{5, 8}) {
		t.Fatal("Add wrong")
	}
	if q.Sub(p) != (Point{3, 4}) {
		t.Fatal("Sub wrong")
	}
	if p.Scale(2) != (Point{2, 4}) {
		t.Fatal("Scale wrong")
	}
	if math.Abs(p.Dist(q)-5) > 1e-15 {
		t.Fatalf("Dist = %g", p.Dist(q))
	}
	if p.DistSq(q) != 25 {
		t.Fatalf("DistSq = %g", p.DistSq(q))
	}
	if p.Manhattan(q) != 7 {
		t.Fatalf("Manhattan = %g", p.Manhattan(q))
	}
}

func TestDistTriangleInequality(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		// Clamp to avoid overflow from quick's extreme values.
		cl := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return math.Mod(v, 1e6)
		}
		a := Point{cl(ax), cl(ay)}
		b := Point{cl(bx), cl(by)}
		c := Point{cl(cx), cl(cy)}
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRect(t *testing.T) {
	r := NewRectCenter(Point{5, 5}, 4, 2)
	if r.MinX != 3 || r.MaxX != 7 || r.MinY != 4 || r.MaxY != 6 {
		t.Fatalf("NewRectCenter = %+v", r)
	}
	if r.W() != 4 || r.H() != 2 || r.Area() != 8 {
		t.Fatal("dims wrong")
	}
	if r.Center() != (Point{5, 5}) {
		t.Fatal("Center wrong")
	}
	if !r.Contains(Point{3, 4}) || r.Contains(Point{2.9, 4}) {
		t.Fatal("Contains wrong")
	}
}

func TestRectOverlap(t *testing.T) {
	a := Rect{0, 0, 4, 4}
	b := Rect{2, 2, 6, 6}
	if a.Overlap(b) != 4 {
		t.Fatalf("Overlap = %g, want 4", a.Overlap(b))
	}
	c := Rect{5, 5, 6, 6}
	if a.Overlap(c) != 0 {
		t.Fatal("disjoint rects should not overlap")
	}
	if !a.Intersects(b, 0) || a.Intersects(c, 0) {
		t.Fatal("Intersects wrong")
	}
	// Touching rectangles do not intersect.
	d := Rect{4, 0, 8, 4}
	if a.Intersects(d, 0) {
		t.Fatal("touching rects should not intersect")
	}
}

func TestRectUnionContains(t *testing.T) {
	a := Rect{0, 0, 1, 1}
	b := Rect{2, -1, 3, 0.5}
	u := a.Union(b)
	if !u.ContainsRect(a, 0) || !u.ContainsRect(b, 0) {
		t.Fatal("Union does not contain operands")
	}
	if u != (Rect{0, -1, 3, 1}) {
		t.Fatalf("Union = %+v", u)
	}
}

func TestOverlapSymmetricProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 200; i++ {
		a := Rect{rng.Float64() * 10, rng.Float64() * 10, 0, 0}
		a.MaxX = a.MinX + rng.Float64()*5
		a.MaxY = a.MinY + rng.Float64()*5
		b := Rect{rng.Float64() * 10, rng.Float64() * 10, 0, 0}
		b.MaxX = b.MinX + rng.Float64()*5
		b.MaxY = b.MinY + rng.Float64()*5
		if math.Abs(a.Overlap(b)-b.Overlap(a)) > 1e-12 {
			t.Fatal("Overlap not symmetric")
		}
		if a.Overlap(b) > math.Min(a.Area(), b.Area())+1e-12 {
			t.Fatal("Overlap exceeds min area")
		}
	}
}

func TestBBox(t *testing.T) {
	var b BBox
	if !b.Empty() || b.HalfPerimeter() != 0 {
		t.Fatal("zero BBox should be empty")
	}
	b.Extend(Point{1, 1})
	if b.HalfPerimeter() != 0 {
		t.Fatal("single point box has zero half-perimeter")
	}
	b.Extend(Point{4, 5})
	if b.HalfPerimeter() != 7 {
		t.Fatalf("HalfPerimeter = %g, want 7", b.HalfPerimeter())
	}
	r := b.Rect()
	if r != (Rect{1, 1, 4, 5}) {
		t.Fatalf("Rect = %+v", r)
	}
	if !b.OnBoundary(Point{1, 3}, 1e-9) {
		t.Fatal("point on left edge should be on boundary")
	}
	if b.OnBoundary(Point{2.5, 3}, 1e-9) {
		t.Fatal("interior point should not be on boundary")
	}
}

func TestBBoxOrderInvariantProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 50; trial++ {
		pts := make([]Point, 2+rng.Intn(8))
		for i := range pts {
			pts[i] = Point{rng.NormFloat64() * 10, rng.NormFloat64() * 10}
		}
		var fwd, rev BBox
		for _, p := range pts {
			fwd.Extend(p)
		}
		for i := len(pts) - 1; i >= 0; i-- {
			rev.Extend(pts[i])
		}
		if math.Abs(fwd.HalfPerimeter()-rev.HalfPerimeter()) > 1e-12 {
			t.Fatal("BBox depends on insertion order")
		}
	}
}

func TestCheckLayout(t *testing.T) {
	out := Rect{0, 0, 10, 10}
	legal := []Rect{{0, 0, 4, 4}, {4, 0, 8, 4}, {0, 4, 4, 10}}
	if err := CheckLayout(legal, out, 1e-9); err != nil {
		t.Fatal(err)
	}
	overlapping := []Rect{{0, 0, 4, 4}, {3, 3, 6, 6}}
	if CheckLayout(overlapping, out, 1e-9) == nil {
		t.Fatal("expected overlap error")
	}
	escaping := []Rect{{8, 8, 12, 12}}
	if CheckLayout(escaping, out, 1e-9) == nil {
		t.Fatal("expected outline error")
	}
}

func TestStats(t *testing.T) {
	out := Rect{0, 0, 10, 10}
	rects := []Rect{{0, 0, 5, 4}, {5, 0, 10, 4}}
	st := Stats(rects, out)
	if st.Area != 40 || st.Utilized != 0.4 {
		t.Fatalf("stats = %+v", st)
	}
	if st.MaxOverlap != 0 {
		t.Fatalf("MaxOverlap = %g for disjoint rects", st.MaxOverlap)
	}
	if st.BBox != (Rect{0, 0, 10, 4}) {
		t.Fatalf("BBox = %+v", st.BBox)
	}
	over := Stats([]Rect{{0, 0, 4, 4}, {2, 2, 6, 6}}, out)
	if over.MaxOverlap != 4 {
		t.Fatalf("MaxOverlap = %g, want 4", over.MaxOverlap)
	}
}

// TestBuiltinMinMaxMatchesMath pins the builtin min and max, which BBox and
// Rect.Union use, against math.Min and math.Max on the special values. They
// agree bit for bit whenever no argument is NaN (so −0 < +0 and ±Inf order
// as usual). With a NaN argument both return NaN, except in one corner:
// math.Min lets −Inf win over NaN and math.Max lets +Inf win, while the
// builtins return NaN. The NaN payload is not pinned: the builtins may
// return either argument's NaN, with its sign bit changed.
func TestBuiltinMinMaxMatchesMath(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	vals := []float64{math.Copysign(0, -1), 0, -1, 1.5, inf, -inf, nan}
	for _, x := range vals {
		for _, y := range vals {
			hasNaN := math.IsNaN(x) || math.IsNaN(y)
			if got, want := min(x, y), math.Min(x, y); hasNaN {
				if !math.IsNaN(got) {
					t.Errorf("min(%v, %v) = %v, want NaN", x, y, got)
				}
				if wantMath := math.IsInf(x, -1) || math.IsInf(y, -1); wantMath != math.IsInf(want, -1) {
					t.Errorf("math.Min(%v, %v) = %v", x, y, want)
				}
			} else if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("min(%v, %v) = %v (%#x), math.Min = %v (%#x)",
					x, y, got, math.Float64bits(got), want, math.Float64bits(want))
			}
			if got, want := max(x, y), math.Max(x, y); hasNaN {
				if !math.IsNaN(got) {
					t.Errorf("max(%v, %v) = %v, want NaN", x, y, got)
				}
				if wantMath := math.IsInf(x, 1) || math.IsInf(y, 1); wantMath != math.IsInf(want, 1) {
					t.Errorf("math.Max(%v, %v) = %v", x, y, want)
				}
			} else if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("max(%v, %v) = %v (%#x), math.Max = %v (%#x)",
					x, y, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
	// ±0 in the bounding box: −0 is the smaller, +0 the larger.
	var b BBox
	b.Extend(Point{0, math.Copysign(0, -1)})
	b.Extend(Point{math.Copysign(0, -1), 0})
	r := b.Rect()
	if !math.Signbit(r.MinX) || math.Signbit(r.MaxX) || !math.Signbit(r.MinY) || math.Signbit(r.MaxY) {
		t.Errorf("±0 box = %+v, want min −0 and max +0 on both axes", r)
	}
}
