package sdpfloor

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"
)

// smallNL builds a small instance with pads for end-to-end tests.
func smallNL(t *testing.T) (*Netlist, Rect) {
	t.Helper()
	d, err := LoadBenchmark("n10", 1, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	return d.Netlist, d.Outline
}

func TestPlaceSDPEndToEnd(t *testing.T) {
	nl, out := smallNL(t)
	fp, err := Place(nl, Config{Outline: out})
	if err != nil {
		t.Fatal(err)
	}
	if !fp.Feasible {
		t.Fatalf("SDP+legalize infeasible at 25%% whitespace (HPWL %g)", fp.HPWL)
	}
	if fp.HPWL <= 0 {
		t.Fatal("HPWL must be positive")
	}
	if fp.GlobalResult == nil || !fp.GlobalResult.RankOK {
		t.Fatal("expected rank-2 convergence diagnostics")
	}
	checkLegal(t, nl, out, fp)
}

func TestPlaceAllMethodsProduceLegalResults(t *testing.T) {
	nl, out := smallNL(t)
	for _, m := range Methods {
		fp, err := Place(nl, Config{Outline: out, Method: m, Seed: 3})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if len(fp.Rects) != nl.N() {
			t.Fatalf("%s: %d rects for %d modules", m, len(fp.Rects), nl.N())
		}
		checkLegal(t, nl, out, fp)
		if fp.HPWL <= 0 {
			t.Fatalf("%s: non-positive HPWL", m)
		}
	}
}

// checkLegal verifies overlap-freedom and containment whenever the result
// claims feasibility, and area/aspect always.
func checkLegal(t *testing.T, nl *Netlist, out Rect, fp *Floorplan) {
	t.Helper()
	for i := range fp.Rects {
		if math.Abs(fp.Rects[i].Area()-nl.Modules[i].MinArea) > 1e-5*nl.Modules[i].MinArea {
			t.Fatalf("module %d area %g, want %g", i, fp.Rects[i].Area(), nl.Modules[i].MinArea)
		}
		ar := fp.Rects[i].W() / fp.Rects[i].H()
		k := nl.Modules[i].MaxAspect
		if ar > k*(1+1e-6) || ar < 1/k*(1-1e-6) {
			t.Fatalf("module %d aspect %g outside [1/%g, %g]", i, ar, k, k)
		}
	}
	if !fp.Feasible {
		return
	}
	for i := range fp.Rects {
		if !out.ContainsRect(fp.Rects[i], 1e-6) {
			t.Fatalf("module %d escapes outline", i)
		}
		for j := i + 1; j < len(fp.Rects); j++ {
			if fp.Rects[i].Intersects(fp.Rects[j], 1e-9) {
				t.Fatalf("modules %d and %d overlap", i, j)
			}
		}
	}
}

func TestPlaceSDPBeatsQPOnWirelength(t *testing.T) {
	// The headline claim, in miniature: the SDP method should beat the
	// overlap-heavy QP seed after shared legalization.
	nl, out := smallNL(t)
	sdp, err := Place(nl, Config{Outline: out})
	if err != nil {
		t.Fatal(err)
	}
	qp, err := Place(nl, Config{Outline: out, Method: MethodQP})
	if err != nil {
		t.Fatal(err)
	}
	if sdp.HPWL > qp.HPWL*1.10 {
		t.Fatalf("SDP HPWL %g much worse than QP %g", sdp.HPWL, qp.HPWL)
	}
}

func TestPlaceErrors(t *testing.T) {
	nl, out := smallNL(t)
	if _, err := Place(nil, Config{Outline: out}); err == nil {
		t.Fatal("expected error for nil netlist")
	}
	if _, err := Place(nl, Config{}); err == nil {
		t.Fatal("expected error for missing outline")
	}
	if _, err := Place(nl, Config{Outline: out, Method: "nope"}); err == nil {
		t.Fatal("expected error for unknown method")
	}
}

func TestOutlineFor(t *testing.T) {
	nl, _ := smallNL(t)
	out := OutlineFor(nl, 2, 0.15)
	if math.Abs(out.H()/out.W()-2) > 1e-9 {
		t.Fatalf("aspect = %g", out.H()/out.W())
	}
	want := nl.TotalArea() * 1.15
	if math.Abs(out.Area()-want) > 1e-6*want {
		t.Fatalf("area = %g, want %g", out.Area(), want)
	}
	// Defaults kick in for zero arguments.
	def := OutlineFor(nl, 0, 0)
	if math.Abs(def.H()/def.W()-1) > 1e-9 {
		t.Fatal("default aspect should be 1")
	}
}

func TestLoadBenchmarkUnknown(t *testing.T) {
	if _, err := LoadBenchmark("bogus", 1, 0.15); err == nil {
		t.Fatal("expected error")
	}
}

func TestHPWLWrapper(t *testing.T) {
	nl := &Netlist{
		Modules: []Module{{Name: "a", MinArea: 1, MaxAspect: 1}, {Name: "b", MinArea: 1, MaxAspect: 1}},
		Nets:    []Net{{Name: "n", Weight: 1, Modules: []int{0, 1}}},
	}
	got := HPWL(nl, []Point{{X: 0, Y: 0}, {X: 3, Y: 4}})
	if got != 7 {
		t.Fatalf("HPWL = %g, want 7", got)
	}
}

func TestGlobalFloorplanDirect(t *testing.T) {
	nl, out := smallNL(t)
	res, err := GlobalFloorplan(nl, GlobalOptions{MaxIter: 10, LazyConstraints: true, Outline: &out})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centers) != nl.N() {
		t.Fatal("center count mismatch")
	}
	leg, err := Legalize(nl, res.Centers, out)
	if err != nil {
		t.Fatal(err)
	}
	if leg.HPWL <= 0 {
		t.Fatal("legalized HPWL must be positive")
	}
}

// TestPlaceContextDeadline proves the contract cmd/sdpfloor's -timeout and
// the service rely on: a deadline mid-solve returns promptly with
// context.DeadlineExceeded and a partial Floorplan carrying the
// convex-iteration diagnostics reached so far.
func TestPlaceContextDeadline(t *testing.T) {
	d, err := LoadBenchmark("n50", 1, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	fp, err := PlaceContext(ctx, d.Netlist, Config{Outline: d.Outline})
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	// Prompt: the per-iteration checks must fire well before a full solve
	// (an n50 SDP run takes many seconds; minutes under -race). The bound
	// is loose to absorb the race detector's slowdown of one iteration.
	if elapsed > 10*time.Second {
		t.Fatalf("solve returned after %s, cancellation is not prompt", elapsed)
	}
	if fp == nil || fp.GlobalResult == nil {
		t.Fatalf("no partial result on deadline: %+v", fp)
	}
}

// TestPlaceContextCancelled proves an already-cancelled context aborts
// before any heavy work.
func TestPlaceContextCancelled(t *testing.T) {
	nl, out := smallNL(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := PlaceContext(ctx, nl, Config{Outline: out}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
}
