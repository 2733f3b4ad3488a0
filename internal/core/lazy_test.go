package core

import (
	"testing"

	"sdpfloor/internal/gsrc"
	"sdpfloor/internal/trace"
)

// iterField returns field key of every core iter event, in order.
func iterField(evs []trace.Event, key string) []int {
	var out []int
	for _, ev := range evs {
		if ev.Solver != "core" || ev.Kind != trace.KindIter {
			continue
		}
		for _, f := range ev.Fields {
			if f.Key == key {
				out = append(out, int(f.Val))
			}
		}
	}
	return out
}

// solveN10Traced runs the builtin n10 with its outline and returns the
// result, the outline-row count of every convex iteration, and 4n.
func solveN10Traced(t *testing.T, opt Options) (*Result, []int, *builder) {
	t.Helper()
	d, err := gsrc.Builtin("n10", 1, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	ring := trace.NewRing(1 << 15)
	opt.Outline, opt.Trace, opt.Workers = &d.Outline, ring, 1
	res, err := Solve(d.Netlist, opt.WithAllEnhancements())
	if err != nil {
		t.Fatal(err)
	}
	bounds := iterField(ring.Snapshot(), "bounds")
	if len(bounds) != res.Iterations {
		t.Fatalf("%d bounds fields for %d convex iterations", len(bounds), res.Iterations)
	}
	opt.setDefaults()
	return res, bounds, newBuilder(d.Netlist, &opt)
}

// TestLazyOutlineRows: a lazy n10 run starts with all 4n outline rows,
// drops some of them, and still ends with every outline bound satisfied at
// the returned Z within the violation scan's tolerance.
func TestLazyOutlineRows(t *testing.T) {
	res, bounds, bld := solveN10Traced(t, Options{LazyConstraints: true})
	all := bld.allBounds()
	if bounds[0] != len(all) {
		t.Errorf("first convex iteration carries %d outline rows, want all %d", bounds[0], len(all))
	}
	if last := bounds[len(bounds)-1]; last >= len(all) {
		t.Errorf("final working set carries %d outline rows, want fewer than %d", last, len(all))
	}
	t.Logf("outline rows per convex iteration: %v", bounds)
	for _, bd := range all {
		if s := bld.boundSlack(res.Z, bd); s < -boundViolated*bld.boundExtent(bd) {
			t.Errorf("module %d side %d violated at the returned Z: slack %g", bd.i, bd.side, s)
		}
	}
}

// TestOutlineRowsStayWithoutLazy: with LazyConstraints off every outline
// row stays in every solve.
func TestOutlineRowsStayWithoutLazy(t *testing.T) {
	_, bounds, bld := solveN10Traced(t, Options{MaxIter: 6})
	for it, nb := range bounds {
		if nb != len(bld.allBounds()) {
			t.Fatalf("convex iteration %d carries %d outline rows, want %d", it+1, nb, len(bld.allBounds()))
		}
	}
}

// TestADMMKeepsOutlineRows: ADMM sub-solves stop at their iteration cap, so
// they are never judged and no outline row leaves the working set. The
// same settings under the IPM do drop rows, so the check is not vacuous.
func TestADMMKeepsOutlineRows(t *testing.T) {
	opt := Options{LazyConstraints: true, Alpha0: 16, AlphaMaxDoublings: 1, MaxIter: 5}
	_, ipmBounds, bld := solveN10Traced(t, opt)
	all := len(bld.allBounds())
	if ipmBounds[len(ipmBounds)-1] >= all {
		t.Fatalf("IPM run kept all %d outline rows: %v", all, ipmBounds)
	}
	opt.Solver = SolverADMM
	_, bounds, _ := solveN10Traced(t, opt)
	for it, nb := range bounds {
		if nb != all {
			t.Fatalf("ADMM convex iteration %d carries %d outline rows, want all %d", it+1, nb, all)
		}
	}
}
