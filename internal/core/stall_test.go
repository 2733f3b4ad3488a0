package core

import (
	"math"
	"testing"

	"sdpfloor/internal/gsrc"
	"sdpfloor/internal/trace"
)

// Bits of the fixed-α n10 run in TestFixedAlphaIgnoresStall, captured
// before the stall exit existed: a fixed-α run must not change.
const (
	fixedAlphaObjGolden = 0x40f1b9c3edbbea1c
	fixedAlphaWZGolden  = 0x4067b76986e8efde
)

// roundExits returns the "exit" field of every core iter event that carries
// one, with the alphaIter of that event: one entry per finished α round.
func roundExits(evs []trace.Event) (exits, lengths []int) {
	for _, ev := range evs {
		if ev.Solver != "core" || ev.Kind != trace.KindIter {
			continue
		}
		var exit, t float64
		for _, f := range ev.Fields {
			switch f.Key {
			case "exit":
				exit = f.Val
			case "alphaIter":
				t = f.Val
			}
		}
		if exit > 0 {
			exits = append(exits, int(exit))
			lengths = append(lengths, int(t))
		}
	}
	return exits, lengths
}

// TestFixedAlphaIgnoresStall: at α = 16 the n10's ⟨W, Z⟩ stalls within a
// few iterations, and with a larger α allowed the round ends there by the
// stall exit. With AlphaMaxDoublings 1 (fixed α, as in Fig. 4 and
// Fig. 5(a)) the only round is the last allowed one, so it runs all MaxIter
// iterations and keeps the bits it had before the stall exit existed.
// `make identity` runs it.
func TestFixedAlphaIgnoresStall(t *testing.T) {
	d, err := gsrc.Builtin("n10", 1, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	const maxIter = 8
	solve := func(doublings int) (*Result, []int, []int) {
		ring := trace.NewRing(1 << 14)
		opt := Options{Alpha0: 16, AlphaMaxDoublings: doublings, MaxIter: maxIter,
			Outline: &d.Outline, LazyConstraints: true, Trace: ring}.WithAllEnhancements()
		res, err := Solve(d.Netlist, opt)
		if err != nil {
			t.Fatal(err)
		}
		exits, lengths := roundExits(ring.Snapshot())
		return res, exits, lengths
	}

	_, exits, lengths := solve(2)
	if len(exits) == 0 || exits[0] != exitStall || lengths[0] >= maxIter {
		t.Fatalf("escalating run: first round exits %v after %v iterations, want stall before %d", exits, lengths, maxIter)
	}

	res, exits, lengths := solve(1)
	if res.Iterations != maxIter {
		t.Errorf("fixed α ran %d iterations, want all %d", res.Iterations, maxIter)
	}
	if len(exits) != 1 || exits[0] != exitMaxIter || lengths[0] != maxIter {
		t.Errorf("fixed α round exits %v after %v iterations, want one max-iter exit after %d", exits, lengths, maxIter)
	}
	if got := math.Float64bits(res.Objective); got != fixedAlphaObjGolden {
		t.Errorf("objective %v (%#x), want %#x", res.Objective, got, uint64(fixedAlphaObjGolden))
	}
	if got := math.Float64bits(res.WZ); got != fixedAlphaWZGolden {
		t.Errorf("⟨W,Z⟩ %v (%#x), want %#x", res.WZ, got, uint64(fixedAlphaWZGolden))
	}
}
