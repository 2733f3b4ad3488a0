package netlist_test

import (
	"math/rand"
	"testing"

	"sdpfloor/internal/geom"
	"sdpfloor/internal/gsrc"
	"sdpfloor/internal/netlist"
)

// BenchmarkHPWLEval measures one HPWLEval.HPWL call on the n30, whose
// evaluation the annealer runs once per move, at seeded centers spread
// over the outline.
func BenchmarkHPWLEval(b *testing.B) {
	d, err := gsrc.Builtin("n30", 1, 0.15)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	centers := make([]geom.Point, d.Netlist.N())
	for i := range centers {
		centers[i] = geom.Point{
			X: d.Outline.MinX + rng.Float64()*d.Outline.W(),
			Y: d.Outline.MinY + rng.Float64()*d.Outline.H(),
		}
	}
	ev := netlist.NewHPWLEval(d.Netlist)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.HPWL(centers)
	}
}
