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

// BenchmarkLSEEval measures one LSEEval.Eval call on the n30, the
// smoothed wirelength and gradient the analytic placer's L-BFGS objective
// evaluates (stride 2), at seeded centers spread over the outline and the
// legalizer's first smoothing width.
func BenchmarkLSEEval(b *testing.B) {
	d, err := gsrc.Builtin("n30", 1, 0.15)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	v := make([]float64, 2*d.Netlist.N())
	for i := 0; i < d.Netlist.N(); i++ {
		v[2*i] = d.Outline.MinX + rng.Float64()*d.Outline.W()
		v[2*i+1] = d.Outline.MinY + rng.Float64()*d.Outline.H()
	}
	g := make([]float64, len(v))
	gamma := 0.02 * (d.Outline.W() + d.Outline.H())
	ev := netlist.NewLSEEval(d.Netlist, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.Eval(v, gamma, g)
	}
}
