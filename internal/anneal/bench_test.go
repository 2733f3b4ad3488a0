package anneal

import (
	"math/rand"
	"testing"

	"sdpfloor/internal/gsrc"
)

// BenchmarkSAMove measures one annealing move on the n30: propose a move,
// evaluate the cost, then accept it or take it back by the Metropolis rule.
// The move loop allocates nothing; the alloc gate holds it at 0 allocs/op.
func BenchmarkSAMove(b *testing.B) {
	d, err := gsrc.Builtin("n30", 1, 0.15)
	if err != nil {
		b.Fatal(err)
	}
	opt := Options{Outline: d.Outline, Seed: 1}
	opt.setDefaults(d.Netlist.N())
	rng := rand.New(rand.NewSource(opt.Seed))
	st := newSAState(d.Netlist, &opt, rng)
	st.cur = st.cost()
	st.bestCost = st.cur
	st.best = st.snapshot()
	temp := st.calibrateTemperature(st.cur, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.step(rng, temp)
	}
}
