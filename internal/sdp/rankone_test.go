package sdp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sdpfloor/internal/linalg"
)

// TestAsRankOne: the recognizer accepts c·d dᵀ with d = e_a − e_b in any
// entry order and orientation, and nothing else.
func TestAsRankOne(t *testing.T) {
	dims := []int{6, 4}
	yes := []Constraint{
		{PSD: [][]Entry{{{I: 2, J: 2, V: 1}, {I: 4, J: 4, V: 1}, {I: 2, J: 4, V: -1}}}},
		{PSD: [][]Entry{{{I: 4, J: 2, V: 0.5}, {I: 4, J: 4, V: -0.5}, {I: 2, J: 2, V: -0.5}}}},
		{PSD: [][]Entry{nil, {{I: 3, J: 3, V: 2}, {I: 1, J: 3, V: -2}, {I: 1, J: 1, V: 2}}}, LP: []LPEntry{{I: 0, V: -1}}},
	}
	for k, c := range yes {
		r := asRankOne(&c, dims)
		if r.blk < 0 {
			t.Errorf("constraint %d not recognized", k)
			continue
		}
		// Rebuild c·d dᵀ from the descriptor and compare with the entries.
		n := dims[r.blk]
		want := linalg.NewDense(n, n)
		for _, e := range c.PSD[r.blk] {
			want.Add(e.I, e.J, e.V)
			if e.I != e.J {
				want.Add(e.J, e.I, e.V)
			}
		}
		got := linalg.NewDense(n, n)
		got.Set(r.a, r.a, r.c)
		got.Set(r.b, r.b, r.c)
		got.Set(r.a, r.b, -r.c)
		got.Set(r.b, r.a, -r.c)
		for i := range got.Data {
			if got.Data[i] != want.Data[i] {
				t.Errorf("constraint %d: descriptor %+v does not rebuild its matrix", k, r)
				break
			}
		}
		if r.an != r.a*n || r.bn != r.b*n {
			t.Errorf("constraint %d: offsets %d, %d for a=%d, b=%d, n=%d", k, r.an, r.bn, r.a, r.b, n)
		}
	}
	no := []Constraint{
		{PSD: [][]Entry{{{I: 0, J: 0, V: 1}}}},                                                                // e eᵀ, not a difference
		{PSD: [][]Entry{{{I: 0, J: 2, V: 0.5}}}},                                                              // outline row
		{PSD: [][]Entry{{{I: 2, J: 2, V: 1}, {I: 4, J: 4, V: 1}, {I: 2, J: 4, V: 1}}}},                        // d = e_a + e_b
		{PSD: [][]Entry{{{I: 2, J: 2, V: 1}, {I: 4, J: 4, V: 2}, {I: 2, J: 4, V: -1}}}},                       // unequal diagonal
		{PSD: [][]Entry{{{I: 2, J: 2, V: 1}, {I: 3, J: 3, V: 1}, {I: 2, J: 4, V: -1}}}},                       // diagonal off the pair
		{PSD: [][]Entry{{{I: 2, J: 2, V: 1}, {I: 2, J: 2, V: 1}, {I: 2, J: 4, V: -1}}}},                       // repeated diagonal
		{PSD: [][]Entry{{{I: 2, J: 2, V: 1}, {I: 4, J: 4, V: 1}, {I: 2, J: 4, V: -1}}, {{I: 0, J: 0, V: 1}}}}, // two blocks
		{PSD: [][]Entry{{{I: 2, J: 2, V: 0}, {I: 4, J: 4, V: 0}, {I: 2, J: 4, V: 0}}}},                        // zero
	}
	for k, c := range no {
		if r := asRankOne(&c, dims); r.blk >= 0 {
			t.Errorf("constraint %d recognized as %+v", k, r)
		}
	}
}

// TestSchurRankOneMatchesEntryPairs: on floorplan-shaped problems with
// equilibrated rows, every Schur element of two rank-one distance rows
// agrees with the entry-pair sum to 1e-13 relative, and every other element
// is the entry-pair sum bit for bit. The reference is the same assembly
// with the rank-one descriptors cleared. Relative means against
// max(|M_kl|, √(M_kk·M_ll)), the Cauchy–Schwarz bound of a PSD matrix: an
// element near zero is a cancellation of terms of that size.
func TestSchurRankOneMatchesEntryPairs(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			n := 6 + rng.Intn(10)
			p := equilibrate(floorplanSDP(rng, n, n*(n-1)/4)).p
			opt := IPMOptions{Workers: 1 + rng.Intn(3)}
			opt.setDefaults()
			st := newIPMState(p, opt, nil)
			defer st.release()
			dim := p.PSDDims[0]
			st.x[0] = randSPDBlock(rng, dim)
			st.s[0] = randSPDBlock(rng, dim)
			for i := range st.xlp {
				st.xlp[i] = 0.1 + rng.Float64()
				st.slp[i] = 0.1 + rng.Float64()
			}
			if !st.factorIterates() {
				t.Fatal("iterate not positive definite")
			}
			got := st.formSchur().Clone()

			ref := *st.lay
			ref.r1 = make([]rankOne, st.m)
			for k := range ref.r1 {
				ref.r1[k].blk = -1
			}
			st.lay = &ref
			want := st.formSchur()

			r1 := newConLayout(p).r1
			ones, worst := 0, 0.0
			for k := 0; k < st.m; k++ {
				for l := 0; l <= k; l++ {
					g, w := got.At(k, l), want.At(k, l)
					if r1[k].blk < 0 || r1[l].blk < 0 {
						if math.Float64bits(g) != math.Float64bits(w) {
							t.Fatalf("M[%d,%d] = %v, entry-pair sum %v: not bit-identical", k, l, g, w)
						}
						continue
					}
					ones++
					scale := math.Max(math.Abs(w), math.Sqrt(want.At(k, k)*want.At(l, l)))
					if rel := math.Abs(g-w) / scale; rel > worst {
						worst = rel
					}
				}
			}
			if ones == 0 {
				t.Fatal("no rank-one element")
			}
			if worst > 1e-13 {
				t.Errorf("rank-one elements differ from the entry-pair sum by %.3g relative, want ≤ 1e-13", worst)
			}
			t.Logf("m=%d, %d rank-one elements, worst relative difference %.3g", st.m, ones, worst)
		})
	}
}
