package sdp

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sdpfloor/internal/linalg"
)

// floorplanSDP builds a problem with the constraint shape of the floorplan
// sub-problem 1 (internal/core's builder) for n modules: one (n+2)×(n+2)
// PSD block; the three identity-block equalities; nPairs distance
// inequalities D_ij ≥ r over distinct random module pairs; and the 4n
// outline bounds. Every inequality owns one LP slack, so
// m = 3 + nPairs + 4n and LPDim = m − 3.
func floorplanSDP(rng *rand.Rand, n, nPairs int) *Problem {
	dim := n + 2
	cons := []Constraint{
		{PSD: [][]Entry{{{I: 0, J: 0, V: 1}}}, B: 1},
		{PSD: [][]Entry{{{I: 1, J: 1, V: 1}}}, B: 1},
		{PSD: [][]Entry{{{I: 0, J: 1, V: 0.5}}}, B: 0},
	}
	lp := 0
	ineq := func(es []Entry, rhs float64) {
		cons = append(cons, Constraint{PSD: [][]Entry{es}, LP: []LPEntry{{I: lp, V: -1}}, B: rhs})
		lp++
	}
	var pairs [][2]int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			pairs = append(pairs, [2]int{i, j})
		}
	}
	for _, q := range rng.Perm(len(pairs))[:nPairs] {
		i, j := 2+pairs[q][0], 2+pairs[q][1]
		ineq([]Entry{{I: i, J: i, V: 1}, {I: j, J: j, V: 1}, {I: i, J: j, V: -1}}, 1+10*rng.Float64())
	}
	for i := 0; i < n; i++ {
		lo, hi := 10*rng.Float64(), 90+10*rng.Float64()
		ineq([]Entry{{I: 0, J: 2 + i, V: 0.5}}, lo)
		ineq([]Entry{{I: 0, J: 2 + i, V: -0.5}}, -hi)
		ineq([]Entry{{I: 1, J: 2 + i, V: 0.5}}, lo)
		ineq([]Entry{{I: 1, J: 2 + i, V: -0.5}}, -hi)
	}
	c := linalg.NewDense(dim, dim)
	for i := 0; i < dim; i++ {
		for j := i; j < dim; j++ {
			v := rng.NormFloat64()
			c.Set(i, j, v)
			c.Set(j, i, v)
		}
	}
	return &Problem{PSDDims: []int{dim}, LPDim: lp, C: []*linalg.Dense{c}, CLP: make([]float64, lp), Cons: cons}
}

// randSPDBlock returns a seeded, exactly symmetric positive-definite matrix.
func randSPDBlock(rng *rand.Rand, n int) *linalg.Dense {
	r := linalg.NewDense(n, n)
	for i := range r.Data {
		r.Data[i] = rng.NormFloat64()
	}
	a := linalg.MatMul(r.T(), r)
	for i := 0; i < n; i++ {
		a.Add(i, i, 1)
	}
	a.Symmetrize()
	return a
}

func appendBits(b []byte, vs ...float64) []byte {
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// schurGoldenBits and rhsGoldenBits are the sha256 digests pinned by
// TestFormSchurGoldenBits. schurGoldenBits was re-captured when elements of
// two rank-one distance rows began to assemble as products of bilinear
// forms; rhsGoldenBits is unchanged.
const (
	schurGoldenBits = "8df64c929d5f54468403aa0968ab9f0a43413c487b7d6ea9950c9cc9a3505ca1"
	rhsGoldenBits   = "eb7e9258ab1edaf870a423de5b450b51c49664dd3a541d4e6393a4870d75c3f5"
)

// TestFormSchurGoldenBits pins the bits of the Schur complement's lower
// triangle (the part the Cholesky reads) and of the direction right-hand
// side, on a floorplan-shaped problem at a dense mid-solve iterate. Two
// extra inequalities share an LP slack with a distance row (one of them
// also owns a slack), so the off-diagonal LP term of M_kl is exercised too.
func TestFormSchurGoldenBits(t *testing.T) {
	for _, w := range []int{1, 4} {
		t.Run(fmt.Sprintf("w%d", w), func(t *testing.T) {
			rng := rand.New(rand.NewSource(15))
			p := floorplanSDP(rng, 10, 20)
			const shared = 7 // the slack of distance row 3+7
			p.Cons = append(p.Cons,
				Constraint{PSD: [][]Entry{{{I: 2, J: 2, V: 1}, {I: 5, J: 5, V: 1}, {I: 2, J: 5, V: -1}}},
					LP: []LPEntry{{I: shared, V: 0.5}}, B: 2},
				Constraint{PSD: [][]Entry{{{I: 0, J: 4, V: 0.5}}},
					LP: []LPEntry{{I: p.LPDim, V: -1}, {I: shared, V: 2}}, B: 1},
			)
			p.LPDim++
			p.CLP = append(p.CLP, 0)
			if err := p.Validate(); err != nil {
				t.Fatal(err)
			}
			opt := IPMOptions{Workers: w}
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
			for k := range st.y {
				st.y[k] = rng.NormFloat64()
			}
			st.residuals()
			if !st.factorIterates() {
				t.Fatal("iterate not positive definite")
			}

			schur := st.formSchur()
			var b []byte
			for k := 0; k < st.m; k++ {
				b = appendBits(b, schur.Row(k)[:k+1]...)
			}
			sum := sha256.Sum256(b)
			if got := hex.EncodeToString(sum[:]); got != schurGoldenBits {
				t.Errorf("Schur lower triangle sha256 %s, want %s", got, schurGoldenBits)
			}

			// X·Rd·S⁻¹ and the corrector product are not symmetric, so the
			// right-hand side also pins which triangle each entry reads.
			st.prepXrdsinv()
			for i := range st.corrSinv[0].Data {
				st.corrSinv[0].Data[i] = rng.NormFloat64()
			}
			for i := range st.corrLP {
				st.corrLP[i] = rng.NormFloat64()
			}
			b = b[:0]
			for _, useCorr := range []bool{false, true} {
				st.dSigmaMu, st.dUseCorr = 0.37, useCorr
				st.rhsRows(0, st.m)
				b = appendBits(b, st.rhs...)
			}
			sum = sha256.Sum256(b)
			if got := hex.EncodeToString(sum[:]); got != rhsGoldenBits {
				t.Errorf("rhs sha256 %s, want %s", got, rhsGoldenBits)
			}
		})
	}
}
