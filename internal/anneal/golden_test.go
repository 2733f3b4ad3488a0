package anneal

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"sdpfloor/internal/geom"
	"sdpfloor/internal/gsrc"
)

// resultDigest hashes every field of a Result bit for bit: rects, centers,
// HPWL, packing size, feasibility and the accepted-move count.
func resultDigest(r *Result) string {
	h := sha256.New()
	put := func(v float64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for _, rc := range r.Rects {
		put(rc.MinX)
		put(rc.MinY)
		put(rc.MaxX)
		put(rc.MaxY)
	}
	for _, c := range r.Centers {
		put(c.X)
		put(c.Y)
	}
	put(r.HPWL)
	put(r.Width)
	put(r.Height)
	feasible := 0.0
	if r.Feasible {
		feasible = 1
	}
	put(feasible)
	put(float64(r.Moves))
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// scatteredInit is the legalizer's fallback start: pl2sp of a global
// placement, here seeded centers scattered over the outline.
func scatteredInit(n int, out geom.Rect, seed int64) *SeqPair {
	rng := rand.New(rand.NewSource(seed))
	centers := make([]geom.Point, n)
	for i := range centers {
		centers[i] = geom.Point{
			X: out.MinX + rng.Float64()*out.W(),
			Y: out.MinY + rng.Float64()*out.H(),
		}
	}
	sp := FromPlacement(centers)
	return &sp
}

// TestSolveGolden pins the annealer's output bit for bit: HPWL bits,
// accepted moves, and a digest of every Result field, for a random start
// and for the legalizer's pl2sp start at T0Scale 0.15. A change to the
// packer, the cost evaluation or the move loop that alters a single bit or
// one RNG draw fails here.
func TestSolveGolden(t *testing.T) {
	cases := []struct {
		design   string
		init     bool
		hpwlBits uint64
		moves    int
		digest   string
	}{
		{"n10", false, 0x40ab7e1a96e4e559, 9656, "665c384e870654fa"},
		{"n10", true, 0x40ac8ebea85f2691, 7511, "f7ec221c56d460c9"},
		{"n30", false, 0x40d194869c730c67, 29760, "b6106a20b421f266"},
		{"n30", true, 0x40d19f45add87852, 18813, "20b52040fb768342"},
	}
	for _, c := range cases {
		name := c.design + "/random"
		if c.init {
			name = c.design + "/init"
		}
		t.Run(name, func(t *testing.T) {
			if testing.Short() && c.design != "n10" {
				t.Skip("n30 annealing runs take seconds")
			}
			d, err := gsrc.Builtin(c.design, 1, 0.15)
			if err != nil {
				t.Fatal(err)
			}
			opt := Options{Outline: d.Outline, Seed: 1}
			if c.init {
				opt.Seed = 2
				opt.Init = scatteredInit(d.Netlist.N(), d.Outline, 3)
				opt.T0Scale = 0.15
			}
			res, err := Solve(d.Netlist, opt)
			if err != nil {
				t.Fatal(err)
			}
			got := resultDigest(res)
			if math.Float64bits(res.HPWL) != c.hpwlBits || res.Moves != c.moves || got != c.digest {
				t.Fatalf("got HPWL bits %#x (%g), moves %d, digest %q; want %#x, %d, %q",
					math.Float64bits(res.HPWL), res.HPWL, res.Moves, got, c.hpwlBits, c.moves, c.digest)
			}
		})
	}
}

// TestSolveBTreeGolden pins the B*-tree annealer the same way on n10.
func TestSolveBTreeGolden(t *testing.T) {
	d, err := gsrc.Builtin("n10", 1, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SolveBTree(d.Netlist, Options{Outline: d.Outline, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	const hpwlBits, moves, digest = 0x40aa60678992bb9d, 10831, "524ebfb79ec32b0f"
	got := resultDigest(res)
	if math.Float64bits(res.HPWL) != hpwlBits || res.Moves != moves || got != digest {
		t.Fatalf("got HPWL bits %#x (%g), moves %d, digest %q; want %#x, %d, %q",
			math.Float64bits(res.HPWL), res.HPWL, res.Moves, got, uint64(hpwlBits), moves, digest)
	}
}
