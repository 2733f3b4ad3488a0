package legalize

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sdpfloor/internal/geom"
	"sdpfloor/internal/gsrc"
)

// rectsDigest hashes every rectangle coordinate bit for bit.
func rectsDigest(rects []geom.Rect) string {
	h := sha256.New()
	var b [8]byte
	for _, r := range rects {
		for _, v := range []float64{r.MinX, r.MinY, r.MaxX, r.MaxY} {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestLegalizeGolden pins Legalize's output bit for bit — the HPWL bits,
// feasibility and a digest of the rectangles — on the builtin n10 and n30
// from seeded scattered global centers, once through the constraint-graph
// pipeline alone and once with the sequence-pair fallback allowed (the n30
// takes it; the n10 fits without it). A change
// to the smooth objective, the shape repair, compaction or the fallback
// that alters a single bit fails here.
func TestLegalizeGolden(t *testing.T) {
	cases := []struct {
		design   string
		noSA     bool
		hpwlBits uint64
		feasible bool
		digest   string
	}{
		{"n10", true, 0x40afe682c253dccd, true, "1638a52b8ef088fb"},
		{"n10", false, 0x40afe682c253dccd, true, "1638a52b8ef088fb"},
		{"n30", true, 0x40d6cb542121c8e2, false, "c471d60652ca503f"},
		{"n30", false, 0x40d217af813c03ca, true, "16dd10d9c0850297"},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%s/noSA=%v", c.design, c.noSA), func(t *testing.T) {
			if testing.Short() && c.design != "n10" && !c.noSA {
				t.Skip("the n30 annealing fallback takes seconds")
			}
			d, err := gsrc.Builtin(c.design, 1, 0.15)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(7))
			centers := make([]geom.Point, d.Netlist.N())
			for i := range centers {
				centers[i] = geom.Point{
					X: d.Outline.MinX + rng.Float64()*d.Outline.W(),
					Y: d.Outline.MinY + rng.Float64()*d.Outline.H(),
				}
			}
			res, err := Legalize(d.Netlist, centers, Options{
				Outline: d.Outline, Seed: 1, DisableSAFallback: c.noSA,
			})
			if err != nil {
				t.Fatal(err)
			}
			got := rectsDigest(res.Rects)
			if math.Float64bits(res.HPWL) != c.hpwlBits || res.Feasible != c.feasible || got != c.digest {
				t.Fatalf("got HPWL bits %#x (%g), feasible %v, digest %q; want %#x, %v, %q",
					math.Float64bits(res.HPWL), res.HPWL, res.Feasible, got, c.hpwlBits, c.feasible, c.digest)
			}
		})
	}
}
