package analytic

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"sdpfloor/internal/geom"
	"sdpfloor/internal/gsrc"
)

// centersDigest hashes every center coordinate bit for bit.
func centersDigest(centers []geom.Point) string {
	h := sha256.New()
	var b [8]byte
	for _, c := range centers {
		for _, v := range []float64{c.X, c.Y} {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestAnalyticGolden pins Solve's output bit for bit — the HPWL bits and a
// digest of the centers — on the builtin n10 and n30 at seed 1, as Place
// runs the analytic baseline. A change to the smoothed wirelength, the
// density penalty or the multiplier ramp that alters a single bit fails
// here.
func TestAnalyticGolden(t *testing.T) {
	cases := []struct {
		design   string
		hpwlBits uint64
		digest   string
	}{
		{"n10", 0x40abe88325b02589, "8f39046e516fadc6"},
		{"n30", 0x40d06a768844659b, "c02a734de0de0c46"},
	}
	for _, c := range cases {
		t.Run(c.design, func(t *testing.T) {
			d, err := gsrc.Builtin(c.design, 1, 0.15)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Solve(d.Netlist, Options{Outline: d.Outline, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			got := centersDigest(res.Centers)
			if math.Float64bits(res.HPWL) != c.hpwlBits || got != c.digest {
				t.Fatalf("got HPWL bits %#x (%g), digest %q; want %#x, %q",
					math.Float64bits(res.HPWL), res.HPWL, got, c.hpwlBits, c.digest)
			}
		})
	}
}
