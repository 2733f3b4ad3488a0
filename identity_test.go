package sdpfloor

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"

	"sdpfloor/internal/trace"
)

// placeTraceGolden is the sha256 of the n10 MethodSDP trace (every event's
// JSONL with the timestamp zeroed, one per line) and placeHPWLGolden the
// bits of its HPWL; see TestPlaceTraceGolden. Last re-captured when the
// outline rows joined the lazy working set (with the core iter event's
// "bounds" field), distance rows began to assemble as rank-one products,
// and the legalizer's fallback began to trace its "sa" events
// (EXPERIMENTS.md, "Outline rows in the working set").
const (
	placeTraceGolden = "2132d899e198aa51fd68649c8ed25e522e07b3287e319a21c4ae2acc11b82c22"
	placeHPWLGolden  = 0x40aaa94e50d1b85a
)

// TestPlaceTraceGolden pins the full SDP pipeline on n10 — every convex
// iteration, every IPM iterate's telemetry, the legalizer's L-BFGS rounds,
// and the final HPWL — to exact bits. A kernel rewrite that reorders a
// single floating-point operation fails here by name instead of surfacing
// as HPWL drift in the end-to-end benchmark. `make identity` runs it.
func TestPlaceTraceGolden(t *testing.T) {
	fp, evs := placeN10Traced(t)
	h := sha256.New()
	var line []byte
	for _, ev := range evs {
		ev.TS = 0
		line = append(trace.AppendJSON(line[:0], ev), '\n')
		h.Write(line)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != placeTraceGolden {
		t.Errorf("trace sha256 %s over %d events, want %s", got, len(evs), placeTraceGolden)
	}
	if got := math.Float64bits(fp.HPWL); got != placeHPWLGolden {
		t.Errorf("HPWL %v (%#x), want %#x", fp.HPWL, got, uint64(placeHPWLGolden))
	}
}

// placeN10Traced runs the n10 MethodSDP Place with every event recorded.
func placeN10Traced(t *testing.T) (*Floorplan, []trace.Event) {
	t.Helper()
	d, err := LoadBenchmark("n10", 1, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	ring := trace.NewRing(1 << 16)
	fp, err := Place(d.Netlist, Config{Outline: d.Outline, Method: MethodSDP, Trace: ring})
	if err != nil {
		t.Fatal(err)
	}
	if n := ring.Dropped(); n > 0 {
		t.Fatalf("trace ring dropped %d events; enlarge it", n)
	}
	return fp, ring.Snapshot()
}

// TestPlaceN10LeavesStalledRounds reads the α rounds of the n10 Place from
// the "exit" field of the core iter event that ends each round (1 rank,
// 2 converged, 3 stall, 4 MaxIter cap). Before the stall exit, the α = 256
// round ran all 20 iterations with ⟨W,Z⟩/tr Z just above the rank
// threshold and rank 2 came only at α = 512. Now every round before it
// stops by the stall exit, no round hits the cap, and the α = 256 round
// itself reaches rank 2.
func TestPlaceN10LeavesStalledRounds(t *testing.T) {
	_, evs := placeN10Traced(t)
	type round struct {
		alpha       float64
		iters, exit int
	}
	var rounds []round
	rankOK := false
	for _, ev := range evs {
		if ev.Solver != "core" {
			continue
		}
		f := map[string]float64{}
		for _, kv := range ev.Fields {
			f[kv.Key] = kv.Val
		}
		switch ev.Kind {
		case trace.KindIter:
			if e := f["exit"]; e > 0 {
				rounds = append(rounds, round{f["alpha"], int(f["alphaIter"]), int(e)})
			}
		case trace.KindFinal:
			rankOK = f["rankOK"] > 0
		}
	}
	if len(rounds) < 2 {
		t.Fatalf("rounds %+v: want at least two", rounds)
	}
	for i, r := range rounds {
		last := i == len(rounds)-1
		switch {
		case r.iters >= 20:
			t.Errorf("round %d %+v ran to the MaxIter cap", i+1, r)
		case !last && r.exit != 3:
			t.Errorf("round %d %+v: want the stall exit (3)", i+1, r)
		case last && (r.exit != 1 || r.alpha > 256):
			t.Errorf("last round %+v: want the rank exit (1) by α = 256", r)
		}
	}
	if !rankOK {
		t.Error("core final: rank 2 not reached")
	}
}
