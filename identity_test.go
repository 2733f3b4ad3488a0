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
// bits of its HPWL; see TestPlaceTraceGolden.
const (
	placeTraceGolden = "26703c7b39a1a7d98816719336625199edf37f5244dc6f88abee3e3afc318e87"
	placeHPWLGolden  = 0x40aa79153ea629fd
)

// TestPlaceTraceGolden pins the full SDP pipeline on n10 — every convex
// iteration, every IPM iterate's telemetry, the legalizer's L-BFGS rounds,
// and the final HPWL — to exact bits. A kernel rewrite that reorders a
// single floating-point operation fails here by name instead of surfacing
// as HPWL drift in the end-to-end benchmark. `make identity` runs it.
func TestPlaceTraceGolden(t *testing.T) {
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
	h := sha256.New()
	var line []byte
	evs := ring.Snapshot()
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
