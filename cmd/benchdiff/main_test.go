package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleBenchOutput = `goos: linux
goarch: amd64
pkg: sdpfloor/internal/linalg
BenchmarkMatMul/n64/w1-8         	   10000	    119097 ns/op	       0 B/op	       0 allocs/op
BenchmarkMatMul/n64/w4-8         	   12000	     99097 ns/op	     144 B/op	       3 allocs/op
BenchmarkFormSchur/n100/w1-8     	     200	   6292404 ns/op	   32840 B/op	       3 allocs/op
BenchmarkSymEig/n128/w1         	     100	  10292404 ns/op
PASS
ok  	sdpfloor/internal/linalg	12.3s
`

func TestParseBench(t *testing.T) {
	snap, err := parseBench(strings.NewReader(sampleBenchOutput))
	if err != nil {
		t.Fatal(err)
	}
	if snap.GOOS != "linux" || snap.GOARCH != "amd64" {
		t.Fatalf("goos/goarch not picked up: %q/%q", snap.GOOS, snap.GOARCH)
	}
	if len(snap.Benchmarks) != 4 {
		t.Fatalf("want 4 benchmarks, got %d: %v", len(snap.Benchmarks), snap.Benchmarks)
	}
	// GOMAXPROCS suffix must be stripped.
	r, ok := snap.Benchmarks["BenchmarkMatMul/n64/w1"]
	if !ok {
		t.Fatalf("BenchmarkMatMul/n64/w1 missing (suffix not stripped?): %v", snap.Benchmarks)
	}
	if r.NsPerOp != 119097 || r.Iterations != 10000 || r.BytesPerOp != 0 || r.AllocsPerOp != 0 {
		t.Fatalf("unexpected result: %+v", r)
	}
	if r := snap.Benchmarks["BenchmarkFormSchur/n100/w1"]; r.BytesPerOp != 32840 || r.AllocsPerOp != 3 {
		t.Fatalf("benchmem columns not parsed: %+v", r)
	}
	// Line without -benchmem columns still parses.
	if r := snap.Benchmarks["BenchmarkSymEig/n128/w1"]; r.NsPerOp != 10292404 {
		t.Fatalf("no-benchmem line not parsed: %+v", r)
	}
}

func TestParseBenchKeepsMinimum(t *testing.T) {
	// Each column keeps its own minimum: the fastest run (1500 ns/op)
	// carries a stray allocation, so its allocs/op and B/op must not be
	// the ones kept.
	out := `BenchmarkX-4   100   2000 ns/op   256 B/op   3 allocs/op
BenchmarkX-4   100   1500 ns/op   352 B/op   4 allocs/op
BenchmarkX-4   100   1800 ns/op   288 B/op   3 allocs/op
BenchmarkY-4   1   900 ns/op   96 B/op   1 allocs/op
BenchmarkY-4   1   950 ns/op   0 B/op   0 allocs/op
`
	snap, err := parseBench(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if r := snap.Benchmarks["BenchmarkX"]; r.NsPerOp != 1500 || r.AllocsPerOp != 3 || r.BytesPerOp != 256 {
		t.Fatalf("BenchmarkX: want per-column minima 1500 ns/op, 256 B/op, 3 allocs/op across -count runs, got %+v", r)
	}
	if r := snap.Benchmarks["BenchmarkY"]; r.NsPerOp != 900 || r.AllocsPerOp != 0 || r.BytesPerOp != 0 {
		t.Fatalf("BenchmarkY: want per-column minima 900 ns/op, 0 B/op, 0 allocs/op, got %+v", r)
	}
}

func TestParseBenchEmpty(t *testing.T) {
	if _, err := parseBench(strings.NewReader("PASS\nok\n")); err == nil {
		t.Fatal("expected error for input with no benchmark lines")
	}
}

func snapOf(m map[string]Result) *Snapshot {
	return &Snapshot{GOOS: "linux", GOARCH: "amd64", Benchmarks: m}
}

func TestCompareSnapshots(t *testing.T) {
	base := snapOf(map[string]Result{
		"BenchmarkA":    {NsPerOp: 1000},
		"BenchmarkB":    {NsPerOp: 1000},
		"BenchmarkC":    {NsPerOp: 1000},
		"BenchmarkGone": {NsPerOp: 50},
	})
	cur := snapOf(map[string]Result{
		"BenchmarkA":   {NsPerOp: 1200}, // +20%: inside 25% tolerance
		"BenchmarkB":   {NsPerOp: 1300}, // +30%: regression
		"BenchmarkC":   {NsPerOp: 600},  // -40%: improvement
		"BenchmarkNew": {NsPerOp: 10},
	})
	entries, onlyBase, onlyCur := compareSnapshots(base, cur, 0.25)
	if len(entries) != 3 {
		t.Fatalf("want 3 paired entries, got %d", len(entries))
	}
	byName := map[string]diffEntry{}
	for _, e := range entries {
		byName[e.Name] = e
	}
	if byName["BenchmarkA"].Regression {
		t.Fatal("+20% flagged as regression at 25% tolerance")
	}
	if !byName["BenchmarkB"].Regression {
		t.Fatal("+30% not flagged as regression at 25% tolerance")
	}
	if byName["BenchmarkC"].Regression {
		t.Fatal("improvement flagged as regression")
	}
	if len(onlyBase) != 1 || onlyBase[0] != "BenchmarkGone" {
		t.Fatalf("onlyBase = %v", onlyBase)
	}
	if len(onlyCur) != 1 || onlyCur[0] != "BenchmarkNew" {
		t.Fatalf("onlyCur = %v", onlyCur)
	}
}

func TestCompareSnapshotsTolerance(t *testing.T) {
	base := snapOf(map[string]Result{"BenchmarkA": {NsPerOp: 1000}})
	cur := snapOf(map[string]Result{"BenchmarkA": {NsPerOp: 1200}})
	entries, _, _ := compareSnapshots(base, cur, 0.10)
	if !entries[0].Regression {
		t.Fatal("+20% must regress at 10% tolerance")
	}
	entries, _, _ = compareSnapshots(base, cur, 0.25)
	if entries[0].Regression {
		t.Fatal("+20% must pass at 25% tolerance")
	}
}

// TestCompareAllocGate pins the -gate allocs contract: any allocs/op or B/op
// growth fails with no tolerance, ns/op changes are ignored entirely, and the
// usual baselineError/warn-only semantics carry over unchanged.
func TestCompareAllocGate(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", `{"goos":"linux","goarch":"amd64","benchmarks":{
		"BenchmarkA":{"iterations":1,"ns_per_op":100,"bytes_per_op":64,"allocs_per_op":2},
		"BenchmarkB":{"iterations":1,"ns_per_op":100}}}`)

	// Much slower but allocation-identical: the alloc gate must pass.
	slowSame := write("slow.json", `{"goos":"linux","goarch":"amd64","benchmarks":{
		"BenchmarkA":{"iterations":1,"ns_per_op":900,"bytes_per_op":64,"allocs_per_op":2},
		"BenchmarkB":{"iterations":1,"ns_per_op":900}}}`)
	if err := cmdCompare([]string{"-gate", "allocs", "-baseline", base, "-current", slowSame}); err != nil {
		t.Fatalf("alloc gate failed on a timing-only change: %v", err)
	}

	// One extra alloc/op, even faster: hard failure, plain error (exit 1).
	oneMore := write("onemore.json", `{"goos":"linux","goarch":"amd64","benchmarks":{
		"BenchmarkA":{"iterations":1,"ns_per_op":50,"bytes_per_op":64,"allocs_per_op":3},
		"BenchmarkB":{"iterations":1,"ns_per_op":50}}}`)
	err := cmdCompare([]string{"-gate", "allocs", "-baseline", base, "-current", oneMore})
	var be *baselineError
	if err == nil || errors.As(err, &be) {
		t.Fatalf("allocs/op growth: err = %v, want plain regression error", err)
	}
	if !strings.Contains(err.Error(), "allocs/op") {
		t.Fatalf("alloc regression error text: %v", err)
	}

	// Bytes growth alone (same alloc count) also fails.
	moreBytes := write("morebytes.json", `{"goos":"linux","goarch":"amd64","benchmarks":{
		"BenchmarkA":{"iterations":1,"ns_per_op":100,"bytes_per_op":128,"allocs_per_op":2},
		"BenchmarkB":{"iterations":1,"ns_per_op":100}}}`)
	if err := cmdCompare([]string{"-gate", "allocs", "-baseline", base, "-current", moreBytes}); err == nil {
		t.Fatal("B/op growth passed the alloc gate")
	}

	// -warn-only downgrades the failure to exit 0, as with the timing gate.
	if err := cmdCompare([]string{"-gate", "allocs", "-warn-only", "-baseline", base, "-current", oneMore}); err != nil {
		t.Fatalf("-warn-only alloc gate: %v", err)
	}

	// Fewer allocations must pass (improvements never fail the gate).
	fewer := write("fewer.json", `{"goos":"linux","goarch":"amd64","benchmarks":{
		"BenchmarkA":{"iterations":1,"ns_per_op":100,"bytes_per_op":0,"allocs_per_op":0},
		"BenchmarkB":{"iterations":1,"ns_per_op":100}}}`)
	if err := cmdCompare([]string{"-gate", "allocs", "-baseline", base, "-current", fewer}); err != nil {
		t.Fatalf("alloc improvement failed the gate: %v", err)
	}

	// Missing baseline keeps the exit-3 classification under -gate allocs.
	err = cmdCompare([]string{"-gate", "allocs", "-baseline", filepath.Join(dir, "nope.json"), "-current", slowSame})
	if err == nil || !errors.As(err, &be) {
		t.Fatalf("missing baseline under -gate allocs: err = %v, want *baselineError", err)
	}

	// An unknown gate name is rejected up front.
	if err := cmdCompare([]string{"-gate", "nonsense", "-baseline", base, "-current", slowSame}); err == nil {
		t.Fatal("unknown -gate value accepted")
	}
}

// TestCompareBaselineErrors pins the exit-status contract: a missing or
// unparsable baseline is a *baselineError (exit 3 in main), never conflated
// with a regression or an ordinary failure (exit 1).
func TestCompareBaselineErrors(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	goodCur := write("cur.json", `{"goos":"linux","goarch":"amd64","benchmarks":{"BenchmarkA":{"iterations":1,"ns_per_op":100}}}`)

	var be *baselineError

	err := cmdCompare([]string{"-baseline", filepath.Join(dir, "nope.json"), "-current", goodCur})
	if err == nil || !errors.As(err, &be) {
		t.Fatalf("missing baseline: err = %v, want *baselineError", err)
	}

	badBase := write("bad.json", `{not json`)
	err = cmdCompare([]string{"-baseline", badBase, "-current", goodCur})
	if err == nil || !errors.As(err, &be) {
		t.Fatalf("unparsable baseline: err = %v, want *baselineError", err)
	}

	noBench := write("nobench.json", `{"goos":"linux"}`)
	err = cmdCompare([]string{"-baseline", noBench, "-current", goodCur})
	if err == nil || !errors.As(err, &be) {
		t.Fatalf("baseline without benchmarks field: err = %v, want *baselineError", err)
	}

	// A broken *current* snapshot is the ordinary failure path, not a
	// baseline problem.
	goodBase := write("base.json", `{"goos":"linux","goarch":"amd64","benchmarks":{"BenchmarkA":{"iterations":1,"ns_per_op":100}}}`)
	err = cmdCompare([]string{"-baseline", goodBase, "-current", filepath.Join(dir, "nope.json")})
	if err == nil || errors.As(err, &be) {
		t.Fatalf("missing current: err = %v, want plain error", err)
	}

	// A genuine regression is also a plain error.
	slowCur := write("slow.json", `{"goos":"linux","goarch":"amd64","benchmarks":{"BenchmarkA":{"iterations":1,"ns_per_op":200}}}`)
	err = cmdCompare([]string{"-baseline", goodBase, "-current", slowCur})
	if err == nil || errors.As(err, &be) {
		t.Fatalf("regression: err = %v, want plain regression error", err)
	}
	if !strings.Contains(err.Error(), "regressed") {
		t.Fatalf("regression error text: %v", err)
	}
}
