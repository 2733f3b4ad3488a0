package main

import (
	"regexp"
	"strings"
	"testing"

	"sdpfloor/internal/trace"
)

// syntheticTrace renders a two-solver trace with fixed timestamps: one core
// run wrapping two IPM runs, cancellation on the second.
func syntheticTrace(t *testing.T) string {
	t.Helper()
	evs := []trace.Event{
		{TS: 0, Solver: "core", Kind: "start", Fields: []trace.Field{{Key: "n", Val: 10}}},
		{TS: 10, Solver: "ipm", Kind: "start", Fields: []trace.Field{{Key: "m", Val: 55}}},
		{TS: 1e6, Solver: "ipm", Kind: "iter", Iter: 0, Fields: []trace.Field{{Key: "mu", Val: 1.5}, {Key: "relP", Val: 0.1}}},
		{TS: 2e6, Solver: "ipm", Kind: "iter", Iter: 1, Fields: []trace.Field{{Key: "mu", Val: 0.2}, {Key: "relP", Val: 0.01}}},
		{TS: 3e6, Solver: "ipm", Kind: "final", Iter: 2, Status: "optimal", Fields: []trace.Field{{Key: "relP", Val: 1e-9}}},
		{TS: 4e6, Solver: "core", Kind: "iter", Iter: 0, Fields: []trace.Field{{Key: "alpha", Val: 0.5}, {Key: "wz", Val: 3.5}}},
		{TS: 5e6, Solver: "ipm", Kind: "start", Fields: []trace.Field{{Key: "m", Val: 55}}},
		{TS: 6e6, Solver: "ipm", Kind: "iter", Iter: 0, Fields: []trace.Field{{Key: "mu", Val: 1.1}}},
		{TS: 7e6, Solver: "ipm", Kind: "final", Iter: 1, Status: "cancelled", Fields: nil},
		{TS: 8e6, Solver: "core", Kind: "final", Iter: 1, Status: "cancelled", Fields: []trace.Field{{Key: "wz", Val: 3.5}}},
	}
	var b []byte
	for _, ev := range evs {
		b = trace.AppendJSON(b, ev)
		b = append(b, '\n')
	}
	return string(b)
}

func TestRunSummarizesPerSolver(t *testing.T) {
	var out strings.Builder
	if err := run(strings.NewReader(syntheticTrace(t)), &out, "", 0); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"10 events",
		"core", "ipm",
		"optimal:1 cancelled:1", // two ipm runs, statuses in order
		"cancelled:1",           // the core run
		"ipm, last run: 1 iterations, cancelled",
		"core, last run: 1 iterations, cancelled",
		"alpha", "wz", "mu", // convergence-table columns
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunSolverFilter(t *testing.T) {
	var out strings.Builder
	if err := run(strings.NewReader(syntheticTrace(t)), &out, "core", 0); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if strings.Contains(got, "ipm") {
		t.Errorf("-solver core output mentions ipm:\n%s", got)
	}
	if !strings.Contains(got, "core") {
		t.Errorf("-solver core output missing core:\n%s", got)
	}
}

func TestRunTailTruncatesTable(t *testing.T) {
	var b []byte
	b = append(b, []byte(`{"ts":1,"solver":"lbfgs","kind":"start","iter":0,"n":4}`+"\n")...)
	for i := 0; i < 25; i++ {
		b = trace.AppendJSON(b, trace.Event{
			TS: int64(i + 2), Solver: "lbfgs", Kind: "iter", Iter: i,
			Fields: []trace.Field{{Key: "f", Val: float64(100 - i)}},
		})
		b = append(b, '\n')
	}
	b = append(b, []byte(`{"ts":99,"solver":"lbfgs","kind":"final","iter":25,"status":"converged","f":75}`+"\n")...)

	var out strings.Builder
	if err := run(strings.NewReader(string(b)), &out, "", 5); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "(20 earlier rows omitted; -tail 5)") {
		t.Errorf("missing truncation note:\n%s", got)
	}
	// Only the last 5 iteration indices survive.
	if strings.Contains(got, "\n19  ") || !strings.Contains(got, "24") {
		t.Errorf("tail rows wrong:\n%s", got)
	}
}

func TestRunRejectsMalformedLine(t *testing.T) {
	var out strings.Builder
	err := run(strings.NewReader("{\"ts\":1,\"solver\":\"ipm\"\n"), &out, "", 0)
	if err == nil || !strings.Contains(err.Error(), "line 1") {
		t.Fatalf("want line-1 parse error, got %v", err)
	}
}

func TestRunEmptyInput(t *testing.T) {
	var out strings.Builder
	if err := run(strings.NewReader(""), &out, "", 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "no events") {
		t.Errorf("want 'no events', got %q", out.String())
	}
}

// TestRunKeysInterleavedRunsBySolverAndRun: two concurrent runs of the
// same solver (portfolio contenders) interleave their events; each event
// must pair with the start carrying the same run id, not the most recent
// arrival. The buggy arrival-order keying attributed both runs' iters to
// run B and invented a third run for A's final.
func TestRunKeysInterleavedRunsBySolverAndRun(t *testing.T) {
	in := `{"ts":1,"solver":"ipm","run":"A","kind":"start","iter":0,"m":55}
{"ts":2,"solver":"ipm","run":"B","kind":"start","iter":0,"m":55}
{"ts":3,"solver":"ipm","run":"A","kind":"iter","iter":0,"mu":1.5}
{"ts":4,"solver":"ipm","run":"B","kind":"iter","iter":0,"mu":1.2}
{"ts":5,"solver":"ipm","run":"A","kind":"iter","iter":1,"mu":0.5}
{"ts":6,"solver":"ipm","run":"B","kind":"final","iter":1,"status":"optimal"}
{"ts":7,"solver":"ipm","run":"A","kind":"final","iter":2,"status":"cancelled"}
`
	var out strings.Builder
	if err := run(strings.NewReader(in), &out, "", 0); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !regexp.MustCompile(`ipm\s+2\s`).MatchString(got) {
		t.Errorf("want exactly 2 ipm runs:\n%s", got)
	}
	if !strings.Contains(got, "optimal:1 cancelled:1") {
		t.Errorf("statuses wrong:\n%s", got)
	}
	// The most recently started run (B) owns exactly its own iter event.
	if !strings.Contains(got, "ipm (run B), last run: 1 iterations, optimal") {
		t.Errorf("last-run attribution wrong:\n%s", got)
	}
}

// TestRunPortfolioSection: a portfolio trace gets a winner/contender table.
func TestRunPortfolioSection(t *testing.T) {
	in := `{"solver":"portfolio","kind":"start","iter":0,"contenders":2,"workers":2}
{"solver":"portfolio","run":"A","kind":"start","iter":0,"contender":0,"workers":1}
{"solver":"portfolio","run":"B","kind":"start","iter":0,"contender":1,"workers":1}
{"solver":"portfolio","run":"A","kind":"iter","iter":0,"contender":0,"complete":1,"feasible":1,"partial":0,"hpwl":100}
{"solver":"portfolio","run":"B","kind":"iter","iter":1,"contender":1,"complete":0,"feasible":0,"partial":1,"hpwl":150}
{"solver":"portfolio","run":"A","kind":"final","iter":0,"status":"won","contender":0,"feasible":1,"hpwl":100}
{"solver":"portfolio","run":"B","kind":"final","iter":1,"status":"cancelled","contender":1,"feasible":0,"hpwl":150}
{"solver":"portfolio","kind":"final","iter":2,"status":"won","winner":0,"hpwl":100,"feasible":1}
`
	var out strings.Builder
	if err := run(strings.NewReader(in), &out, "", 0); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "portfolio race: winner A (won)") {
		t.Errorf("missing race header:\n%s", got)
	}
	if !regexp.MustCompile(`A\s+won\s+100\.0\s+yes`).MatchString(got) {
		t.Errorf("winner row wrong:\n%s", got)
	}
	if !regexp.MustCompile(`B\s+cancelled\s+150\.0\s+no`).MatchString(got) {
		t.Errorf("cancelled row wrong:\n%s", got)
	}
}

// TestRunSurvivesDroppedStart mimics a ring-truncated trace: iter/final
// events whose "start" was evicted must still aggregate into a run.
func TestRunSurvivesDroppedStart(t *testing.T) {
	in := `{"ts":5,"solver":"admm","kind":"iter","iter":7,"pres":0.5}
{"ts":6,"solver":"admm","kind":"final","iter":8,"status":"optimal","pres":1e-6}
`
	var out strings.Builder
	if err := run(strings.NewReader(in), &out, "", 0); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "admm") || !strings.Contains(got, "optimal:1") {
		t.Errorf("dropped-start trace not summarized:\n%s", got)
	}
}

// TestRunCoreAlphaRounds: a core run prints one row per α round — α, its
// iterations, the exit reason named from the "exit" field, and ⟨W,Z⟩ at
// the round's last iteration. A cancelled round has no exit field.
func TestRunCoreAlphaRounds(t *testing.T) {
	var b []byte
	add := func(ev trace.Event) {
		b = append(trace.AppendJSON(b, ev), '\n')
	}
	iter := 0
	round := func(alpha float64, wz []float64, exit float64) {
		for i, v := range wz {
			iter++
			f := []trace.Field{{Key: "alpha", Val: alpha}, {Key: "alphaIter", Val: float64(i + 1)}, {Key: "wz", Val: v}}
			if i == len(wz)-1 && exit > 0 {
				f = append(f, trace.Field{Key: "exit", Val: exit})
			}
			add(trace.Event{Solver: "core", Kind: "iter", Iter: iter, Fields: f})
		}
	}
	add(trace.Event{Solver: "core", Kind: "start"})
	round(16, []float64{600, 250, 240}, 3)
	round(128, []float64{90, 80, 79.5, 79.4}, 4)
	round(256, []float64{2, 1.5}, 2)
	round(1024, []float64{0.5}, 1)
	round(2048, []float64{0.4, 0.3}, 0)
	add(trace.Event{Solver: "core", Kind: "final", Iter: iter, Status: "cancelled"})

	var out strings.Builder
	if err := run(strings.NewReader(string(b)), &out, "", 0); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, row := range []string{
		`round\s+alpha\s+iters\s+exit\s+wz`,
		`\n\s+1\s+16\s+3\s+stall\s+240\n`,
		`\n\s+2\s+128\s+4\s+max-iter\s+79\.4\n`,
		`\n\s+3\s+256\s+2\s+converged\s+1\.5\n`,
		`\n\s+4\s+1024\s+1\s+rank\s+0\.5\n`,
		`\n\s+5\s+2048\s+2\s+-\s+0\.3\n`,
	} {
		if !regexp.MustCompile(row).MatchString(got) {
			t.Errorf("output lacks row %q:\n%s", row, got)
		}
	}
}

// TestRunWarmColumnOnly checks that warm and cold finals are counted in
// the table's warm column and that no warm-against-cold iteration average
// is printed: in a default Place the cold run is the first sub-problem,
// with another α and working set than the warm ones, so the comparison
// would not measure what a warm start saves.
func TestRunWarmColumnOnly(t *testing.T) {
	in := `{"ts":1,"solver":"ipm","kind":"start","iter":0}
{"ts":2,"solver":"ipm","kind":"final","iter":17,"status":"converged","warm":0}
{"ts":3,"solver":"ipm","kind":"start","iter":0}
{"ts":4,"solver":"ipm","kind":"final","iter":18,"status":"converged","warm":1}
`
	var out strings.Builder
	if err := run(strings.NewReader(in), &out, "", 0); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !regexp.MustCompile(`ipm\s+2\s+1/2\s+0\s`).MatchString(got) {
		t.Errorf("want an ipm row of 2 runs, 1/2 warm:\n%s", got)
	}
	if strings.Contains(got, "saved") || strings.Contains(got, "averaged") {
		t.Errorf("output compares warm with cold runs:\n%s", got)
	}
}
