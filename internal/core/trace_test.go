package core

import (
	"context"
	"testing"

	"sdpfloor/internal/trace"
)

// TestSolveTraceInterleavesSolvers checks the threaded recorder: one core
// run produces a trace that opens with the core "start", closes with the
// core "final", and interleaves the sub-problem IPM events in between.
func TestSolveTraceInterleavesSolvers(t *testing.T) {
	ring := trace.NewRing(8192)
	if _, err := Solve(chainNL(3, 4), Options{MaxIter: 10, Trace: ring}); err != nil {
		t.Fatal(err)
	}
	evs := ring.Snapshot()
	if len(evs) < 4 {
		t.Fatalf("trace too short: %d events", len(evs))
	}
	if evs[0].Solver != "core" || evs[0].Kind != trace.KindStart {
		t.Fatalf("first event %+v, want core start", evs[0])
	}
	last := evs[len(evs)-1]
	if last.Solver != "core" || last.Kind != trace.KindFinal || last.Status != "ok" {
		t.Fatalf("last event %+v, want core final status ok", last)
	}
	var coreIters, coreFinals, ipmEvents int
	for _, ev := range evs {
		switch {
		case ev.Solver == "core" && ev.Kind == trace.KindIter:
			coreIters++
			fields := map[string]float64{}
			for _, f := range ev.Fields {
				fields[f.Key] = f.Val
			}
			for _, key := range []string{"alpha", "obj", "wz", "trZ", "cons", "bounds", "solverIters"} {
				if _, ok := fields[key]; !ok {
					t.Fatalf("core iter missing field %q: %+v", key, ev.Fields)
				}
			}
		case ev.Solver == "core" && ev.Kind == trace.KindFinal:
			coreFinals++
		case ev.Solver == "ipm":
			ipmEvents++
		}
	}
	if coreIters == 0 {
		t.Fatal("no core iter events")
	}
	if coreFinals != 1 {
		t.Fatalf("%d core final events, want 1", coreFinals)
	}
	if ipmEvents == 0 {
		t.Fatal("no interleaved ipm events; recorder not threaded into sub-problem solves")
	}
}

// cancelAfterIters cancels after n solver iter events from inside Record, a
// deterministic stand-in for a client abandoning a long solve.
type cancelAfterIters struct {
	next   trace.Recorder
	cancel context.CancelFunc
	n      int
	seen   int
}

func (c *cancelAfterIters) Enabled() bool { return true }

func (c *cancelAfterIters) Record(ev trace.Event) {
	c.next.Record(ev)
	if ev.Kind == trace.KindIter {
		c.seen++
		if c.seen == c.n {
			c.cancel()
		}
	}
}

// TestSolveTraceFinalOnCancel asserts a cancelled convex iteration still
// closes its trace: the last event is the core "final" with status
// "cancelled", after the interrupted sub-problem's own "final".
func TestSolveTraceFinalOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ring := trace.NewRing(8192)
	rec := &cancelAfterIters{next: ring, cancel: cancel, n: 2}
	res, err := Solve(chainNL(4, 5), Options{MaxIter: 10, Context: ctx, Trace: rec})
	if err == nil {
		t.Fatal("want cancellation error")
	}
	if res == nil {
		t.Fatal("want partial result on cancellation")
	}
	evs := ring.Snapshot()
	last := evs[len(evs)-1]
	if last.Solver != "core" || last.Kind != trace.KindFinal || last.Status != "cancelled" {
		t.Fatalf("last event %+v, want core final status cancelled", last)
	}
	finals := map[string]int{}
	open := map[string]int{}
	for _, ev := range evs {
		switch ev.Kind {
		case trace.KindStart:
			open[ev.Solver]++
		case trace.KindFinal:
			finals[ev.Solver]++
		}
	}
	for solver, n := range open {
		if finals[solver] != n {
			t.Fatalf("solver %s: %d starts but %d finals", solver, n, finals[solver])
		}
	}
}
