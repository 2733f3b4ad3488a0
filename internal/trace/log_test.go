package trace

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// TestLogGolden pins the adapter's lines for a fixed event sequence: every
// start/final is printed, iter events only for the outer loops, run-scoped
// events carry their run id, and non-finite values print as Go does.
func TestLogGolden(t *testing.T) {
	var lines []string
	var rec Recorder = Log(func(format string, args ...any) {
		lines = append(lines, fmt.Sprintf(format, args...))
	})
	sdp := WithRun(rec, "sdp")
	sa := WithRun(rec, "sa")
	events := []struct {
		r  Recorder
		ev Event
	}{
		{rec, Event{Solver: "portfolio", Kind: KindStart, Fields: []Field{{Key: "contenders", Val: 2}, {Key: "workers", Val: 4}}}},
		{sdp, Event{Solver: "core", Kind: KindStart, Fields: []Field{{Key: "n", Val: 10}}}},
		{sdp, Event{Solver: "ipm", Kind: KindStart, Fields: []Field{{Key: "m", Val: 73}}}},
		{sdp, Event{Solver: "ipm", Kind: KindIter, Iter: 1, Fields: []Field{{Key: "mu", Val: 0.5}}}},
		{sa, Event{Solver: "sa", Kind: KindIter, Iter: 0, Fields: []Field{{Key: "temp", Val: 0.2}}}},
		{sdp, Event{Solver: "ipm", Kind: KindFinal, Iter: 15, Status: "optimal", Fields: []Field{{Key: "relG", Val: 3.5405512e-07}}}},
		{sdp, Event{Solver: "core", Kind: KindIter, Iter: 1, Fields: []Field{
			{Key: "alpha", Val: 16}, {Key: "obj", Val: 62541.00946212413}, {Key: "wz", Val: math.Inf(1)}, {Key: "trZ", Val: math.NaN()}}}},
		{rec, Event{Solver: "hier", Kind: KindIter, Iter: 2}},
		{rec, Event{Solver: "lbfgs", Kind: KindIter, Iter: 7, Fields: []Field{{Key: "f", Val: 1}}}},
		{sdp, Event{Solver: "core", Kind: KindFinal, Iter: 1, Status: "cancelled"}},
		{sa, Event{Solver: "portfolio", Kind: KindIter, Iter: 0, Fields: []Field{{Key: "hpwl", Val: 3374}}}},
		{rec, Event{Solver: "portfolio", Kind: KindFinal, Iter: 2, Status: "won", Fields: []Field{{Key: "winner", Val: 1}}}},
	}
	for _, e := range events {
		e.r.Record(e.ev)
	}
	want := []string{
		"portfolio start: contenders=2 workers=4",
		"core[sdp] start: n=10",
		"ipm[sdp] start: m=73",
		"ipm[sdp] final 15 optimal: relG=3.54055e-07",
		"core[sdp] iter 1: alpha=16 obj=62541 wz=+Inf trZ=NaN",
		"hier iter 2",
		"core[sdp] final 1 cancelled",
		"portfolio[sa] iter 0: hpwl=3374",
		"portfolio final 2 won: winner=1",
	}
	if got := strings.Join(lines, "\n"); got != strings.Join(want, "\n") {
		t.Fatalf("log lines:\n%s\nwant:\n%s", got, strings.Join(want, "\n"))
	}
}
