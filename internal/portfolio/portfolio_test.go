package portfolio

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"sdpfloor/internal/linalg"
	"sdpfloor/internal/trace"
)

// fakeEngine is a scripted contender for deterministic race tests. It
// advances through virtual time by blocking on stepped channels — the test
// closes gate i to release step i — so no scenario ever depends on
// wall-clock sleeps or the scheduler winning a timing race. While running
// it holds scratch checked out of its own linalg.Arena, so the tests can
// assert cancellation reclaims arena leases exactly like a real solver
// unwinding.
type fakeEngine struct {
	name  string
	gates []chan struct{} // step i blocks until gates[i] is closed (or ctx fires)

	// Terminal script: after the last gate, Run returns out/err verbatim.
	out *Outcome
	err error
	// partial is surrendered (with a wrapped context error) when ctx fires
	// mid-script — the analogue of a solver returning its best iterate.
	partial *Outcome

	arena     *linalg.Arena
	cancelled chan struct{} // closed when the engine observed cancellation
}

func newFakeEngine(name string, steps int) *fakeEngine {
	f := &fakeEngine{
		name:      name,
		gates:     make([]chan struct{}, steps),
		arena:     linalg.NewArena(),
		cancelled: make(chan struct{}),
	}
	for i := range f.gates {
		f.gates[i] = make(chan struct{})
	}
	return f
}

// release opens every gate up front: the engine runs its whole script
// without further coordination.
func (f *fakeEngine) release() {
	for _, g := range f.gates {
		close(g)
	}
}

func (f *fakeEngine) contender() Contender {
	return Contender{Name: f.name, Run: f.run}
}

func (f *fakeEngine) run(ctx context.Context, workers int) (*Outcome, error) {
	if workers < 1 {
		return nil, fmt.Errorf("fake %s: raced with %d workers", f.name, workers)
	}
	// Hold scratch for the duration of the "solve", returned on every exit
	// path — the lease discipline sdpvet's arenalease analyzer enforces
	// statically on the real engines.
	m := f.arena.Mat(4, 4)
	v := f.arena.Vec(8)
	defer func() {
		f.arena.PutVec(v)
		f.arena.Put(m)
	}()
	for _, gate := range f.gates {
		// An already-open gate is consumed before cancellation is even
		// considered (the step's virtual work happened at release time), so
		// a released script always completes — without this default-poll, a
		// two-way select with both channels ready picks randomly and a
		// released loser's status would flip between lost and cancelled
		// under the scheduler. Same device the race coordinator uses to
		// keep a delivered result from being shadowed by the deadline.
		select {
		case <-gate:
			continue
		default:
		}
		select {
		case <-gate:
		case <-ctx.Done():
			close(f.cancelled)
			return f.partial, fmt.Errorf("fake %s: cancelled: %w", f.name, context.Cause(ctx))
		}
	}
	return f.out, f.err
}

// collector is a synchronized in-memory recorder preserving event order.
type collector struct {
	mu  sync.Mutex
	evs []trace.Event
}

func (c *collector) Enabled() bool { return true }

func (c *collector) Record(ev trace.Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.evs = append(c.evs, ev)
}

// lines renders the collected events as deterministic JSONL sans
// timestamps (the form the trace contract promises is byte-stable).
func (c *collector) lines() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, len(c.evs))
	for i, ev := range c.evs {
		out[i] = trace.StripTS(string(trace.AppendJSON(nil, ev)))
	}
	return out
}

// checkNoLeaks polls the goroutine count back to the pre-race baseline
// (joined goroutines may take a beat to fully exit after wg.Wait) and
// asserts every contender arena is back to zero leases.
func checkNoLeaks(t *testing.T, base int, fakes ...*fakeEngine) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d running, baseline %d\n%s", runtime.NumGoroutine(), base, buf[:n])
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	for _, f := range fakes {
		if got := f.arena.Leases(); got != 0 {
			t.Errorf("contender %s: %d arena leases still out after race", f.name, got)
		}
	}
}

// TestPortfolioWinnerCancelsLosers is the core race: A legalizes, B never
// finishes; the race must return A's outcome verbatim, cancel B, and
// reclaim B's goroutine and arena leases before returning.
func TestPortfolioWinnerCancelsLosers(t *testing.T) {
	base := runtime.NumGoroutine()
	a := newFakeEngine("A", 1)
	a.out = &Outcome{HPWL: 100, Feasible: true, Payload: "plan-A"}
	b := newFakeEngine("B", 1) // gate never closes: must be cancelled
	b.partial = &Outcome{HPWL: 150, Partial: true}
	a.release()

	res, err := Race(context.Background(), []Contender{a.contender(), b.contender()}, Options{Workers: 2})
	if err != nil {
		t.Fatalf("Race: %v", err)
	}
	if res.Winner != 0 {
		t.Fatalf("winner = %d, want 0 (A)", res.Winner)
	}
	if res.Outcome != a.out {
		t.Errorf("outcome is not A's exact result: %+v", res.Outcome)
	}
	select {
	case <-b.cancelled:
	default:
		t.Error("loser B never observed cancellation")
	}
	wantStatus := []string{StatusWon, StatusCancelled}
	for i, r := range res.Reports {
		if r.Status != wantStatus[i] {
			t.Errorf("report[%d] (%s) status = %q, want %q", i, r.Name, r.Status, wantStatus[i])
		}
	}
	if res.Reports[1].HPWL != 150 || !res.Reports[1].Partial {
		t.Errorf("loser report should carry its partial: %+v", res.Reports[1])
	}
	if !strings.Contains(res.Reports[1].Err, "context canceled") {
		t.Errorf("loser error %q does not wrap context.Canceled", res.Reports[1].Err)
	}
	checkNoLeaks(t, base, a, b)
}

// TestPortfolioTieBreakIsPriorityOrder: no contender legalizes; two
// complete with identical HPWL. The tie must go to the lower contender
// index — fixed priority, never map or arrival order.
func TestPortfolioTieBreakIsPriorityOrder(t *testing.T) {
	base := runtime.NumGoroutine()
	var fakes []*fakeEngine
	var contenders []Contender
	for _, name := range []string{"A", "B", "C"} {
		f := newFakeEngine(name, 1)
		f.out = &Outcome{HPWL: 200, Feasible: false}
		f.release()
		fakes = append(fakes, f)
		contenders = append(contenders, f.contender())
	}
	// C actually has better HPWL: must beat the tie pair outright.
	fakes[2].out.HPWL = 120

	res, err := Race(context.Background(), contenders, Options{Workers: 3})
	if err != nil {
		t.Fatalf("Race: %v", err)
	}
	if res.Winner != 2 {
		t.Fatalf("winner = %d, want 2 (best HPWL)", res.Winner)
	}
	if res.Reports[2].Status != StatusBestEffort {
		t.Errorf("winner status = %q, want %q", res.Reports[2].Status, StatusBestEffort)
	}

	// Exact tie: drop C to the shared HPWL and re-race — index 0 must win.
	fakes2 := make([]*fakeEngine, 3)
	contenders2 := make([]Contender, 3)
	for i, name := range []string{"A", "B", "C"} {
		f := newFakeEngine(name, 1)
		f.out = &Outcome{HPWL: 200, Feasible: false}
		f.release()
		fakes2[i] = f
		contenders2[i] = f.contender()
	}
	res2, err := Race(context.Background(), contenders2, Options{Workers: 3})
	if err != nil {
		t.Fatalf("Race (tie): %v", err)
	}
	if res2.Winner != 0 {
		t.Fatalf("tie winner = %d, want 0 (lowest index)", res2.Winner)
	}
	checkNoLeaks(t, base, append(fakes, fakes2...)...)
}

// TestPortfolioDeadlineReturnsBestPartial: the budget expires while every
// contender is mid-solve. The race must cancel everything, collect the
// partial iterates, return the best one alongside a wrapped context
// error, and still leak nothing.
func TestPortfolioDeadlineReturnsBestPartial(t *testing.T) {
	base := runtime.NumGoroutine()
	a := newFakeEngine("A", 1)
	a.partial = &Outcome{HPWL: 300, Partial: true}
	b := newFakeEngine("B", 1)
	b.partial = &Outcome{HPWL: 250, Partial: true} // better iterate: must win

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the "deadline" fires before any contender finishes — virtual, no sleeps

	res, err := Race(ctx, []Contender{a.contender(), b.contender()}, Options{Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
	if res.Winner != 1 {
		t.Fatalf("winner = %d, want 1 (best partial HPWL)", res.Winner)
	}
	if res.Outcome != b.partial {
		t.Errorf("outcome is not B's partial: %+v", res.Outcome)
	}
	for i, r := range res.Reports {
		want := StatusCancelled
		if i == 1 {
			want = StatusBestEffort
		}
		if r.Status != want {
			t.Errorf("report[%d] status = %q, want %q", i, r.Status, want)
		}
	}
	checkNoLeaks(t, base, a, b)
}

// TestPortfolioAllFail: every contender errors out; the race reports the
// highest-priority failure and a -1 winner.
func TestPortfolioAllFail(t *testing.T) {
	base := runtime.NumGoroutine()
	a := newFakeEngine("A", 1)
	a.err = errors.New("singular system")
	b := newFakeEngine("B", 1)
	b.err = errors.New("diverged")
	a.release()
	b.release()

	res, err := Race(context.Background(), []Contender{a.contender(), b.contender()}, Options{Workers: 2})
	if err == nil || !strings.Contains(err.Error(), "singular system") {
		t.Fatalf("err = %v, want the priority contender's failure", err)
	}
	if res == nil || res.Winner != -1 {
		t.Fatalf("winner should be -1, got %+v", res)
	}
	for _, r := range res.Reports {
		if r.Status != StatusFailed {
			t.Errorf("report %s status = %q, want %q", r.Name, r.Status, StatusFailed)
		}
	}
	checkNoLeaks(t, base, a, b)
}

// TestPortfolioFeasibleBeatsFailure: one contender fails, a later-priority
// one legalizes — the failure must not mask the win.
func TestPortfolioFeasibleBeatsFailure(t *testing.T) {
	base := runtime.NumGoroutine()
	a := newFakeEngine("A", 1)
	a.err = errors.New("diverged")
	b := newFakeEngine("B", 1)
	b.out = &Outcome{HPWL: 90, Feasible: true}
	a.release()
	b.release()

	res, err := Race(context.Background(), []Contender{a.contender(), b.contender()}, Options{Workers: 2})
	if err != nil {
		t.Fatalf("Race: %v", err)
	}
	if res.Winner != 1 || res.Reports[1].Status != StatusWon {
		t.Fatalf("winner = %d (%+v), want 1 won", res.Winner, res.Reports)
	}
	if res.Reports[0].Status != StatusFailed {
		t.Errorf("failed contender status = %q", res.Reports[0].Status)
	}
	checkNoLeaks(t, base, a, b)
}

// TestPortfolioNoContenders: an empty contender set is an immediate error.
func TestPortfolioNoContenders(t *testing.T) {
	if _, err := Race(context.Background(), nil, Options{}); err == nil {
		t.Fatal("Race with no contenders should error")
	}
}

// raceFingerprint captures everything the determinism contract promises
// is stable for a fixed script: winner identity, per-contender statuses,
// and the winning payload.
type raceFingerprint struct {
	winner   int
	statuses string
	payload  any
}

func runScriptedRace(t *testing.T, workers int) (raceFingerprint, []*fakeEngine) {
	t.Helper()
	a := newFakeEngine("A", 1)
	a.out = &Outcome{HPWL: 100, Feasible: true, Payload: [2]float64{12.5, 42.25}}
	b := newFakeEngine("B", 1) // cancelled loser
	b.partial = &Outcome{HPWL: 180, Partial: true}
	c := newFakeEngine("C", 1)
	c.out = &Outcome{HPWL: 160, Feasible: false}
	a.release()
	c.release()

	res, err := Race(context.Background(), []Contender{a.contender(), b.contender(), c.contender()},
		Options{Workers: workers})
	if err != nil {
		t.Fatalf("Race(w=%d): %v", workers, err)
	}
	var st []string
	for _, r := range res.Reports {
		st = append(st, r.Status)
	}
	return raceFingerprint{winner: res.Winner, statuses: strings.Join(st, ","), payload: res.Outcome.Payload}, []*fakeEngine{a, b, c}
}

// TestPortfolioDeterministicAcrossWorkers: the same scripted race at
// worker budgets 1, 2, and 8 must produce the identical winner, statuses,
// and (bitwise) payload — worker count may change speed, never results.
func TestPortfolioDeterministicAcrossWorkers(t *testing.T) {
	base := runtime.NumGoroutine()
	ref, fakes := runScriptedRace(t, 1)
	checkNoLeaks(t, base, fakes...)
	for _, w := range []int{2, 8} {
		got, fakes := runScriptedRace(t, w)
		if got != ref {
			t.Errorf("w=%d: fingerprint %+v != w=1 fingerprint %+v", w, got, ref)
		}
		checkNoLeaks(t, base, fakes...)
	}
}

// TestPortfolioTraceStream pins the exact portfolio event stream for a
// scripted race: run-scoped starts in priority order, one arrival iter
// per contender, per-contender finals in priority order, then the race
// final — byte-stable JSONL once timestamps are stripped. The arrival
// order is forced by causality, not the scheduler: B only returns after
// observing the cancellation that A's win triggers.
func TestPortfolioTraceStream(t *testing.T) {
	rec := &collector{}
	a := newFakeEngine("A", 1)
	a.out = &Outcome{HPWL: 100, Feasible: true}
	b := newFakeEngine("B", 1)
	b.partial = &Outcome{HPWL: 150, Partial: true}
	a.release()

	res, err := Race(context.Background(), []Contender{a.contender(), b.contender()},
		Options{Workers: 2, Trace: rec})
	if err != nil {
		t.Fatalf("Race: %v", err)
	}
	if res.Winner != 0 {
		t.Fatalf("winner = %d, want 0", res.Winner)
	}
	want := []string{
		`{"solver":"portfolio","kind":"start","iter":0,"contenders":2,"workers":2}`,
		`{"solver":"portfolio","run":"A","kind":"start","iter":0,"contender":0,"workers":1}`,
		`{"solver":"portfolio","run":"B","kind":"start","iter":0,"contender":1,"workers":1}`,
		`{"solver":"portfolio","run":"A","kind":"iter","iter":0,"contender":0,"complete":1,"feasible":1,"partial":0,"hpwl":100}`,
		`{"solver":"portfolio","run":"B","kind":"iter","iter":1,"contender":1,"complete":0,"feasible":0,"partial":1,"hpwl":150}`,
		`{"solver":"portfolio","run":"A","kind":"final","iter":0,"status":"won","contender":0,"feasible":1,"hpwl":100}`,
		`{"solver":"portfolio","run":"B","kind":"final","iter":1,"status":"cancelled","contender":1,"feasible":0,"hpwl":150}`,
		`{"solver":"portfolio","kind":"final","iter":2,"status":"won","winner":0,"hpwl":100,"feasible":1}`,
	}
	got := rec.lines()
	if len(got) != len(want) {
		t.Fatalf("got %d events, want %d:\n%s", len(got), len(want), strings.Join(got, "\n"))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
}

// TestPortfolioExactlyOneFinalPerRun: every run id in the portfolio
// stream (the race itself plus one per contender) must close with exactly
// one final, on the winner path and the deadline path alike.
func TestPortfolioExactlyOneFinalPerRun(t *testing.T) {
	for _, scenario := range []string{"winner", "deadline"} {
		t.Run(scenario, func(t *testing.T) {
			rec := &collector{}
			a := newFakeEngine("A", 1)
			a.out = &Outcome{HPWL: 100, Feasible: true}
			b := newFakeEngine("B", 1)
			b.partial = &Outcome{HPWL: 150, Partial: true}
			ctx := context.Background()
			if scenario == "winner" {
				a.release()
			} else {
				cctx, cancel := context.WithCancel(ctx)
				cancel()
				ctx = cctx
				a.partial = &Outcome{HPWL: 170, Partial: true}
			}
			_, _ = Race(ctx, []Contender{a.contender(), b.contender()}, Options{Workers: 2, Trace: rec})
			finals := map[string]int{}
			rec.mu.Lock()
			for _, ev := range rec.evs {
				if ev.Kind == trace.KindFinal {
					finals[ev.Run]++
				}
			}
			rec.mu.Unlock()
			for _, run := range []string{"", "A", "B"} {
				if finals[run] != 1 {
					t.Errorf("run %q: %d finals, want exactly 1", run, finals[run])
				}
			}
		})
	}
}

func TestSplitWorkers(t *testing.T) {
	cases := []struct {
		total, n int
		want     []int
	}{
		{8, 3, []int{3, 3, 2}},
		{2, 2, []int{1, 1}},
		{1, 3, []int{1, 1, 1}}, // floor of one each; the pool bounds real concurrency
		{7, 1, []int{7}},
		{0, 2, []int{1, 1}},
		{5, 0, nil},
	}
	for _, c := range cases {
		got := SplitWorkers(c.total, c.n)
		if len(got) != len(c.want) {
			t.Errorf("SplitWorkers(%d,%d) = %v, want %v", c.total, c.n, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("SplitWorkers(%d,%d) = %v, want %v", c.total, c.n, got, c.want)
				break
			}
		}
	}
}
