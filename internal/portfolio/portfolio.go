// Package portfolio races a set of floorplanning engines concurrently per
// job under one shared context deadline: the first contender to produce a
// legalized plan within spec wins and the losers are cancelled immediately,
// turning engine diversity (no single method dominates across instance
// sizes — the SDPNAL+ observation) into wall-clock latency wins without
// giving up the SDP's quality on the instances where it is fastest.
//
// The racer is engine-agnostic: a Contender is a name plus a closure, so
// the root sdpfloor package adapts its real engines and the tests drive
// scripted fakes under virtual time. Three contracts make races testable:
//
//   - Determinism. Winner selection scans arrivals in fixed contender
//     priority order (never map order); ties on HPWL break toward the
//     lower index; losers are cancelled in index order. Given a scripted
//     arrival order, every output of Race — winner identity, statuses,
//     trace events modulo timestamps — is bitwise reproducible.
//   - No leaks. Race joins every contender goroutine before returning, on
//     every path including deadline expiry; a cancelled contender's
//     resources (goroutines, arena leases) are reclaimed before the caller
//     sees the result. The harness asserts both counts return to baseline.
//   - Bounded workers. The total kernel worker budget is split across
//     contenders (SplitWorkers), so a race never requests more parallelism
//     than a solo solve would; the shared internal/parallel pool bounds
//     actual concurrency either way.
//
// See docs/PORTFOLIO.md for the racing semantics and the per-size default
// contender sets.
package portfolio

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"sdpfloor/internal/parallel"
	"sdpfloor/internal/trace"
)

// Outcome is what one contender returns from its Run closure.
type Outcome struct {
	// HPWL is the half-perimeter wirelength of the plan (for a Partial
	// outcome, of the raw global centers — comparable only to other
	// partials, which is all it competes against).
	HPWL float64
	// Feasible reports a legalized plan inside the outline — the race's
	// winning condition.
	Feasible bool
	// Partial marks a best-effort iterate surrendered on cancellation or
	// deadline rather than a completed solve.
	Partial bool
	// Payload carries the engine's full result (the root package stores a
	// *sdpfloor.Floorplan); the racer never inspects it.
	Payload any
}

// Contender is one engine entered into a race.
type Contender struct {
	// Name labels the contender in reports and trace events; it doubles as
	// the trace run id scoping the contender's solver event stream.
	Name string
	// Run executes the engine under ctx with the given kernel worker
	// budget. On cancellation it should return promptly with its best
	// partial Outcome (nil when it has none) and the wrapped context
	// error; any other error marks the contender failed.
	Run func(ctx context.Context, workers int) (*Outcome, error)
}

// Race-terminal contender statuses, as reported in Report.Status and on
// the per-contender "portfolio" trace finals.
const (
	StatusWon        = "won"         // produced the winning legalized plan
	StatusBestEffort = "best-effort" // won on best HPWL when nothing legalized in budget
	StatusLost       = "lost"        // completed, but another contender won
	StatusCancelled  = "cancelled"   // cancelled as a loser or by the deadline
	StatusFailed     = "failed"      // returned a non-cancellation error
)

// Report is the per-contender outcome of a finished race.
type Report struct {
	Name     string  `json:"name"`
	Status   string  `json:"status"`
	Workers  int     `json:"workers"` // kernel worker budget it raced with
	HPWL     float64 `json:"hpwl,omitempty"`
	Feasible bool    `json:"feasible,omitempty"`
	Partial  bool    `json:"partial,omitempty"`
	// Arrival is the 0-based order in which this contender's result came
	// back (-1 when it never produced one).
	Arrival int    `json:"arrival"`
	Err     string `json:"err,omitempty"`
}

// Options tune one race.
type Options struct {
	// Workers is the total kernel worker budget split across the
	// contenders; 0 uses the shared pool default. Every contender gets at
	// least one worker (see SplitWorkers).
	Workers int
	// Trace, when non-nil and enabled, receives the "portfolio" event
	// stream: one unscoped start/final pair for the race, plus a
	// run-scoped start/iter/final triple per contender (run id = name).
	Trace trace.Recorder
}

// Result is the outcome of a race.
type Result struct {
	// Winner indexes the winning contender, -1 when no contender produced
	// a usable outcome (then the accompanying error says why).
	Winner int
	// Outcome is the winning outcome; nil when Winner < 0. It may be
	// Partial when only deadline-interrupted iterates existed.
	Outcome *Outcome
	// Reports holds one entry per contender, in contender order.
	Reports []Report
}

// arrival is one contender's result landing on the coordinator.
type arrival struct {
	idx int
	out *Outcome
	err error
}

// Race runs every contender concurrently under ctx and returns when a
// winner is decided and every contender goroutine has unwound.
//
// Decision rule: the first arrival that completed with a feasible
// (legalized, in-spec) plan wins immediately and all other contenders are
// cancelled. If all contenders finish without a feasible plan, or ctx
// expires first (everything still running is cancelled and drained), the
// best outcome wins: feasible beats infeasible, complete beats partial,
// then lowest HPWL, ties to the lowest contender index.
//
// The returned error is nil whenever a completed outcome won. A race whose
// best outcome is a deadline partial returns it alongside the wrapped
// context error (mirroring PlaceContext's partial-result-on-cancel
// semantics); a race with no usable outcome returns Winner -1 and the
// highest-priority contender failure (or the context error).
func Race(ctx context.Context, contenders []Contender, opt Options) (*Result, error) {
	n := len(contenders)
	if n == 0 {
		return nil, errors.New("portfolio: no contenders")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	budgets := SplitWorkers(parallel.Workers(opt.Workers), n)
	arrived := make([]*arrival, n)
	seq := make([]int, n) // arrival order per contender, -1 = never arrived
	for i := range seq {
		seq[i] = -1
	}
	got, winner, deadline := 0, -1, false
	var res *Result
	tracing := opt.Trace != nil && opt.Trace.Enabled()
	if tracing {
		// Deferred — and registered before any start — so every exit,
		// panics included, closes the race streams: per-contender finals
		// in priority order, then the race final. A deterministic closing
		// sequence for a scripted arrival order.
		defer func() {
			if res != nil {
				for i := range res.Reports {
					r := &res.Reports[i]
					opt.Trace.Record(trace.Event{Solver: "portfolio", Run: r.Name, Kind: trace.KindFinal,
						Status: r.Status, Iter: maxInt(seq[i], 0), Fields: []trace.Field{
							{Key: "contender", Val: float64(i)},
							{Key: "feasible", Val: boolField(r.Feasible)},
							{Key: "hpwl", Val: r.HPWL},
						}})
				}
			}
			fin := trace.Event{Solver: "portfolio", Kind: trace.KindFinal, Iter: got,
				Fields: []trace.Field{{Key: "winner", Val: float64(winner)}}}
			switch {
			case res == nil || winner < 0:
				fin.Status = StatusFailed
			default:
				fin.Status = res.Reports[winner].Status
				fin.Fields = append(fin.Fields,
					trace.Field{Key: "hpwl", Val: res.Outcome.HPWL},
					trace.Field{Key: "feasible", Val: boolField(res.Outcome.Feasible)})
			}
			opt.Trace.Record(fin)
		}()
		opt.Trace.Record(trace.Event{Solver: "portfolio", Kind: trace.KindStart,
			Fields: []trace.Field{
				{Key: "contenders", Val: float64(n)},
				{Key: "workers", Val: float64(sum(budgets))},
			}})
		for i := range contenders {
			opt.Trace.Record(trace.Event{Solver: "portfolio", Run: contenders[i].Name, Kind: trace.KindStart,
				Fields: []trace.Field{
					{Key: "contender", Val: float64(i)},
					{Key: "workers", Val: float64(budgets[i])},
				}})
		}
	}

	// Buffered so a contender's final send can never block: the
	// coordinator is guaranteed to drain all n arrivals, and the goroutine
	// exits right after sending.
	results := make(chan arrival, n)
	cancels := make([]context.CancelFunc, n)
	var wg sync.WaitGroup
	for i := range contenders {
		cctx, cancel := context.WithCancel(ctx)
		cancels[i] = cancel
		wg.Add(1)
		go func(i int, cctx context.Context) {
			defer wg.Done()
			out, err := contenders[i].Run(cctx, budgets[i])
			results <- arrival{idx: i, out: out, err: err}
		}(i, cctx)
	}
	// Contexts are released on every path; losers were cancelled long
	// before this runs, so these are no-op lifecycle releases.
	defer func() {
		for _, cancel := range cancels {
			cancel()
		}
	}()

	handle := func(a arrival) {
		arrived[a.idx] = &a
		seq[a.idx] = got
		got++
		if tracing {
			opt.Trace.Record(trace.Event{Solver: "portfolio", Run: contenders[a.idx].Name,
				Kind: trace.KindIter, Iter: seq[a.idx], Fields: arrivalFields(&a)})
		}
		if winner < 0 && !deadline && a.err == nil && a.out != nil && a.out.Feasible {
			winner = a.idx
		}
	}
	for got < n && winner < 0 && !deadline {
		// Poll delivered results first so a deadline expiring in the same
		// instant cannot shadow a result that actually made the budget.
		select {
		case a := <-results:
			handle(a)
			continue
		default:
		}
		select {
		case a := <-results:
			handle(a)
		case <-ctx.Done():
			deadline = true
		}
	}
	// Cancel the losers (everything but the winner), in fixed index order
	// so the cancellation sequence is as reproducible as the selection.
	for i, cancel := range cancels {
		if i != winner {
			cancel()
		}
	}
	// Drain: every contender must unwind before the race returns, so no
	// goroutine (or arena lease held by one) outlives the call.
	for got < n {
		handle(<-results)
	}
	wg.Wait()

	if winner < 0 {
		winner = pickBest(arrived)
	}
	res = &Result{Winner: winner, Reports: make([]Report, n)}
	if winner >= 0 {
		res.Outcome = arrived[winner].out
	}
	for i := range contenders {
		res.Reports[i] = report(contenders[i].Name, budgets[i], seq[i], arrived[i], i == winner)
	}

	switch {
	case winner < 0:
		return res, raceError(ctx, contenders, arrived)
	case res.Outcome.Partial:
		// Best-effort deadline iterate: usable, but flagged like a
		// cancelled solo solve.
		return res, fmt.Errorf("portfolio: budget exhausted, returning %s partial: %w",
			contenders[winner].Name, context.Cause(ctx))
	default:
		return res, nil
	}
}

// pickBest selects a winner after the live race decided nothing: scanning
// in contender priority order, feasible beats infeasible, complete beats
// partial, then lower HPWL; ties keep the earlier (higher-priority) index.
// Returns -1 when no contender produced any outcome.
func pickBest(arrived []*arrival) int {
	best := -1
	var bestKey [3]float64
	for i, a := range arrived {
		if a == nil || a.out == nil {
			continue
		}
		key := [3]float64{boolField(!a.out.Feasible), boolField(a.out.Partial), a.out.HPWL}
		if best < 0 || less(key, bestKey) {
			best, bestKey = i, key
		}
	}
	return best
}

func less(a, b [3]float64) bool {
	for k := range a {
		//sdpvet:ignore floateq exact lexicographic tie-break keeps winner selection deterministic
		if a[k] != b[k] {
			return a[k] < b[k]
		}
	}
	return false
}

// report derives one contender's terminal race report.
func report(name string, workers, arrival int, a *arrival, won bool) Report {
	r := Report{Name: name, Status: StatusCancelled, Workers: workers, Arrival: arrival}
	if a == nil {
		// Unreachable (the drain loop collects every contender), kept so a
		// partial snapshot never panics.
		return r
	}
	if a.out != nil {
		r.HPWL, r.Feasible, r.Partial = a.out.HPWL, a.out.Feasible, a.out.Partial
	}
	switch {
	case a.err == nil:
		r.Status = StatusLost
	case errors.Is(a.err, context.Canceled) || errors.Is(a.err, context.DeadlineExceeded):
		r.Status = StatusCancelled
		r.Err = a.err.Error()
	default:
		r.Status = StatusFailed
		r.Err = a.err.Error()
	}
	if won {
		if a.err == nil && a.out != nil && a.out.Feasible {
			r.Status = StatusWon
		} else {
			r.Status = StatusBestEffort
		}
	}
	return r
}

// raceError explains a race that produced nothing usable: the context error
// when the budget expired, otherwise the highest-priority contender failure.
func raceError(ctx context.Context, contenders []Contender, arrived []*arrival) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("portfolio: budget exhausted with no usable result: %w", err)
	}
	for i, a := range arrived {
		if a != nil && a.err != nil {
			return fmt.Errorf("portfolio: every contender failed; first (%s): %w", contenders[i].Name, a.err)
		}
	}
	return errors.New("portfolio: every contender returned an empty result")
}

// SplitWorkers divides a total kernel worker budget across n contenders:
// each gets at least one, the remainder goes to the highest-priority
// (lowest-index) contenders, and the layout depends only on (total, n) so
// worker budgets — and therefore solver trajectories — are deterministic.
// When total < n the nominal budget oversubscribes by design; the shared
// internal/parallel pool still bounds the goroutines actually running.
func SplitWorkers(total, n int) []int {
	if n <= 0 {
		return nil
	}
	if total < n {
		total = n
	}
	out := make([]int, n)
	base, rem := total/n, total%n
	for i := range out {
		out[i] = base
		if i < rem {
			out[i]++
		}
	}
	return out
}

func arrivalFields(a *arrival) []trace.Field {
	fs := []trace.Field{
		{Key: "contender", Val: float64(a.idx)},
		{Key: "complete", Val: boolField(a.err == nil)},
	}
	if a.out != nil {
		fs = append(fs,
			trace.Field{Key: "feasible", Val: boolField(a.out.Feasible)},
			trace.Field{Key: "partial", Val: boolField(a.out.Partial)},
			trace.Field{Key: "hpwl", Val: a.out.HPWL})
	}
	return fs
}

func boolField(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func sum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
