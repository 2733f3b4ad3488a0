package sdpfloor

import (
	"context"
	"fmt"

	"sdpfloor/internal/portfolio"
	"sdpfloor/internal/trace"
)

// Portfolio types, re-exported for API users.
type (
	// PortfolioReport is one contender's outcome in a finished race.
	PortfolioReport = portfolio.Report
	// PortfolioKnobs are the per-size hyperparameters of a tuning entry.
	PortfolioKnobs = portfolio.Knobs
	// PortfolioTable is a persisted per-size default table mapping instance
	// size to a contender set and knobs; see LoadPortfolioTable.
	PortfolioTable = portfolio.Table
)

// Contender race-status values reported in PortfolioReport.Status.
const (
	PortfolioWon        = portfolio.StatusWon
	PortfolioBestEffort = portfolio.StatusBestEffort
	PortfolioLost       = portfolio.StatusLost
	PortfolioCancelled  = portfolio.StatusCancelled
	PortfolioFailed     = portfolio.StatusFailed
)

// PortfolioConfig configures MethodPortfolio.
type PortfolioConfig struct {
	// Contenders are the solo methods to race, in priority order (the
	// first contender wins ties). Every entry must come from Methods.
	// Empty selects the contender set — and tuning knobs — from Table
	// (or the built-in defaults) by instance size.
	Contenders []Method
	// Table overrides the built-in per-size default table. It is consulted
	// only when Contenders is empty: an explicit contender list races with
	// exactly the caller's Config, so a portfolio win stays bitwise
	// reproducible as a solo run of the winning method.
	Table *PortfolioTable
}

// AnnealKnobs tune the simulated-annealing engine through Config without
// exposing the full anneal.Options surface. Zero values keep defaults.
type AnnealKnobs struct {
	// CoolingRate is the geometric temperature decay (default 0.93).
	CoolingRate float64
	// MovesPerTemp is the number of proposed moves per temperature step
	// (default 30·n).
	MovesPerTemp int
	// MinTemp terminates the schedule (default 1e-5 of the initial temp).
	MinTemp float64
}

// LoadPortfolioTable reads a tuning table (the JSON format shipped in
// results/portfolio_defaults.json) and validates its contender names
// against the solo-method universe.
func LoadPortfolioTable(path string) (*PortfolioTable, error) {
	t, err := portfolio.LoadTable(path)
	if err != nil {
		return nil, err
	}
	if err := t.Validate(func(name string) bool { return isSoloMethod(Method(name)) }); err != nil {
		return nil, err
	}
	return t, nil
}

// DefaultPortfolioTable returns the built-in per-size default table.
func DefaultPortfolioTable() *PortfolioTable { return portfolio.DefaultTable() }

func isSoloMethod(m Method) bool {
	for _, s := range Methods {
		if m == s {
			return true
		}
	}
	return false
}

// placePortfolio runs MethodPortfolio: resolve the contender set, race the
// engines under ctx, and return the winner's floorplan annotated with the
// per-contender reports. Worker budgeting: Config.Global.Workers is the
// total budget, split across contenders inside the race (each contender
// gets at least one; the shared pool bounds actual parallelism).
func placePortfolio(ctx context.Context, nl *Netlist, cfg Config) (*Floorplan, error) {
	contenders, raceCfg, err := resolveContenders(nl, cfg)
	if err != nil {
		return nil, err
	}
	rec := raceCfg.Global.Trace

	entries := make([]portfolio.Contender, len(contenders))
	for i, m := range contenders {
		m := m
		sub := raceCfg
		sub.Method = m
		sub.Portfolio = PortfolioConfig{}
		// The contender's entire solver tree — engine, sub-solvers,
		// legalizer — reports under its method name as the trace run id,
		// so the interleaved streams of concurrent contenders stay
		// separable (and tracesum can pair runs) downstream.
		sub.Global.Trace = trace.WithRun(rec, string(m))
		entries[i] = portfolio.Contender{
			Name: string(m),
			Run: func(cctx context.Context, workers int) (*portfolio.Outcome, error) {
				c := sub
				c.Global.Workers = workers
				fp, err := PlaceContext(cctx, nl, c)
				if fp == nil {
					return nil, err
				}
				out := &portfolio.Outcome{Payload: fp}
				if err != nil {
					// Cancellation partial: only the raw global centers
					// exist, so score those.
					out.Partial = true
					if fp.Global != nil {
						out.HPWL = nl.HPWL(fp.Global)
					}
					return out, err
				}
				out.HPWL = fp.HPWL
				out.Feasible = fp.Feasible
				return out, nil
			},
		}
	}

	res, raceErr := portfolio.Race(ctx, entries, portfolio.Options{
		Workers: raceCfg.Global.Workers,
		Trace:   rec,
	})
	if res == nil || res.Winner < 0 || res.Outcome == nil {
		return nil, raceErr
	}
	fp := res.Outcome.Payload.(*Floorplan)
	fp.Winner = contenders[res.Winner]
	fp.Portfolio = res.Reports
	// raceErr is non-nil exactly when the best outcome is a deadline
	// partial — the same partial-result-with-error contract the solo
	// methods follow.
	return fp, raceErr
}

// resolveContenders produces the contender list and the (possibly
// knob-tuned) config the race runs with.
func resolveContenders(nl *Netlist, cfg Config) ([]Method, Config, error) {
	if len(cfg.Portfolio.Contenders) > 0 {
		seen := make(map[Method]bool, len(cfg.Portfolio.Contenders))
		for _, m := range cfg.Portfolio.Contenders {
			if !isSoloMethod(m) {
				return nil, cfg, fmt.Errorf("sdpfloor: portfolio contender %q is not a solo method", m)
			}
			if seen[m] {
				return nil, cfg, fmt.Errorf("sdpfloor: portfolio contender %q listed twice", m)
			}
			seen[m] = true
		}
		return cfg.Portfolio.Contenders, cfg, nil
	}

	table := cfg.Portfolio.Table
	if table == nil {
		table = portfolio.DefaultTable()
	}
	entry, ok := table.Pick(nl.N())
	if !ok {
		return nil, cfg, fmt.Errorf("sdpfloor: portfolio tuning table is empty")
	}
	contenders := make([]Method, len(entry.Contenders))
	for i, name := range entry.Contenders {
		m := Method(name)
		if !isSoloMethod(m) {
			return nil, cfg, fmt.Errorf("sdpfloor: tuning table contender %q is not a solo method", name)
		}
		contenders[i] = m
	}
	// Table-selected races inherit the entry's knobs wherever the caller
	// left the corresponding option at its zero value — explicit settings
	// always win over learned defaults.
	k := entry.Knobs
	if cfg.Global.Alpha0 == 0 && k.Alpha0 > 0 {
		cfg.Global.Alpha0 = k.Alpha0
	}
	if cfg.Global.ADMMMu0 == 0 && k.ADMMMu0 > 0 {
		cfg.Global.ADMMMu0 = k.ADMMMu0
	}
	if cfg.Anneal.CoolingRate == 0 && k.SACoolingRate > 0 {
		cfg.Anneal.CoolingRate = k.SACoolingRate
	}
	if cfg.Anneal.MovesPerTemp == 0 && k.SAMovesPerTemp > 0 {
		cfg.Anneal.MovesPerTemp = k.SAMovesPerTemp
	}
	return contenders, cfg, nil
}
