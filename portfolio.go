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
	// Empty selects the contender set and its knobs by instance size (see
	// docs/PORTFOLIO.md). An explicit list races with exactly the caller's
	// Config, so a portfolio win stays bitwise reproducible as a solo run
	// of the winning method.
	Contenders []Method
}

// AnnealKnobs tune the simulated-annealing engine through Config without
// exposing the full anneal.Options surface. Zero values keep defaults.
type AnnealKnobs struct {
	// CoolingRate is the geometric temperature decay (default 0.93).
	CoolingRate float64
	// MovesPerTemp is the number of proposed moves per temperature step
	// (default 30·n).
	MovesPerTemp int
}

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

	contenders, d := defaultRace(nl.N())
	// The size defaults fill only the options the caller left at zero:
	// explicit settings always win.
	if cfg.Global.Alpha0 == 0 {
		cfg.Global.Alpha0 = d.Global.Alpha0
	}
	if cfg.Global.ADMMMu0 == 0 {
		cfg.Global.ADMMMu0 = d.Global.ADMMMu0
	}
	if cfg.Anneal.CoolingRate == 0 {
		cfg.Anneal.CoolingRate = d.Anneal.CoolingRate
	}
	if cfg.Anneal.MovesPerTemp == 0 {
		cfg.Anneal.MovesPerTemp = d.Anneal.MovesPerTemp
	}
	return contenders, cfg, nil
}

// defaultRace returns the contenders a race without an explicit list runs
// for an instance of n modules, and the knobs it runs them with, set in the
// Config fields they tune (zero keeps the engine default):
//
//   - n ≤ 40: the full SDP converges in well under a second and wins on
//     quality; SA and the analytic baseline are cheap hedges that sometimes
//     legalize first on loose outlines. α0 = 0.5 is the paper's
//     small-instance setting.
//   - n ≤ 120: the flat SDP still wins on quality but SA closes the
//     wall-clock gap; slower cooling keeps SA competitive on HPWL.
//   - larger: the hierarchical SDP replaces the flat solve, α0 = 1024 is the
//     paper's n100/n200 setting, and SA gets a longer schedule.
func defaultRace(n int) ([]Method, Config) {
	var d Config
	switch {
	case n <= 40:
		d.Global.Alpha0, d.Global.ADMMMu0 = 0.5, 8
		d.Anneal.CoolingRate = 0.90
		return []Method{MethodSDP, MethodSA, MethodAnalytic}, d
	case n <= 120:
		d.Global.Alpha0 = 512
		d.Anneal.CoolingRate = 0.93
		return []Method{MethodSDP, MethodSA}, d
	default:
		d.Global.Alpha0 = 1024
		d.Anneal.CoolingRate, d.Anneal.MovesPerTemp = 0.95, 60
		return []Method{MethodSDPHier, MethodSA}, d
	}
}
