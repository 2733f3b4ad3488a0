package experiments

import (
	"fmt"
	"io"
	"math"
	"time"

	"sdpfloor/internal/core"
	"sdpfloor/internal/gsrc"
	"sdpfloor/internal/legalize"
	"sdpfloor/internal/trace"
)

// fig4Variant is one technique stack from Fig. 4.
type fig4Variant struct {
	name string
	opt  func(o core.Options) core.Options
}

var fig4Variants = []fig4Variant{
	{"basic", func(o core.Options) core.Options { return o }},
	{"+nonsquare", func(o core.Options) core.Options { o.NonSquare = true; return o }},
	{"+manhattan", func(o core.Options) core.Options { o.NonSquare = true; o.Manhattan = true; return o }},
	{"+hyperedge", func(o core.Options) core.Options {
		o.NonSquare = true
		o.Manhattan = true
		o.HyperEdge = true
		return o
	}},
}

// Fig4Alphas returns the α sweep for the mode.
func Fig4Alphas(mode Mode) []float64 {
	switch {
	case mode.Quick:
		return []float64{8, 128}
	case mode.Full:
		return []float64{0.5, 2, 8, 32, 128, 512, 1024}
	default:
		return []float64{2, 8, 32, 128, 512}
	}
}

// Fig4Benchmarks returns the benchmark list for the mode.
func Fig4Benchmarks(mode Mode) []string {
	switch {
	case mode.Quick:
		return []string{"n10"}
	case mode.Full:
		return []string{"n10", "n30", "n50", "n100"}
	default:
		return []string{"n10", "n30"}
	}
}

// Fig4 regenerates the α–HPWL study: for each benchmark and each technique
// stack, run the convex iteration at a fixed α and report the legalized
// HPWL (empty cells mark legalization failures — the paper's missing
// points).
func Fig4(w io.Writer, mode Mode) error {
	fmt.Fprintln(w, "# Fig.4 — alpha vs legalized HPWL per technique stack")
	fmt.Fprintln(w, "benchmark,variant,alpha,hpwl,rank_ok,feasible")
	for _, bench := range Fig4Benchmarks(mode) {
		d, err := gsrc.Builtin(bench, 1, 0.15)
		if err != nil {
			return err
		}
		for _, v := range fig4Variants {
			for _, alpha := range Fig4Alphas(mode) {
				opt := v.opt(core.Options{
					Alpha0:            alpha,
					AlphaMaxDoublings: 1, // fixed α, as in the figure
					MaxIter:           fig4MaxIter(mode),
					Outline:           &d.Outline,
					LazyConstraints:   true,
				})
				res, err := core.Solve(d.Netlist, opt)
				if err != nil {
					return err
				}
				leg, err := legalize.Legalize(d.Netlist, res.Centers, legalize.Options{Outline: d.Outline})
				if err != nil {
					return err
				}
				hpwl := "" // empty = legalization failure (missing point)
				if leg.Feasible {
					hpwl = fmt.Sprintf("%.0f", leg.HPWL)
				}
				fmt.Fprintf(w, "%s,%s,%g,%s,%v,%v\n", bench, v.name, alpha, hpwl, res.RankOK, leg.Feasible)
			}
		}
	}
	return nil
}

func fig4MaxIter(mode Mode) int {
	if mode.Quick {
		return 6
	}
	return 15
}

// Fig5a regenerates the convergence study: the squared-distance objective
// ⟨B⁰, G⟩ per convex iteration for several fixed α. Larger α converges
// faster but can settle on a worse objective (the paper's observation).
func Fig5a(w io.Writer, mode Mode) error {
	fmt.Fprintln(w, "# Fig.5(a) — objective vs convex iteration for fixed alpha")
	fmt.Fprintln(w, "benchmark,alpha,iter,objective,wz")
	benches := []string{"n10"}
	if !mode.Quick {
		benches = append(benches, "n30")
	}
	if mode.Full {
		benches = append(benches, "n50", "n100")
	}
	alphas := []float64{4, 64, 1024}
	if mode.Quick {
		alphas = []float64{4, 1024}
	}
	for _, bench := range benches {
		d, err := gsrc.Builtin(bench, 1, 0.15)
		if err != nil {
			return err
		}
		for _, alpha := range alphas {
			opt := core.Options{
				Alpha0:            alpha,
				AlphaMaxDoublings: 1,
				MaxIter:           fig5aIters(mode),
				Epsilon:           1e-9, // record the full trajectory
				Outline:           &d.Outline,
				LazyConstraints:   true,
				NonSquare:         true,
			}
			// The series is read back from the solve's own trace: one
			// "core" iter event per convex iteration.
			ring := trace.NewRing(1 << 14)
			opt.Trace = ring
			if _, err := core.Solve(d.Netlist, opt); err != nil {
				return err
			}
			if n := ring.Dropped(); n > 0 {
				return fmt.Errorf("fig5a: %s alpha %g: trace ring dropped %d events", bench, alpha, n)
			}
			for _, ev := range ring.Snapshot() {
				if ev.Solver != "core" || ev.Kind != trace.KindIter {
					continue
				}
				fmt.Fprintf(w, "%s,%g,%d,%.1f,%.4g\n", bench, alpha,
					int(fieldVal(ev, "alphaIter")), fieldVal(ev, "obj"), fieldVal(ev, "wz"))
			}
		}
	}
	return nil
}

// fieldVal returns the value of the named field of ev (NaN when absent).
func fieldVal(ev trace.Event, key string) float64 {
	for _, f := range ev.Fields {
		if f.Key == key {
			return f.Val
		}
	}
	return math.NaN()
}

func fig5aIters(mode Mode) int {
	if mode.Quick {
		return 4
	}
	return 12
}

// Fig5b regenerates the runtime-scaling study: wall time of one sub-problem-1
// solve (one convex iteration) with the full O(n²) constraint set, for
// growing module counts, with a reference power law fitted to the
// measurements. The paper reports ≈n⁴ growth for MOSEK; our dense
// interior-point Schur complement grows faster (the m³ Cholesky over
// m = O(n²) constraints dominates sooner), which the fitted exponent shows.
func Fig5b(w io.Writer, mode Mode) error {
	fmt.Fprintln(w, "# Fig.5(b) — runtime per convex iteration vs module count (full constraint set)")
	fmt.Fprintln(w, "n,seconds")
	var ns []int
	switch {
	case mode.Quick:
		ns = []int{8, 12, 16}
	case mode.Full:
		ns = []int{10, 20, 30, 40, 50, 70, 100}
	default:
		ns = []int{10, 20, 30, 40}
	}
	var logN, logT []float64
	for _, n := range ns {
		spec := gsrc.Spec{Name: fmt.Sprintf("scale%d", n), Modules: n, Nets: 10 * n, Pads: 4 * n, Seed: int64(n)}
		d, err := gsrc.Generate(spec, 1, 0.15)
		if err != nil {
			return err
		}
		opt := core.Options{
			Alpha0:            8,
			AlphaMaxDoublings: 1,
			MaxIter:           1, // exactly one convex iteration
			Outline:           &d.Outline,
		}
		start := time.Now()
		if _, err := core.Solve(d.Netlist, opt); err != nil {
			return err
		}
		sec := time.Since(start).Seconds()
		fmt.Fprintf(w, "%d,%.3f\n", n, sec)
		logN = append(logN, math.Log(float64(n)))
		logT = append(logT, math.Log(sec))
	}
	slope := fitSlope(logN, logT)
	fmt.Fprintf(w, "# fitted runtime exponent: t ~ n^%.2f (paper's MOSEK reference: ~n^4)\n", slope)
	return nil
}

// fitSlope returns the least-squares slope of y on x.
func fitSlope(x, y []float64) float64 {
	n := float64(len(x))
	if n < 2 {
		return 0
	}
	var sx, sy, sxx, sxy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}
