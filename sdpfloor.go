// Package sdpfloor is a global floorplanner for VLSI physical design based
// on semidefinite programming with convex iteration, reproducing "Global
// Floorplanning via Semidefinite Programming" (DAC 2023). It bundles:
//
//   - the SDP convex-iteration global floorplanner (the paper's
//     contribution) with all of its enhancements — Manhattan-adaptive
//     objective, hyper-edge handling, boundary pins, fixed outlines,
//     pre-placed modules, and non-square adaptive distance constraints;
//   - the baselines it is evaluated against: attractor–repeller (AR),
//     push–pull (PP), quadratic placement (QP), a Parquet-style
//     sequence-pair simulated annealer, and a density-driven analytical
//     floorplanner;
//   - a legalization pipeline (constraint graphs + convex shape
//     optimization) shared by all methods;
//   - pure-Go SDP solvers (interior point and ADMM) replacing MOSEK;
//   - GSRC-format benchmark I/O and a synthetic benchmark generator with
//     the statistics of the suites used in the paper.
//
// The quickest entry point is Place, which runs global floorplanning and
// legalization end to end:
//
//	design, _ := sdpfloor.LoadBenchmark("n10", 1, 0.15)
//	fp, err := sdpfloor.Place(design.Netlist, sdpfloor.Config{Outline: design.Outline})
//
// See the examples directory for boundary pins, pre-placed modules, soft
// macros, and method comparisons.
package sdpfloor

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"

	"sdpfloor/internal/analytic"
	"sdpfloor/internal/anneal"
	"sdpfloor/internal/baseline"
	"sdpfloor/internal/cluster"
	"sdpfloor/internal/core"
	"sdpfloor/internal/geom"
	"sdpfloor/internal/gsrc"
	"sdpfloor/internal/legalize"
	"sdpfloor/internal/mcnc"
	"sdpfloor/internal/netlist"
	"sdpfloor/internal/trace"
)

// Core geometric and netlist types, re-exported for API users.
type (
	// Point is a 2-D location.
	Point = geom.Point
	// Rect is an axis-aligned rectangle.
	Rect = geom.Rect
	// Module is a design block with a minimum-area constraint.
	Module = netlist.Module
	// Pad is a fixed terminal (I/O pad).
	Pad = netlist.Pad
	// Net is a hyperedge connecting modules and pads.
	Net = netlist.Net
	// Netlist is a complete floorplanning instance.
	Netlist = netlist.Netlist
	// GlobalOptions configure the SDP convex-iteration floorplanner.
	GlobalOptions = core.Options
	// GlobalResult is the raw convex-iteration output.
	GlobalResult = core.Result
	// DistanceCap is a proximity constraint D_IJ ≤ MaxDist² (e.g. a timing
	// requirement between two blocks); set in GlobalOptions.DistanceCaps.
	DistanceCap = core.DistanceCap
	// Design is a benchmark instance (netlist + outline).
	Design = gsrc.Design
	// LegalFloorplan is a legalized floorplan.
	LegalFloorplan = legalize.Result
	// TraceRecorder receives structured per-iteration solver telemetry; set
	// one in Config.Trace. See internal/trace and docs/TRACING.md.
	TraceRecorder = trace.Recorder
)

// Method identifies a global floorplanning algorithm.
type Method string

// Available global floorplanning methods.
const (
	MethodSDP      Method = "sdp"      // this paper: SDP convex iteration
	MethodSDPHier  Method = "sdp-hier" // hierarchical SDP (the paper's future-work extension)
	MethodAR       Method = "ar"       // attractor–repeller [1][8]
	MethodPP       Method = "pp"       // push–pull / UFO [2][9]
	MethodQP       Method = "qp"       // quadratic placement [13]
	MethodSA       Method = "sa"       // Parquet-style simulated annealing [20]
	MethodAnalytic Method = "analytic" // density-driven analytical [7]

	// MethodPortfolio races several of the methods above concurrently under
	// one deadline and returns the first legalized plan (see Config.Portfolio
	// and docs/PORTFOLIO.md). It is deliberately NOT in Methods: that slice
	// is the solo-engine universe portfolio contenders are drawn from, and
	// it drives per-method comparisons (examples/compare, cmd/floorplot)
	// where a racing meta-method would be self-referential.
	MethodPortfolio Method = "portfolio"
)

// Methods lists all supported solo methods in evaluation order.
var Methods = []Method{MethodSDP, MethodSDPHier, MethodAR, MethodPP, MethodQP, MethodSA, MethodAnalytic}

// Config configures Place.
type Config struct {
	// Outline is the fixed outline; required.
	Outline Rect
	// Global configures the SDP floorplanner. Zero value: paper defaults
	// with all enhancements enabled and the outline wired in.
	Global GlobalOptions
	// Method selects the global algorithm (default MethodSDP).
	Method Method
	// Seed drives the stochastic methods (AR/PP restarts, SA, analytic).
	Seed int64
	// SkipEnhancements leaves the Section IV-B techniques off for
	// MethodSDP (the "basic" algorithm; mostly useful for ablations).
	SkipEnhancements bool
	// Anneal tunes the simulated-annealing engine (MethodSA and the "sa"
	// portfolio contender); zero values keep the annealer's defaults.
	Anneal AnnealKnobs
	// Portfolio configures MethodPortfolio (ignored for other methods).
	Portfolio PortfolioConfig
	// Trace, when non-nil and enabled, receives one structured event per
	// solver iteration from every iterative stage of the run: the convex
	// iteration ("core"), its SDP sub-problem solves ("ipm"/"admm"), and the
	// legalizer's L-BFGS shape rounds ("lbfgs"). Ignored when
	// Global.Trace is already set (the explicit recorder wins). Event
	// content is deterministic across worker counts; only timestamps vary.
	Trace TraceRecorder
}

// Floorplan is the end-to-end result of Place.
type Floorplan struct {
	// Global holds the module centers produced by the global stage.
	Global []Point
	// Rects is the legalized floorplan.
	Rects []Rect
	// Centers are the legalized module centers.
	Centers []Point
	// HPWL is the half-perimeter wirelength after legalization, the metric
	// Tables II–III report.
	HPWL float64
	// Feasible reports whether legalization fit the outline.
	Feasible bool
	// GlobalResult carries the convex-iteration diagnostics (MethodSDP
	// only).
	GlobalResult *GlobalResult
	// Winner names the engine that produced this floorplan (MethodPortfolio
	// only; empty otherwise).
	Winner Method
	// Portfolio carries the per-contender race outcomes (MethodPortfolio
	// only), in contender priority order.
	Portfolio []PortfolioReport
	// Incremental reports previous-solution reuse (ECO re-solves through
	// Resolve/ResolveSeeded only; nil otherwise).
	Incremental *Incremental
}

// Place runs a global floorplanning method and the shared legalizer end to
// end, returning the legalized floorplan and its HPWL.
func Place(nl *Netlist, cfg Config) (*Floorplan, error) {
	return PlaceContext(context.Background(), nl, cfg)
}

// PlaceContext is Place with cancellation: the context is threaded through
// the global stage (SDP convex iteration, sub-problem IPM/ADMM solves,
// baseline L-BFGS runs, SA temperature steps) and the legalizer, all of
// which check it at iteration boundaries. When the context is cancelled or
// its deadline expires mid-solve, PlaceContext returns promptly with the
// wrapped context error and, when the global stage had produced an iterate,
// a partial Floorplan carrying the global centers (and, for MethodSDP, the
// convex-iteration diagnostics) without legalization.
func PlaceContext(ctx context.Context, nl *Netlist, cfg Config) (*Floorplan, error) {
	if nl == nil || nl.N() == 0 {
		return nil, errors.New("sdpfloor: empty netlist")
	}
	if cfg.Outline.W() <= 0 || cfg.Outline.H() <= 0 {
		return nil, errors.New("sdpfloor: config needs an outline with positive area")
	}
	if cfg.Method == "" {
		cfg.Method = MethodSDP
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.Global.Trace == nil {
		cfg.Global.Trace = cfg.Trace
	}

	fp := &Floorplan{}
	switch cfg.Method {
	case MethodSDP:
		opt := sdpOptions(cfg)
		if opt.Context == nil {
			opt.Context = ctx
		}
		res, err := GlobalFloorplan(nl, opt)
		if res != nil {
			fp.Global = res.Centers
			fp.GlobalResult = res
		}
		if err != nil {
			return partialOrNil(fp, err), err
		}
	case MethodSDPHier:
		res, err := cluster.Solve(nl, cluster.Options{
			Outline: cfg.Outline,
			Top:     cfg.Global,
			Context: ctx,
			Trace:   cfg.Global.Trace,
		})
		if err != nil {
			return nil, err
		}
		fp.Global = res.Centers
	case MethodAR:
		res, err := baseline.SolveAR(nl, baseline.AROptions{Seed: cfg.Seed, Context: ctx, Trace: cfg.Global.Trace})
		if res != nil {
			fp.Global = res.Centers
		}
		if err != nil {
			return partialOrNil(fp, err), err
		}
	case MethodPP:
		res, err := baseline.SolvePP(nl, baseline.PPOptions{Seed: cfg.Seed, Context: ctx, Trace: cfg.Global.Trace})
		if res != nil {
			fp.Global = res.Centers
		}
		if err != nil {
			return partialOrNil(fp, err), err
		}
	case MethodQP:
		// QP is a single closed-form solve: no meaningful partial exists, so
		// cancellation and failure both return nil.
		res, err := baseline.SolveQPOpts(nl, baseline.QPOptions{Context: ctx, Trace: cfg.Global.Trace})
		if err != nil {
			return nil, err
		}
		fp.Global = res.Centers
	case MethodSA:
		res, err := anneal.Solve(nl, anneal.Options{
			Outline: cfg.Outline, Seed: cfg.Seed, Context: ctx,
			MovesPerTemp: cfg.Anneal.MovesPerTemp, CoolingRate: cfg.Anneal.CoolingRate,
			Trace: cfg.Global.Trace,
		})
		if res != nil {
			// SA already produces a legal floorplan; no legalization needed.
			fp.Global = res.Centers
			fp.Rects = res.Rects
			fp.Centers = res.Centers
			fp.HPWL = res.HPWL
			fp.Feasible = res.Feasible
		}
		if err != nil {
			return partialOrNil(fp, err), err
		}
		return fp, nil
	case MethodAnalytic:
		res, err := analytic.Solve(nl, analytic.Options{Outline: cfg.Outline, Seed: cfg.Seed, Context: ctx, Trace: cfg.Global.Trace})
		if res != nil {
			fp.Global = res.Centers
		}
		if err != nil {
			return partialOrNil(fp, err), err
		}
	case MethodPortfolio:
		// The race legalizes inside each contender; it never falls through
		// to the shared legalize step below.
		return placePortfolio(ctx, nl, cfg)
	default:
		return nil, fmt.Errorf("sdpfloor: unknown method %q", cfg.Method)
	}

	leg, err := legalize.Legalize(nl, fp.Global, legalize.Options{Outline: cfg.Outline, Context: ctx, Trace: cfg.Global.Trace})
	if err != nil {
		return partialOrNil(fp, err), err
	}
	fp.Rects = leg.Rects
	fp.Centers = leg.Centers
	fp.HPWL = leg.HPWL
	fp.Feasible = leg.Feasible
	return fp, nil
}

// partialOrNil keeps the partial floorplan only for cancellation errors,
// where the global-stage progress is meaningful; genuine solve failures
// return nil as before.
func partialOrNil(fp *Floorplan, err error) *Floorplan {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return fp
	}
	return nil
}

// sdpOptions derives the core options from the config.
func sdpOptions(cfg Config) GlobalOptions {
	opt := cfg.Global
	if !cfg.SkipEnhancements && isZeroEnhancements(opt) {
		opt = opt.WithAllEnhancements()
	}
	if opt.Outline == nil {
		o := cfg.Outline
		opt.Outline = &o
	}
	// Lazy constraints pay off beyond a few dozen modules.
	if !opt.LazyConstraints && cfg.Global.MaxIter == 0 {
		opt.LazyConstraints = true
	}
	return opt
}

func isZeroEnhancements(o GlobalOptions) bool {
	return !o.NonSquare && !o.Manhattan && !o.HyperEdge
}

// GlobalFloorplan runs only the SDP convex-iteration global stage
// (Algorithm 1) without legalization.
func GlobalFloorplan(nl *Netlist, opt GlobalOptions) (*GlobalResult, error) {
	return core.Solve(nl, opt)
}

// Legalize turns global centers into a legal floorplan inside the outline
// using the shared legalization pipeline.
func Legalize(nl *Netlist, centers []Point, outline Rect) (*LegalFloorplan, error) {
	return legalize.Legalize(nl, centers, legalize.Options{Outline: outline})
}

// LegalizeSOCP legalizes with the paper's exact formulation: the joint
// shape-and-position second-order cone program (w·h ≥ s as 2×2 PSD blocks)
// solved on the interior-point solver. Much slower than Legalize; intended
// for small designs and for validating the default pipeline.
func LegalizeSOCP(nl *Netlist, centers []Point, outline Rect) (*LegalFloorplan, error) {
	return legalize.SOCPShapes(nl, centers, legalize.Options{Outline: outline})
}

// LoadBenchmark generates one of the built-in synthetic benchmarks
// ("n10"…"n200", "ami33", "ami49") with the given outline height:width
// aspect (1 or 2 in the paper) and whitespace fraction (0 → 15%).
func LoadBenchmark(name string, aspect, whitespace float64) (*Design, error) {
	return gsrc.Builtin(name, aspect, whitespace)
}

// LoadDesignDir reads a benchmark from disk with format sniffing: when
// <dir>/<name>.yal exists (or name itself ends in ".yal", or <dir>/<name>
// is a file whose first statement token is MODULE), the design is parsed as
// MCNC YAL via internal/mcnc; otherwise as the GSRC bookshelf triple
// <name>.blocks/.nets/.pl. A missing or degenerate outline falls back to
// OutlineFor with the given aspect and whitespace.
func LoadDesignDir(dir, name string, aspect, whitespace float64) (*Design, error) {
	if path, ok := sniffYAL(dir, name); ok {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		yd, err := mcnc.Parse(bufio.NewReader(f))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		nl, outline, err := mcnc.ToNetlist(yd)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if outline.W() <= 0 || outline.H() <= 0 {
			outline = OutlineFor(nl, aspect, whitespace)
		}
		return &Design{Name: strings.TrimSuffix(name, ".yal"), Netlist: nl, Outline: outline}, nil
	}
	d, err := gsrc.ReadDesign(dir, name)
	if err != nil {
		return nil, err
	}
	if d.Outline.W() <= 0 || d.Outline.H() <= 0 {
		d.Outline = OutlineFor(d.Netlist, aspect, whitespace)
	}
	return d, nil
}

// sniffYAL decides whether (dir, name) points at a YAL file and returns its
// path. The checks, in order: an explicit .yal suffix on name, a sibling
// <name>.yal file, and finally a content sniff of <dir>/<name> for a
// leading MODULE keyword.
func sniffYAL(dir, name string) (string, bool) {
	if strings.HasSuffix(name, ".yal") {
		return filepath.Join(dir, name), true
	}
	if p := filepath.Join(dir, name+".yal"); fileExists(p) {
		return p, true
	}
	p := filepath.Join(dir, name)
	if !fileExists(p) {
		return "", false
	}
	head := make([]byte, 512)
	f, err := os.Open(p)
	if err != nil {
		return "", false
	}
	n, _ := f.Read(head)
	f.Close()
	for _, line := range strings.Split(string(head[:n]), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		return p, strings.HasPrefix(strings.ToUpper(line), "MODULE ")
	}
	return "", false
}

func fileExists(p string) bool {
	st, err := os.Stat(p)
	return err == nil && !st.IsDir()
}

// ReadNetlistJSON parses a netlist from the by-name JSON schema (see
// internal/netlist: modules with minArea/maxAspect/fixed, pads with
// positions, nets referencing both by name).
func ReadNetlistJSON(r io.Reader) (*Netlist, error) {
	return netlist.ReadJSON(r)
}

// WriteNetlistJSON serializes a netlist to the JSON schema.
func WriteNetlistJSON(w io.Writer, nl *Netlist) error {
	return nl.WriteJSON(w)
}

// CheckLayout validates a floorplan: every rectangle inside the outline and
// no overlaps (within tol). Returns nil when legal.
func CheckLayout(rects []Rect, outline Rect, tol float64) error {
	return geom.CheckLayout(rects, outline, tol)
}

// HPWL evaluates the half-perimeter wirelength of module centers against
// the netlist (including pad pins).
func HPWL(nl *Netlist, centers []Point) float64 {
	return nl.HPWL(centers)
}

// OutlineFor computes a fixed outline for a netlist: area =
// TotalArea·(1+whitespace), height/width = aspect, anchored at the origin.
func OutlineFor(nl *Netlist, aspect, whitespace float64) Rect {
	if aspect <= 0 {
		aspect = 1
	}
	if whitespace <= 0 {
		whitespace = 0.15
	}
	w := math.Sqrt(nl.TotalArea() * (1 + whitespace) / aspect)
	return Rect{MinX: 0, MinY: 0, MaxX: w, MaxY: aspect * w}
}
