package sdpfloor

import (
	"context"
	"fmt"
	"io"

	"sdpfloor/internal/core"
	"sdpfloor/internal/netlist"
)

// ECO (engineering change order) types, re-exported for API users.
type (
	// Delta is a named edit against a netlist: add/remove/resize modules,
	// add/remove nets, move pre-placed blocks. See Resolve.
	Delta = netlist.Delta
	// DeltaModule is one added module in a Delta.
	DeltaModule = netlist.DeltaModule
	// DeltaResize adjusts one module's shape constraints in a Delta.
	DeltaResize = netlist.DeltaResize
	// DeltaMove repositions one pre-placed module in a Delta.
	DeltaMove = netlist.DeltaMove
	// DeltaNet is one added net in a Delta.
	DeltaNet = netlist.DeltaNet
	// NamedPoint is a by-name module center — the portable form of a
	// previous placement that ECO re-solves are seeded from.
	NamedPoint = netlist.NamedPoint
	// Prior seeds the convex iteration from an external previous solution;
	// set GlobalOptions.Prior directly for low-level control (Resolve and
	// ResolveSeeded construct it for you).
	Prior = core.Prior
)

// Incremental reports how an ECO re-solve reused the previous solution.
type Incremental struct {
	// Reused counts modules whose prior center came from the previous
	// placement (pre-placed modules sit at their fixed position and count
	// here when the previous placement knew them).
	Reused int `json:"reused"`
	// Seeded counts modules with no previous center — new blocks seeded at
	// their net neighbors' centroid (or the outline center).
	Seeded int `json:"seeded"`
	// SolverItersSaved is the previous solve's total sub-problem solver
	// iterations minus this re-solve's — how much of the previous run's
	// dominant cost the warm entry avoided. The previous full solve is the
	// available stand-in for a cold solve of the mutated netlist (the two
	// netlists differ by a small delta); the differential suite measures
	// the saving against true cold re-solves. Signed: negative when the
	// warm re-solve took more sub-problem iterations than its parent. Zero
	// when the previous floorplan carries no solver diagnostics (e.g. an SA
	// result).
	SolverItersSaved int `json:"solverItersSaved"`
}

// ReadDeltaJSON parses an ECO delta from JSON (unknown fields rejected).
func ReadDeltaJSON(r io.Reader) (Delta, error) { return netlist.ReadDeltaJSON(r) }

// WriteDeltaJSON serializes an ECO delta as indented JSON.
func WriteDeltaJSON(w io.Writer, d Delta) error { return d.WriteJSON(w) }

// GenerateDelta derives a reproducible ECO delta for nl from a seed — the
// mutation generator the differential and metamorphic ECO suites share.
func GenerateDelta(nl *Netlist, seed int64, nops int) Delta {
	return netlist.GenerateDelta(nl, seed, nops)
}

// Resolve applies an ECO delta to a solved design and re-solves the
// mutated netlist warm from the previous floorplan: surviving modules keep
// their previous centers, new modules are seeded from their net neighbors'
// centroid, and removed modules simply drop out of the prior (their pair
// constraints leave the working set with them). It returns the new
// floorplan — with Floorplan.Incremental reporting the reuse — and the
// mutated netlist, leaving nl and prev untouched.
//
// An empty delta short-circuits: the previous floorplan is returned as a
// bitwise-identical copy with no solver work and no trace events.
//
// Only MethodSDP supports warm re-entry; Resolve rejects other methods.
// prev may come from any method as long as it carries one center per
// module of nl. Its global-stage centers are preferred over the legalized
// ones when both cover nl (see prevCenters).
func Resolve(nl *Netlist, prev *Floorplan, d Delta, cfg Config) (*Floorplan, *Netlist, error) {
	return ResolveContext(context.Background(), nl, prev, d, cfg)
}

// ResolveContext is Resolve with cancellation, with the same semantics as
// PlaceContext: cancellation mid-solve returns the wrapped context error
// and a partial floorplan when an iterate exists.
func ResolveContext(ctx context.Context, nl *Netlist, prev *Floorplan, d Delta, cfg Config) (*Floorplan, *Netlist, error) {
	if nl == nil || nl.N() == 0 {
		return nil, nil, fmt.Errorf("sdpfloor: eco: empty netlist")
	}
	pts := prevCenters(nl, prev)
	if pts == nil {
		return nil, nil, fmt.Errorf("sdpfloor: eco: previous floorplan does not cover the netlist's %d modules", nl.N())
	}
	if d.Empty() {
		fp := cloneFloorplan(prev)
		fp.Incremental = &Incremental{
			Reused:           nl.N(),
			SolverItersSaved: prevSolverIters(prev),
		}
		return fp, nl, nil
	}
	prevPts := make([]NamedPoint, nl.N())
	for i, m := range nl.Modules {
		prevPts[i] = NamedPoint{Name: m.Name, X: pts[i].X, Y: pts[i].Y}
	}
	mutated, err := d.Apply(nl)
	if err != nil {
		return nil, nil, fmt.Errorf("sdpfloor: eco: %w", err)
	}
	fp, err := ResolveSeeded(ctx, mutated, prevPts, prevSolverIters(prev), cfg)
	return fp, mutated, err
}

// ResolveSeeded re-solves nl warm from a by-name prior placement — the
// replay-safe ECO entry the service uses (after a crash, the journal holds
// the post-delta netlist and the prior as NamedPoints, not the parent
// Floorplan). prevSolverIters, when positive, is the previous solve's
// GlobalResult.SolverIterations and feeds Incremental.SolverItersSaved.
func ResolveSeeded(ctx context.Context, nl *Netlist, prev []NamedPoint, prevSolverIters int, cfg Config) (*Floorplan, error) {
	if cfg.Method != "" && cfg.Method != MethodSDP {
		return nil, fmt.Errorf("sdpfloor: eco: incremental re-solve supports only method %q, got %q", MethodSDP, cfg.Method)
	}
	cfg.Method = MethodSDP
	seeds, reused, seeded := netlist.SeedFromPrior(nl, prev, cfg.Outline.Center())
	cfg.Global.Prior = &core.Prior{Centers: seeds}
	fp, err := PlaceContext(ctx, nl, cfg)
	if fp != nil {
		inc := &Incremental{Reused: reused, Seeded: seeded}
		if fp.GlobalResult != nil && prevSolverIters > 0 {
			inc.SolverItersSaved = prevSolverIters - fp.GlobalResult.SolverIterations
		}
		fp.Incremental = inc
	}
	return fp, err
}

// prevCenters extracts one previous center per module of nl from prev. The
// global-stage centers are preferred over the legalized ones: the convex
// iteration is re-entered warm, and the rank-2 lift of its own converged
// iterate is far closer to an SDP fixed point than the legalizer's snapped
// rectangles, so the unchanged part of the design re-converges in fewer
// iterations. Nil when prev cannot cover nl.
func prevCenters(nl *Netlist, prev *Floorplan) []Point {
	if prev == nil {
		return nil
	}
	if len(prev.Global) == nl.N() {
		return prev.Global
	}
	if len(prev.Centers) == nl.N() {
		return prev.Centers
	}
	return nil
}

func prevSolverIters(prev *Floorplan) int {
	if prev.GlobalResult != nil {
		return prev.GlobalResult.SolverIterations
	}
	return 0
}

// cloneFloorplan deep-copies the slices of prev (the diagnostics structs
// are shared by reference; they are read-only after a solve).
func cloneFloorplan(prev *Floorplan) *Floorplan {
	cp := *prev
	cp.Global = append([]Point(nil), prev.Global...)
	cp.Rects = append([]Rect(nil), prev.Rects...)
	cp.Centers = append([]Point(nil), prev.Centers...)
	cp.Portfolio = append([]PortfolioReport(nil), prev.Portfolio...)
	return &cp
}
