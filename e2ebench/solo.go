package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"sdpfloor"
	"sdpfloor/internal/legalize"
)

// layoutTol is the CheckLayout tolerance for plans that claim feasibility.
const layoutTol = 1e-6

// baselineMethods are the comparison engines of baselines-n30, in run order.
var baselineMethods = []sdpfloor.Method{
	sdpfloor.MethodAR, sdpfloor.MethodPP, sdpfloor.MethodQP, sdpfloor.MethodAnalytic, sdpfloor.MethodSA,
}

// engineSeed is Config.Seed for every solo run. It drives the stochastic
// baselines (AR and PP restarts, SA, analytic); the SDP path ignores it.
const engineSeed = 1

// soloEnv runs Place once per method on one design, as a single sequential
// caller. The design and the engine seed are the same for every workload
// seed, because either one changes the work a pass does by up to 2x:
// differently generated or relabelled n30 netlists take 15 to 28 s in the
// SDP solver (84 to 125 sub-solves), and some engine seeds send one
// baseline's centers into the legalizer's sequence-pair fallback (11 s
// instead of 4 s of legalization). The workload seed changes nothing here.
type soloEnv struct {
	design  *sdpfloor.Design
	methods []sdpfloor.Method
	workers int

	// Set by a traced run.
	rec   *recorder
	calls []tracedCall
}

// tracedCall is one traced Place (or GlobalFloorplan + Legalize) call, on
// the recorder's clock; legalizeFrom is when legalization started, or -1
// for SA, which legalizes inside its own engine.
type tracedCall struct {
	method       sdpfloor.Method
	start, end   int64
	legalizeFrom int64
}

func setupSDP(o options) (passEnv, error) {
	return newSolo(o, []sdpfloor.Method{sdpfloor.MethodSDP})
}

func setupBaselines(o options) (passEnv, error) {
	return newSolo(o, baselineMethods)
}

func newSolo(o options, methods []sdpfloor.Method) (*soloEnv, error) {
	name := "n30"
	if o.tiny {
		name = "n10"
	}
	d, err := sdpfloor.LoadBenchmark(name, 1, 0.15)
	if err != nil {
		return nil, err
	}
	return &soloEnv{design: d, methods: methods, workers: runtime.NumCPU()}, nil
}

func (e *soloEnv) config(m sdpfloor.Method) sdpfloor.Config {
	cfg := sdpfloor.Config{Outline: e.design.Outline, Method: m, Seed: engineSeed}
	cfg.Global.Workers = e.workers
	return cfg
}

func (e *soloEnv) run(traced bool) []job {
	nl := e.design.Netlist
	jobs := make([]job, 0, len(e.methods))
	if traced {
		e.rec = newRecorder()
		e.calls = nil
	}
	for _, m := range e.methods {
		cfg := e.config(m)
		var fp *sdpfloor.Floorplan
		var err error
		var lat float64
		switch {
		case !traced:
			t0 := time.Now()
			fp, err = sdpfloor.Place(nl, cfg)
			lat = time.Since(t0).Seconds()
		case m == sdpfloor.MethodSDP:
			fp, err = e.tracedSDP(cfg)
		default:
			c := tracedCall{method: m, start: e.rec.now(), legalizeFrom: -1}
			cfg.Trace = e.rec
			fp, err = sdpfloor.Place(nl, cfg)
			c.end = e.rec.now()
			e.calls = append(e.calls, c)
		}
		if traced {
			c := e.calls[len(e.calls)-1]
			lat = float64(c.end-c.start) / 1e9
		}
		j := job{latency: lat}
		if err != nil {
			j.failure = fmt.Sprintf("%s: %v", m, err)
		} else {
			j.hpwl, j.feasible = fp.HPWL, fp.Feasible
			if f := checkPlan(nl, e.design.Outline, fp.Rects, fp.Centers, fp.HPWL, fp.Feasible); f != "" {
				j.failure = fmt.Sprintf("%s: %s", m, f)
			}
		}
		jobs = append(jobs, j)
	}
	return jobs
}

// tracedSDP splits Place into its two public stages, GlobalFloorplan and
// then Legalize, so each is timed on its own. It builds the options Place
// would; the run's untraced Place must give the same HPWL, bit for bit, or
// the run fails.
func (e *soloEnv) tracedSDP(cfg sdpfloor.Config) (*sdpfloor.Floorplan, error) {
	nl, outline := e.design.Netlist, e.design.Outline
	opt := cfg.Global.WithAllEnhancements()
	opt.Outline = &outline
	opt.LazyConstraints = true
	opt.Context = context.Background()
	opt.Trace = e.rec

	c := tracedCall{method: sdpfloor.MethodSDP, start: e.rec.now()}
	defer func() { e.calls = append(e.calls, c) }()
	g, err := sdpfloor.GlobalFloorplan(nl, opt)
	c.legalizeFrom = e.rec.now()
	if err != nil {
		c.end = c.legalizeFrom
		return nil, err
	}
	// The library's legalize layer, not the sdpfloor.Legalize wrapper: only
	// the layer's own options accept the recorder that sees its L-BFGS runs.
	leg, err := legalize.Legalize(nl, g.Centers, legalize.Options{Outline: outline, Context: opt.Context, Trace: e.rec})
	c.end = e.rec.now()
	if err != nil {
		return nil, err
	}
	return &sdpfloor.Floorplan{Global: g.Centers, Rects: leg.Rects, Centers: leg.Centers, HPWL: leg.HPWL, Feasible: leg.Feasible, GlobalResult: g}, nil
}

// layers attributes the traced pass's time to layers. Engine spans come
// from the solvers' own start/final events; legalization is the rest of
// each Place call after its engine's final event (SA has none).
func (e *soloEnv) layers() map[string]float64 {
	sp := e.rec.spans()
	L := map[string]float64{}

	var t solverTotals
	t.add(sp)
	t.fill(L)
	for name, solver := range map[string]string{
		"anneal.sa_s": "sa", "baseline.ar_s": "ar", "baseline.pp_s": "pp", "baseline.qp_s": "qp", "analytic.s": "analytic",
	} {
		L[name], _, _ = layerTotals(sp, solver)
	}

	wall, engines := 0.0, 0.0
	for _, c := range e.calls {
		wall += float64(c.end-c.start) / 1e9
		from := c.legalizeFrom
		if c.method != sdpfloor.MethodSDP {
			// Baseline engines: legalization starts at the engine's final.
			for _, s := range sp {
				if s.solver == string(c.method) && s.start >= c.start && s.end <= c.end {
					engines += s.secs()
					if c.method != sdpfloor.MethodSA {
						from = s.end
					}
				}
			}
		}
		if from < 0 {
			continue
		}
		leg := float64(c.end-from) / 1e9
		L["legalize.s"] += leg
		L["legalize.self_s"] += leg - childSecs(sp, from, c.end, "lbfgs")
		L["legalize.calls"]++
	}
	if wall > 0 {
		L["trace.attributed_frac"] = (engines + L["core.self_s"] + L["sdp.ipm_s"] + L["legalize.s"]) / wall
	}
	return L
}

func (e *soloEnv) close() error { return nil }

// checkPlan verifies one floorplan against its netlist: one rectangle and
// one center per module, an HPWL equal bit for bit to the netlist's HPWL of
// those centers, and, when the plan claims to be feasible, a layout that
// CheckLayout accepts. It returns the violation, or "".
func checkPlan(nl *sdpfloor.Netlist, outline sdpfloor.Rect, rects []sdpfloor.Rect, centers []sdpfloor.Point, hpwl float64, feasible bool) string {
	if len(rects) != nl.N() || len(centers) != nl.N() {
		return fmt.Sprintf("%d rects and %d centers for %d modules", len(rects), len(centers), nl.N())
	}
	if h := nl.HPWL(centers); math.Float64bits(h) != math.Float64bits(hpwl) {
		return fmt.Sprintf("reported HPWL %v, but the centers give %v", hpwl, h)
	}
	if feasible {
		if err := sdpfloor.CheckLayout(rects, outline, layoutTol); err != nil {
			return fmt.Sprintf("plan claims feasible but %v", err)
		}
	}
	return ""
}
