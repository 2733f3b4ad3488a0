package main

import (
	"slices"
	"sync"
	"time"

	"sdpfloor/internal/trace"
)

// recorder is the benchmark's own trace.Recorder, handed to the solvers
// through the public Config.Trace / core.Options.Trace hook. It stamps each
// event with the monotonic clock and keeps only the start and final events
// in memory; per-iteration events are dropped on arrival, since every span
// metric here comes from pairing a start with its final.
type recorder struct {
	base time.Time
	mu   sync.Mutex
	evs  []trace.Event
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

func (r *recorder) Enabled() bool { return true }

func (r *recorder) Record(ev trace.Event) {
	if ev.Kind == trace.KindIter {
		return
	}
	ev.TS = r.now()
	r.mu.Lock()
	r.evs = append(r.evs, ev)
	r.mu.Unlock()
}

// now reads the recorder's clock, so calls timed around a solve share the
// time base of its events.
func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

func (r *recorder) spans() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return pairSpans(r.evs)
}

// span is one solver run: a start event paired with its final.
type span struct {
	solver     string
	start, end int64 // nanoseconds on the recording clock
	iters      int   // the final event's iteration count
	fields     []trace.Field
}

func (s span) secs() float64 { return float64(s.end-s.start) / 1e9 }

func (s span) field(key string) float64 {
	for _, f := range s.fields {
		if f.Key == key {
			return f.Val
		}
	}
	return 0
}

// pairSpans pairs each final with the latest unmatched start of the same
// (solver, run). A final whose start is missing (a bounded ring dropped it)
// yields no span.
func pairSpans(evs []trace.Event) []span {
	type key struct{ solver, run string }
	open := map[key][]int64{}
	var out []span
	for _, ev := range evs {
		k := key{ev.Solver, ev.Run}
		switch ev.Kind {
		case trace.KindStart:
			open[k] = append(open[k], ev.TS)
		case trace.KindFinal:
			st := open[k]
			if len(st) == 0 {
				continue
			}
			open[k] = st[:len(st)-1]
			out = append(out, span{solver: ev.Solver, start: st[len(st)-1], end: ev.TS, iters: ev.Iter, fields: ev.Fields})
		}
	}
	return out
}

// layerTotals sums the spans of one solver: busy seconds, final iteration
// counts, and runs.
func layerTotals(spans []span, solver string) (secs float64, iters, runs int) {
	for _, s := range spans {
		if s.solver == solver {
			secs += s.secs()
			iters += s.iters
			runs++
		}
	}
	return secs, iters, runs
}

// childSecs is the time the spans of the given solvers cover inside
// [lo, hi]. The children of one parent run one after another, so their
// clipped durations add up without overlap.
func childSecs(spans []span, lo, hi int64, solvers ...string) float64 {
	var ns int64
	for _, s := range spans {
		if !slices.Contains(solvers, s.solver) {
			continue
		}
		a, b := max(s.start, lo), min(s.end, hi)
		if b > a {
			ns += b - a
		}
	}
	return float64(ns) / 1e9
}

// selfSecs is the summed duration of the parent solver's spans minus the
// time their child spans cover.
func selfSecs(spans []span, parent string, children ...string) float64 {
	self := 0.0
	for _, s := range spans {
		if s.solver == parent {
			self += s.secs() - childSecs(spans, s.start, s.end, children...)
		}
	}
	return self
}

// solverTotals accumulates the sdp, core and optimize layers over the spans
// of one or more solves.
type solverTotals struct {
	ipmS, coreS, coreSelf, lbS, warmStarts                  float64
	ipmIters, ipmRuns, admmRuns, coreIters, lbIters, lbRuns int
}

// add takes the spans of one solve. Self time is computed within that
// solve only, because the spans of concurrent solves overlap in time.
func (t *solverTotals) add(sp []span) {
	secs, iters, runs := layerTotals(sp, "ipm")
	t.ipmS, t.ipmIters, t.ipmRuns = t.ipmS+secs, t.ipmIters+iters, t.ipmRuns+runs
	_, _, runs = layerTotals(sp, "admm")
	t.admmRuns += runs
	secs, iters, _ = layerTotals(sp, "core")
	t.coreS, t.coreIters = t.coreS+secs, t.coreIters+iters
	t.coreSelf += selfSecs(sp, "core", "ipm", "admm")
	secs, iters, runs = layerTotals(sp, "lbfgs")
	t.lbS, t.lbIters, t.lbRuns = t.lbS+secs, t.lbIters+iters, t.lbRuns+runs
	for _, s := range sp {
		if s.solver == "core" {
			t.warmStarts += s.field("warmStarts")
		}
	}
}

func (t *solverTotals) fill(L map[string]float64) {
	L["sdp.ipm_s"], L["sdp.ipm_iters"], L["sdp.ipm_solves"] = t.ipmS, float64(t.ipmIters), float64(t.ipmRuns)
	if t.ipmIters > 0 {
		L["sdp.ipm_s_per_iter"] = t.ipmS / float64(t.ipmIters)
	}
	subsolves := t.ipmRuns + t.admmRuns
	L["core.global_s"], L["core.self_s"], L["core.iters"] = t.coreS, t.coreSelf, float64(t.coreIters)
	L["core.subsolves"] = float64(subsolves)
	if subsolves > 0 {
		L["core.warm_ratio"] = t.warmStarts / float64(subsolves)
	}
	L["optimize.lbfgs_s"], L["optimize.lbfgs_iters"], L["optimize.lbfgs_runs"] = t.lbS, float64(t.lbIters), float64(t.lbRuns)
}
