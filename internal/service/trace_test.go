package service

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sdpfloor"
	"sdpfloor/internal/trace"
)

// tracingPlaceFn emits a small deterministic solver trace through the
// recorder the service injects, standing in for a real solve.
func tracingPlaceFn(iters int) func(ctx context.Context, nl *sdpfloor.Netlist, c sdpfloor.Config) (*sdpfloor.Floorplan, error) {
	return func(ctx context.Context, nl *sdpfloor.Netlist, c sdpfloor.Config) (*sdpfloor.Floorplan, error) {
		if rec := c.Trace; rec != nil && rec.Enabled() {
			rec.Record(trace.Event{Solver: "ipm", Kind: trace.KindStart,
				Fields: []trace.Field{{Key: "m", Val: 9}}})
			for i := 0; i < iters; i++ {
				rec.Record(trace.Event{Solver: "ipm", Kind: trace.KindIter, Iter: i,
					Fields: []trace.Field{{Key: "mu", Val: 1 / float64(i+1)}}})
			}
			rec.Record(trace.Event{Solver: "ipm", Kind: trace.KindFinal, Iter: iters,
				Status: "optimal", Fields: []trace.Field{{Key: "relG", Val: 1e-9}}})
		}
		return fakeFloorplan(nl), nil
	}
}

func TestJobTraceCapturedAndServed(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1}, tracingPlaceFn(3))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	st, err := s.Submit(testRequest(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, st.ID, StateDone)

	evs, dropped, err := s.Trace(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 0 {
		t.Fatalf("dropped %d events from an under-capacity ring", dropped)
	}
	if len(evs) != 5 { // start + 3 iters + final
		t.Fatalf("got %d events, want 5: %+v", len(evs), evs)
	}
	if evs[0].Kind != trace.KindStart || evs[len(evs)-1].Kind != trace.KindFinal {
		t.Fatalf("trace not start…final: %+v", evs)
	}
	for _, ev := range evs {
		if ev.TS == 0 {
			t.Fatalf("ring did not stamp a timestamp: %+v", ev)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace endpoint status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	lines := strings.Split(strings.TrimSuffix(string(body), "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("got %d JSONL lines, want 5:\n%s", len(lines), body)
	}
	for i, line := range lines {
		ev, err := trace.ParseLine([]byte(line))
		if err != nil {
			t.Fatalf("line %d unparseable: %v (%q)", i, err, line)
		}
		if ev.Solver != "ipm" {
			t.Fatalf("line %d: solver %q", i, ev.Solver)
		}
	}
}

func TestJobTraceRingBounded(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, TraceDepth: 4}, tracingPlaceFn(10))
	st, err := s.Submit(testRequest(3, 2))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, st.ID, StateDone)

	evs, dropped, err := s.Trace(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 4 {
		t.Fatalf("ring kept %d events, want 4", len(evs))
	}
	if dropped != 8 { // 12 emitted − 4 retained
		t.Fatalf("dropped = %d, want 8", dropped)
	}
	// The newest events survive: the final must be last.
	if last := evs[len(evs)-1]; last.Kind != trace.KindFinal {
		t.Fatalf("last retained event %+v, want final", last)
	}
}

func TestTraceNotFoundAndQueued(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1}, tracingPlaceFn(1))
	if _, _, err := s.Trace("job-999999"); err != ErrNotFound {
		t.Fatalf("want ErrNotFound, got %v", err)
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/jobs/nope/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
}

func TestMetricsIterationHistogram(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1}, tracingPlaceFn(5))
	st, err := s.Submit(testRequest(3, 3))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, st.ID, StateDone)

	snap := s.MetricsSnapshot()
	if snap["trace_events_total"] != 7 { // start + 5 iters + final
		t.Fatalf("trace_events_total = %d, want 7", snap["trace_events_total"])
	}
	// 5 iter events of one run → 5 iteration latencies (the first timed
	// from the run's start), all fast in-process, so every cumulative bucket
	// up to +Inf must count all 5.
	if snap["iter_latency_le_inf_total"] != 5 {
		t.Fatalf("iter_latency_le_inf_total = %d, want 5", snap["iter_latency_le_inf_total"])
	}
	if snap["iter_latency_le_1s_total"] > snap["iter_latency_le_inf_total"] {
		t.Fatalf("cumulative buckets not monotone: %v", snap)
	}
	for _, key := range []string{"iter_latency_le_1ms_total", "iter_latency_le_10ms_total", "iter_latency_le_100ms_total"} {
		if _, ok := snap[key]; !ok {
			t.Fatalf("metrics missing bucket %s", key)
		}
	}
}

// TestIterLatencyPerRun feeds one job's recorder the interleaved stream of
// a portfolio race — two contender runs, each a core loop around IPM solves
// — and requires exactly one latency observation per iter event: each run's
// first iteration is timed from its own start, and no gap between events of
// different runs or solvers is observed.
func TestIterLatencyPerRun(t *testing.T) {
	m := &Metrics{}
	r := &jobRecorder{ring: trace.NewRing(64), m: m}
	ev := func(solver, run, kind string) {
		r.Record(trace.Event{Solver: solver, Run: run, Kind: kind})
	}
	ev("portfolio", "", trace.KindStart)
	ev("core", "a", trace.KindStart)
	ev("core", "b", trace.KindStart)
	ev("ipm", "a", trace.KindStart)
	ev("ipm", "b", trace.KindStart)
	ev("ipm", "a", trace.KindIter)
	ev("ipm", "b", trace.KindIter)
	ev("ipm", "a", trace.KindIter)
	ev("ipm", "a", trace.KindFinal)
	ev("core", "a", trace.KindIter)
	ev("ipm", "b", trace.KindIter)
	ev("ipm", "a", trace.KindStart) // a second IPM solve of run a
	ev("ipm", "b", trace.KindFinal)
	ev("ipm", "a", trace.KindIter)
	ev("core", "b", trace.KindIter)
	ev("ipm", "a", trace.KindFinal)
	ev("core", "a", trace.KindIter)
	ev("core", "a", trace.KindFinal)
	ev("core", "b", trace.KindFinal)
	ev("portfolio", "", trace.KindFinal)
	const iters = 8
	if got := r.iters.Load(); got != iters {
		t.Fatalf("counted %d iter events, want %d", got, iters)
	}
	if got := m.IterLatency[len(m.IterLatency)-1].Load(); got != iters {
		t.Fatalf("%d latency observations, want one per iter event (%d)", got, iters)
	}
	if len(r.runs) != 0 {
		t.Fatalf("runs left open after their final events: %v", r.runs)
	}
}

func TestPprofEndpoints(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1}, tracingPlaceFn(1))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/symbol"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
	}
}
