// Command e2ebench is the end-to-end floorplanning benchmark. It runs one
// seeded workload through the library's public entry points, checks every
// output, and prints its metrics, each with its unit: a table first, then,
// as the last line of standard output, one JSON object
//
//	{"correct": true, "attempted": 2, "failed": 0, "metrics": {"wall_s": {"value": 19.8, "unit": "s"}, ...}}
//
// An untraced run (--trace 0) reports the end-to-end metrics; a traced run
// (--trace 1) reports the per-layer metrics. BENCHMARK.json at the
// repository root lists both, the workloads and why each was chosen. Build
// and run it from the repository root with
//
//	bash e2ebench/run.sh --workload sdp-n30 --seed 1 --seconds 15 --trace 0
//
// The exit status is 0 only when every output check passed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// workload makes the inputs of one pass from the seed and runs it.
type workload struct {
	name  string
	setup func(o options) (passEnv, error)
	// passIsJob marks a single sequential caller that waits for the whole
	// pass (one SDP Place, or one five-engine comparison): its latency
	// samples are pass times. Otherwise they are per job.
	passIsJob bool
}

var workloads = []workload{
	{name: "sdp-n30", setup: setupSDP, passIsJob: true},
	{name: "baselines-n30", setup: setupBaselines, passIsJob: true},
	{name: "service-eco", setup: setupService},
}

// passEnv is one pass's inputs, ready to run. A traced pass records layer
// spans, which layers reads once the timed part is over.
type passEnv interface {
	run(traced bool) []job
	layers() map[string]float64
	close() error
}

// job is one unit of client-visible work: a Place call, or one service job
// from submission to its fetched result.
type job struct {
	latency  float64 // seconds
	hpwl     float64
	feasible bool
	cached   bool   // answered from the service's result cache
	failure  string // non-empty when the call failed or an output check did
}

type pass struct {
	wall   float64 // seconds
	alloc  float64 // bytes allocated (runtime.MemStats.TotalAlloc)
	jobs   []job
	layers map[string]float64
}

type metricDef struct{ name, unit string }

// endToEnd and perLayer are the metrics an untraced and a traced run print;
// BENCHMARK.json lists the same names and units.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"latency_p50_s", "s"},
	{"latency_tail_s", "s"},
	{"jobs_per_s", "1/s"},
	{"hpwl_geomean", "units"},
	{"feasible_frac", "frac"},
	{"ok_frac", "frac"},
	{"alloc_mb", "MB"},
	{"setup_s", "s"},
}

var perLayer = []metricDef{
	{"sdp.ipm_s", "s"},
	{"sdp.ipm_iters", "count"},
	{"sdp.ipm_solves", "count"},
	{"sdp.ipm_s_per_iter", "s"},
	{"core.global_s", "s"},
	{"core.self_s", "s"},
	{"core.iters", "count"},
	{"core.subsolves", "count"},
	{"core.warm_ratio", "frac"},
	{"core.eco_iters_per_solve", "count"},
	{"core.cold_iters_per_solve", "count"},
	{"legalize.s", "s"},
	{"legalize.self_s", "s"},
	{"legalize.calls", "count"},
	{"optimize.lbfgs_s", "s"},
	{"optimize.lbfgs_iters", "count"},
	{"optimize.lbfgs_runs", "count"},
	{"anneal.sa_s", "s"},
	{"baseline.ar_s", "s"},
	{"baseline.pp_s", "s"},
	{"baseline.qp_s", "s"},
	{"analytic.s", "s"},
	{"service.queue_wait_p50_s", "s"},
	{"service.queue_wait_tail_s", "s"},
	{"service.solve_p50_s", "s"},
	{"service.overhead_p50_s", "s"},
	{"service.cache_hit_ratio", "frac"},
	{"service.rejected", "count"},
	{"jobstore.records", "count"},
	{"jobstore.bytes", "B"},
	{"trace.overhead_frac", "frac"},
	{"trace.dropped", "count"},
	{"trace.attributed_frac", "frac"},
}

// setupReps is how many times a run builds a pass's inputs just to time
// it; setup_s is the median over these and every timed pass's own setup.
const setupReps = 21

type options struct {
	seed    int64
	seconds float64
	traced  bool
	dir     string // where the service workload keeps its journals
	// tiny shrinks every workload to n10 instances and one session per
	// client, for the harness self-check.
	tiny bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// notes qualify metrics in the printed table (the tail's percentile,
	// the base of a ratio); they are not part of the JSON line.
	notes map[string]string
	// failures lists the first few output-check violations.
	failures []string
}

func main() {
	name := flag.String("workload", "", "workload to run: sdp-n30, baselines-n30 or service-eco")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 25, "how long the timed passes should take together")
	traced := flag.Int("trace", 0, "1 runs a traced pass and prints the per-layer metrics")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || (*traced != 0 && *traced != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "e2ebench: need --workload (sdp-n30, baselines-n30, service-eco), --seconds > 0 and --trace 0|1\n")
		os.Exit(2)
	}
	dir := ".bench_build"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(1)
	}
	rep, err := runWorkload(*w, options{seed: *seed, seconds: *seconds, traced: *traced == 1, dir: dir})
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	printReport(os.Stdout, *name, rep)
	if !rep.Correct {
		for _, f := range rep.failures {
			fmt.Fprintf(os.Stderr, "e2ebench: check failed: %s\n", f)
		}
		os.Exit(1)
	}
}

// runWorkload times setup, runs one untimed warm-up pass of the workload's
// tiny variant, then the timed passes: untraced passes until the next one
// would probably end past o.seconds (at least one), or, traced, one
// untraced and one traced pass. Every pass's outputs are checked, and every
// timed pass must reproduce the first one's HPWL bit for bit.
//
// The warm-up starts the kernel worker pool and grows the parallel
// package's task free list. It is tiny because nothing else carries over
// between calls: the linalg arenas live inside one solve, and a cold and a
// warm n30 Place allocate the same 205.5 MB in the same 322k mallocs (to
// within 16), so a full-size warm-up would only double the run.
func runWorkload(w workload, o options) (*report, error) {
	var setups []float64
	open := func() (passEnv, error) {
		t := time.Now()
		env, err := w.setup(o)
		setups = append(setups, time.Since(t).Seconds())
		return env, err
	}
	for i := 0; i < setupReps; i++ {
		env, err := open()
		if err != nil {
			return nil, err
		}
		if err := env.close(); err != nil {
			return nil, err
		}
	}
	runPass := func(env passEnv, traced bool) (pass, error) {
		p := timePass(env, traced)
		fmt.Fprintf(os.Stderr, "e2ebench: %s pass (traced=%v): %.3f s, %d jobs\n", w.name, traced, p.wall, len(p.jobs))
		if traced {
			p.layers = env.layers()
		}
		return p, env.close()
	}
	timedPass := func(traced bool) (pass, error) {
		env, err := open()
		if err != nil {
			return pass{}, err
		}
		return runPass(env, traced)
	}

	tiny := o
	tiny.tiny = true
	env, err := w.setup(tiny)
	if err != nil {
		return nil, err
	}
	warm, err := runPass(env, false)
	if err != nil {
		return nil, err
	}
	var timed []pass
	if o.traced {
		for _, traced := range []bool{false, true} {
			p, err := timedPass(traced)
			if err != nil {
				return nil, err
			}
			timed = append(timed, p)
		}
	} else {
		elapsed := 0.0
		for len(timed) == 0 || elapsed+elapsed/float64(len(timed))/2 < o.seconds {
			p, err := timedPass(false)
			if err != nil {
				return nil, err
			}
			timed = append(timed, p)
			elapsed += p.wall
		}
	}

	rep := &report{Metrics: map[string]metric{}, notes: map[string]string{}}
	ref := timed[0].jobs
	for pi := range timed[1:] {
		for i := range timed[pi+1].jobs {
			j := &timed[pi+1].jobs[i]
			if j.failure == "" && ref[i].failure == "" && math.Float64bits(j.hpwl) != math.Float64bits(ref[i].hpwl) {
				j.failure = fmt.Sprintf("job %d: HPWL %v differs from the first pass's %v", i, j.hpwl, ref[i].hpwl)
			}
		}
	}
	all := append([]job(nil), warm.jobs...)
	for _, p := range timed {
		all = append(all, p.jobs...)
	}
	for _, j := range all {
		rep.Attempted++
		if j.failure != "" {
			rep.Failed++
			if len(rep.failures) < 5 {
				rep.failures = append(rep.failures, j.failure)
			}
		}
	}
	rep.Correct = rep.Failed == 0 && rep.Attempted > 0

	if o.traced {
		layers := timed[1].layers
		layers["trace.overhead_frac"] = timed[1].wall/timed[0].wall - 1
		for _, m := range perLayer {
			rep.Metrics[m.name] = metric{layers[m.name], m.unit}
		}
		if n := layers["core.subsolves"]; n > 0 {
			rep.notes["core.warm_ratio"] = fmt.Sprintf("of %.0f sub-solves", n)
		}
		return rep, nil
	}

	var walls, allocs, lats, hpwls []float64
	var jobs, feasible, ok int
	for _, p := range timed {
		walls = append(walls, p.wall)
		allocs = append(allocs, p.alloc)
		if w.passIsJob {
			lats = append(lats, p.wall)
		}
		for _, j := range p.jobs {
			if !w.passIsJob {
				lats = append(lats, j.latency)
			}
			jobs++
			if j.feasible {
				feasible++
			}
			if j.failure == "" {
				ok++
			}
		}
	}
	for _, j := range timed[0].jobs {
		if j.failure == "" && !j.cached && j.hpwl > 0 {
			hpwls = append(hpwls, j.hpwl)
		}
	}
	perPass := len(timed[0].jobs)
	if w.passIsJob {
		perPass = 1
	}
	tailV, tailP := tail(lats, perPass)
	totalWall := 0.0
	for _, w := range walls {
		totalWall += w
	}
	vals := map[string]float64{
		"wall_s":         median(walls),
		"latency_p50_s":  median(lats),
		"latency_tail_s": tailV,
		"jobs_per_s":     float64(len(lats)) / totalWall,
		"hpwl_geomean":   geomean(hpwls),
		"feasible_frac":  float64(feasible) / float64(jobs),
		"ok_frac":        float64(ok) / float64(jobs),
		"alloc_mb":       median(allocs) / 1e6,
		"setup_s":        median(setups),
	}
	for _, m := range endToEnd {
		rep.Metrics[m.name] = metric{vals[m.name], m.unit}
	}
	rep.notes["latency_tail_s"] = fmt.Sprintf("%s of %d samples", tailP, len(lats))
	rep.notes["latency_p50_s"] = fmt.Sprintf("of %d samples", len(lats))
	rep.notes["wall_s"] = fmt.Sprintf("median of %d passes", len(walls))
	rep.notes["setup_s"] = fmt.Sprintf("median of %d setups", len(setups))
	return rep, nil
}

// timePass runs one pass and measures its wall time and allocation.
func timePass(env passEnv, traced bool) pass {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	jobs := env.run(traced)
	wall := time.Since(t0).Seconds()
	runtime.ReadMemStats(&m1)
	return pass{wall: wall, alloc: float64(m1.TotalAlloc - m0.TotalAlloc), jobs: jobs}
}

func printReport(f io.Writer, name string, rep *report) {
	names := make([]string, 0, len(rep.Metrics))
	for k := range rep.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(f, "%s: %d attempted, %d failed\n", name, rep.Attempted, rep.Failed)
	for _, k := range names {
		m := rep.Metrics[k]
		fmt.Fprintf(f, "  %-28s %14.6g %-6s %s\n", k, m.Value, m.Unit, rep.notes[k])
	}
	line, err := json.Marshal(rep)
	if err != nil {
		// Only a NaN or Inf metric can fail to encode; that is a bug here.
		panic(err)
	}
	fmt.Fprintln(f, string(line))
}
