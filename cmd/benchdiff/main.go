// Command benchdiff runs the repository's Go benchmarks, snapshots the
// results as JSON, and compares snapshots against a committed baseline with
// a configurable tolerance — the benchmark-regression gate wired into CI.
//
// Usage:
//
//	benchdiff run -o BENCH_current.json            # run benches, write snapshot
//	benchdiff run -packages ./internal/linalg -bench 'MatMul' -o out.json
//	benchdiff parse -o out.json < bench-output.txt # snapshot existing output
//	benchdiff compare -baseline BENCH_baseline.json -current BENCH_current.json
//	benchdiff compare -tolerance 0.30 -warn-only ...
//	benchdiff compare -gate allocs ...             # exact allocs/op + B/op gate
//
// compare exits nonzero when any benchmark's ns/op regressed beyond the
// tolerance (default 25%), unless -warn-only is set; CI runs the timing gate
// with -warn-only because shared runners are noisy, so timing regressions
// surface as warnings while build/test failures stay hard. The allocation
// gate (-gate allocs) is the opposite: allocation counts are deterministic,
// so it hard-fails on ANY allocs/op or B/op growth with no tolerance and
// ignores ns/op entirely — CI runs it as a required job. Refresh the
// committed baseline with:
//
//	go run ./cmd/benchdiff run -o BENCH_baseline.json
//
// Exit status: 0 ok, 1 regression (or other failure), 2 usage, 3 the
// baseline snapshot is missing or unparsable — a setup problem, not a
// performance regression, so CI and scripts can tell "refresh the
// baseline" apart from "the code got slower".
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark's measurement.
type Result struct {
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
}

// Snapshot is the JSON document benchdiff reads and writes.
type Snapshot struct {
	GOOS       string            `json:"goos"`
	GOARCH     string            `json:"goarch"`
	GoVersion  string            `json:"go"`
	Benchmarks map[string]Result `json:"benchmarks"`
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = cmdRun(os.Args[2:])
	case "parse":
		err = cmdParse(os.Args[2:])
	case "compare":
		err = cmdCompare(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		var be *baselineError
		if errors.As(err, &be) {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			fmt.Fprintln(os.Stderr, "benchdiff: the baseline is missing or unreadable, not regressed; refresh it with `make bench-baseline`")
			os.Exit(3)
		}
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}

// baselineError marks a compare failure caused by the baseline snapshot
// itself (absent or unparsable), which main maps to exit status 3 so it is
// never conflated with a benchmark regression (exit 1).
type baselineError struct{ err error }

func (e *baselineError) Error() string { return "baseline snapshot: " + e.err.Error() }
func (e *baselineError) Unwrap() error { return e.err }

func usage() {
	fmt.Fprintln(os.Stderr, "usage: benchdiff {run|parse|compare} [flags]")
	os.Exit(2)
}

// defaultPackages hold the kernel benchmarks the regression gate tracks; the
// top-level experiment benches are too heavy and too noisy for a gate.
var defaultPackages = []string{"./internal/linalg", "./internal/sdp", "./internal/anneal"}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	var (
		out       = fs.String("o", "", "output snapshot path (default stdout)")
		pkgs      = fs.String("packages", strings.Join(defaultPackages, ","), "comma-separated packages to benchmark")
		benchRe   = fs.String("bench", ".", "go test -bench regex")
		benchtime = fs.String("benchtime", "1s", "go test -benchtime")
		count     = fs.Int("count", 1, "go test -count")
	)
	fs.Parse(args)

	cmdArgs := []string{"test", "-run", "^$", "-bench", *benchRe, "-benchmem",
		"-benchtime", *benchtime, "-count", strconv.Itoa(*count)}
	cmdArgs = append(cmdArgs, strings.Split(*pkgs, ",")...)
	cmd := exec.Command("go", cmdArgs...)
	var buf bytes.Buffer
	cmd.Stdout = io.MultiWriter(&buf, os.Stderr)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go test -bench: %w", err)
	}
	snap, err := parseBench(&buf)
	if err != nil {
		return err
	}
	return writeSnapshot(snap, *out)
}

func cmdParse(args []string) error {
	fs := flag.NewFlagSet("parse", flag.ExitOnError)
	out := fs.String("o", "", "output snapshot path (default stdout)")
	in := fs.String("i", "", "bench output to parse (default stdin)")
	fs.Parse(args)

	var r io.Reader = os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	snap, err := parseBench(r)
	if err != nil {
		return err
	}
	return writeSnapshot(snap, *out)
}

func writeSnapshot(snap *Snapshot, path string) error {
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// benchLine matches one `go test -bench` result line, e.g.
//
//	BenchmarkMatMul/n64/w4-8   123   119097 ns/op   4408 B/op   19 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+([\d.]+) ns/op(.*)$`)

// gomaxprocsSuffix is the trailing -N the bench runner appends to names;
// stripped so snapshots from machines with different core counts compare.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// parseBench reads `go test -bench -benchmem` output into a snapshot. When a
// benchmark appears more than once (-count > 1), each column keeps its own
// minimum across the runs — the standard noise-robust choice for regression
// gating. The columns are independent: allocs/op and B/op come from the run
// with the fewest, not from the fastest run (Iterations stays paired with
// the kept ns/op).
func parseBench(r io.Reader) (*Snapshot, error) {
	snap := &Snapshot{
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GoVersion:  runtime.Version(),
		Benchmarks: map[string]Result{},
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			snap.GOOS = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			snap.GOARCH = strings.TrimPrefix(line, "goarch: ")
		}
		mm := benchLine.FindStringSubmatch(line)
		if mm == nil {
			continue
		}
		name := gomaxprocsSuffix.ReplaceAllString(mm[1], "")
		iters, _ := strconv.ParseInt(mm[2], 10, 64)
		ns, err := strconv.ParseFloat(mm[3], 64)
		if err != nil {
			continue
		}
		res := Result{Iterations: iters, NsPerOp: ns}
		// Optional -benchmem columns (custom metrics are ignored).
		rest := strings.Fields(mm[4])
		for i := 0; i+1 < len(rest); i += 2 {
			v, err := strconv.ParseFloat(rest[i], 64)
			if err != nil {
				continue
			}
			switch rest[i+1] {
			case "B/op":
				res.BytesPerOp = v
			case "allocs/op":
				res.AllocsPerOp = v
			}
		}
		if prev, ok := snap.Benchmarks[name]; ok {
			if prev.NsPerOp <= res.NsPerOp {
				res.Iterations, res.NsPerOp = prev.Iterations, prev.NsPerOp
			}
			res.BytesPerOp = min(res.BytesPerOp, prev.BytesPerOp)
			res.AllocsPerOp = min(res.AllocsPerOp, prev.AllocsPerOp)
		}
		snap.Benchmarks[name] = res
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(snap.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark lines found in input")
	}
	return snap, nil
}

// diffEntry is one comparison row.
type diffEntry struct {
	Name        string
	Base, Cur   float64 // ns/op
	Ratio       float64 // cur/base
	Regression  bool
	AllocGrowth float64 // cur − base allocs/op
	BytesGrowth float64 // cur − base B/op
	BaseAllocs  float64
	CurAllocs   float64
}

// compareSnapshots pairs up the two snapshots' benchmarks and flags every
// benchmark whose ns/op grew beyond the tolerance (tolerance 0.25 flags
// ratios above 1.25). Benchmarks present on only one side are reported but
// never fail the gate.
func compareSnapshots(base, cur *Snapshot, tolerance float64) (entries []diffEntry, onlyBase, onlyCur []string) {
	for name := range base.Benchmarks {
		if _, ok := cur.Benchmarks[name]; !ok {
			onlyBase = append(onlyBase, name)
		}
	}
	for name, c := range cur.Benchmarks {
		b, ok := base.Benchmarks[name]
		if !ok {
			onlyCur = append(onlyCur, name)
			continue
		}
		e := diffEntry{Name: name, Base: b.NsPerOp, Cur: c.NsPerOp,
			AllocGrowth: c.AllocsPerOp - b.AllocsPerOp,
			BytesGrowth: c.BytesPerOp - b.BytesPerOp,
			BaseAllocs:  b.AllocsPerOp, CurAllocs: c.AllocsPerOp}
		if b.NsPerOp > 0 {
			e.Ratio = c.NsPerOp / b.NsPerOp
			e.Regression = e.Ratio > 1+tolerance
		}
		entries = append(entries, e)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name < entries[j].Name })
	sort.Strings(onlyBase)
	sort.Strings(onlyCur)
	return entries, onlyBase, onlyCur
}

func cmdCompare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	var (
		basePath  = fs.String("baseline", "BENCH_baseline.json", "baseline snapshot")
		curPath   = fs.String("current", "", "current snapshot (required)")
		tolerance = fs.Float64("tolerance", 0.25, "allowed fractional ns/op growth before a benchmark counts as regressed")
		warnOnly  = fs.Bool("warn-only", false, "report regressions but exit 0")
		gate      = fs.String("gate", "timing", "regression criterion: timing (ns/op growth beyond -tolerance) or allocs (ANY allocs/op or B/op growth, no tolerance)")
	)
	fs.Parse(args)
	if *curPath == "" {
		return fmt.Errorf("compare: -current is required")
	}
	if *gate != "timing" && *gate != "allocs" {
		return fmt.Errorf("compare: -gate must be timing or allocs, got %q", *gate)
	}
	base, err := readSnapshot(*basePath)
	if err != nil {
		return &baselineError{err}
	}
	cur, err := readSnapshot(*curPath)
	if err != nil {
		return err
	}
	if base.GOOS != cur.GOOS || base.GOARCH != cur.GOARCH {
		fmt.Printf("note: comparing %s/%s baseline against %s/%s run\n",
			base.GOOS, base.GOARCH, cur.GOOS, cur.GOARCH)
	}

	entries, onlyBase, onlyCur := compareSnapshots(base, cur, *tolerance)
	regressions := 0
	if *gate == "allocs" {
		// Allocation gate: exact, no tolerance. Allocation counts are
		// deterministic (the arena and the parallel pool recycle everything
		// in the steady state), so ANY growth in allocs/op or B/op is a real
		// regression, never noise — unlike ns/op on shared runners.
		for _, e := range entries {
			mark := " "
			if e.AllocGrowth > 0 || e.BytesGrowth > 0 {
				mark = "!"
				regressions++
			} else if e.AllocGrowth < 0 || e.BytesGrowth < 0 {
				mark = "+"
			}
			fmt.Printf("%s %-60s %10.0f -> %10.0f allocs/op  (%+.0f allocs, %+.0f B)\n",
				mark, e.Name, e.BaseAllocs, e.CurAllocs, e.AllocGrowth, e.BytesGrowth)
		}
	} else {
		for _, e := range entries {
			mark := " "
			if e.Regression {
				mark = "!"
				regressions++
			} else if e.Ratio > 0 && e.Ratio < 1-*tolerance {
				mark = "+"
			}
			fmt.Printf("%s %-60s %12.0f -> %12.0f ns/op  (%+.1f%%)\n",
				mark, e.Name, e.Base, e.Cur, 100*(e.Ratio-1))
		}
	}
	for _, n := range onlyBase {
		fmt.Printf("? %-60s only in baseline\n", n)
	}
	for _, n := range onlyCur {
		fmt.Printf("? %-60s only in current (baseline refresh needed)\n", n)
	}
	if *gate == "allocs" {
		fmt.Printf("benchdiff: %d benchmarks compared, %d regressed (alloc gate, zero tolerance)\n",
			len(entries), regressions)
		if regressions > 0 && !*warnOnly {
			return fmt.Errorf("%d benchmark(s) grew allocs/op or B/op", regressions)
		}
		return nil
	}
	fmt.Printf("benchdiff: %d benchmarks compared, %d regressed (tolerance %.0f%%)\n",
		len(entries), regressions, 100**tolerance)
	if regressions > 0 && !*warnOnly {
		return fmt.Errorf("%d benchmark(s) regressed beyond %.0f%%", regressions, 100**tolerance)
	}
	return nil
}

func readSnapshot(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if snap.Benchmarks == nil {
		return nil, fmt.Errorf("%s: no benchmarks field", path)
	}
	return &snap, nil
}
