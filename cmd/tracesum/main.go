// Command tracesum summarizes solver telemetry and job journals.
//
// For a solver trace — the JSONL written by sdpfloor -trace or fetched from
// floorpland's /v1/jobs/{id}/trace — it prints one aggregate row per solver
// (runs, warm-started runs, iterations, wall time from the event
// timestamps, terminal statuses) and a convergence table of each
// solver's most recent run; for the core convex iteration, a table
// of its α rounds (α, iterations, exit reason, ⟨W,Z⟩) comes first. Concurrent runs (portfolio contenders)
// are paired with their own events via the run id, and every portfolio
// race gets a winner/contender table.
//
// For a floorpland jobstore journal (a wal-*.jsonl segment from -data-dir)
// it prints the per-job lifecycle instead: state, batch, replay count,
// queue wait, solve wall, iteration checkpoint, and error, plus aggregate
// counts. The input kind is auto-detected from the first record.
//
// Usage:
//
//	tracesum out.jsonl
//	tracesum -solver ipm -tail 20 out.jsonl
//	sdpfloor -bench n10 -trace /dev/stdout | tracesum
//	tracesum /var/lib/floorpland/wal-00000001.jsonl
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	"sdpfloor/internal/jobstore"
	"sdpfloor/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tracesum: ")
	var (
		tail   = flag.Int("tail", 10, "convergence-table rows per solver (0 = all)")
		solver = flag.String("solver", "", "restrict to one solver (ipm, admm, core, lbfgs)")
	)
	flag.Parse()
	in := io.Reader(os.Stdin)
	switch flag.NArg() {
	case 0:
	case 1:
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		in = f
	default:
		log.Printf("at most one input file")
		flag.Usage()
		os.Exit(2)
	}
	in, journal, err := sniffJournal(in)
	if err != nil {
		log.Fatal(err)
	}
	if journal {
		err = runJournal(in, os.Stdout)
	} else {
		err = run(in, os.Stdout, *solver, *tail)
	}
	if err != nil {
		log.Fatal(err)
	}
}

// sniffJournal peeks at the first non-empty line to decide whether the
// input is a jobstore journal (records carry "job" and "event" keys solver
// traces never have) and returns a reader that replays the consumed bytes.
func sniffJournal(in io.Reader) (io.Reader, bool, error) {
	br := bufio.NewReaderSize(in, 64<<10)
	var consumed bytes.Buffer
	for {
		line, err := br.ReadString('\n')
		consumed.WriteString(line)
		trimmed := strings.TrimSpace(line)
		if trimmed == "" {
			if err != nil {
				// Empty (or whitespace-only) input: either mode prints "no
				// events"; treat as a trace.
				return &consumed, false, nil
			}
			continue
		}
		_, perr := jobstore.ParseRecord([]byte(trimmed))
		return io.MultiReader(&consumed, br), perr == nil, nil
	}
}

// runJournal parses a jobstore journal from in and writes the per-job
// lifecycle summary to out.
func runJournal(in io.Reader, out io.Writer) error {
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 1<<20), 128<<20)
	red := jobstore.NewReducer()
	lineNo, records := 0, 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		rec, err := jobstore.ParseRecord(line)
		if err != nil {
			// Mirror the daemon's replay: a torn tail ends the journal.
			fmt.Fprintf(out, "(stopping at line %d: %v)\n", lineNo, err)
			break
		}
		red.Apply(rec)
		records++
	}
	if err := sc.Err(); err != nil {
		return err
	}
	states := red.Snapshot()
	if len(states) == 0 {
		fmt.Fprintln(out, "no events")
		return nil
	}

	fmt.Fprintf(out, "%d journal records, %d jobs\n\n", records, len(states))
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "job\tbatch\tstate\treplays\tqueue wait\tsolve wall\titers\terror\t")
	var counts []string
	countOf := map[string]int{}
	var totalWait, totalSolve time.Duration
	for _, st := range states {
		state := string(st.Event)
		if st.Interrupted() {
			state = "interrupted(" + state + ")"
		}
		if countOf[state] == 0 {
			counts = append(counts, state)
		}
		countOf[state]++
		wait, solve := spans(st)
		totalWait += wait
		totalSolve += solve
		batch := st.Batch
		if batch == "" {
			batch = "-"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%s\t%s\t%d\t%s\t\n",
			st.ID, batch, state, st.Replays, fmtWall(wait), fmtWall(solve), st.Iters, clip(st.Error, 48))
	}
	tw.Flush()
	fmt.Fprintf(out, "\nstates:")
	for _, s := range counts {
		fmt.Fprintf(out, " %s:%d", s, countOf[s])
	}
	fmt.Fprintf(out, "\ntotal queue wait %s, total solve wall %s\n", fmtWall(totalWait), fmtWall(totalSolve))
	return nil
}

// spans derives a job's queue wait (submitted→started) and solve wall
// (started→finished) from its record timestamps; unstarted or unfinished
// phases report zero.
func spans(st *jobstore.JobState) (wait, solve time.Duration) {
	if st.Started > st.Submitted && st.Submitted > 0 {
		wait = time.Duration(st.Started - st.Submitted)
	}
	if st.Finished > st.Started && st.Started > 0 {
		solve = time.Duration(st.Finished - st.Started)
	}
	return wait, solve
}

func clip(s string, max int) string {
	if s == "" {
		return "-"
	}
	if len(s) > max {
		return s[:max] + "…"
	}
	return s
}

// solverRun accumulates one start…final span of a single solver.
type solverRun struct {
	status  string
	iters   int
	startTS int64
	endTS   int64
	events  []trace.Event // iter events; kept only for each solver's last run
}

func (r *solverRun) wall() time.Duration {
	if r.endTS <= r.startTS {
		return 0
	}
	return time.Duration(r.endTS - r.startTS)
}

// solverAgg aggregates every run of one solver.
type solverAgg struct {
	name     string
	runs     int
	iters    int
	wall     time.Duration
	statuses []string // per closed run, in order
	// open tracks in-flight runs keyed by the event's run id, so the
	// interleaved streams of concurrent runs (portfolio contenders) pair
	// each solver's events with the right start — never arrival order.
	open    map[string]*solverRun
	last    *solverRun // most recently started run, for the convergence table
	lastRun string     // its run id ("" for solo traces)
	// Warm-start accounting, from the "warm" field on final events (runs
	// whose final lacks the field — older traces, the core loop — count in
	// neither bucket).
	warmRuns, coldRuns int
}

// contenderFinal is one portfolio contender's final event.
type contenderFinal struct {
	name     string
	status   string
	hpwl     float64
	feasible bool
}

// raceSummary is one complete portfolio race: the contender finals followed
// by the race-level final that names the winner.
type raceSummary struct {
	contenders []contenderFinal
	status     string
	winner     int
}

// run parses the JSONL trace from in and writes the summary to out. Only
// events of the named solver count when solver is non-empty; tail bounds the
// convergence-table rows per solver (0 = unbounded).
func run(in io.Reader, out io.Writer, solver string, tail int) error {
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
	aggs := map[string]*solverAgg{}
	var order []string
	lineNo, events := 0, 0

	var races []raceSummary
	var pendingContenders []contenderFinal

	aggOf := func(name string) *solverAgg {
		a := aggs[name]
		if a == nil {
			a = &solverAgg{name: name, open: map[string]*solverRun{}}
			aggs[name] = a
			order = append(order, name)
		}
		return a
	}
	startRun := func(a *solverAgg, run string, ts int64) *solverRun {
		r := &solverRun{startTS: ts, endTS: ts}
		a.open[run] = r
		a.last, a.lastRun = r, run
		a.runs++
		return r
	}
	// openRun returns the (solver, run)-keyed in-flight run, starting one
	// when the trace lacks its "start" (a ring buffer may have dropped it).
	openRun := func(a *solverAgg, run string, ts int64) *solverRun {
		if r := a.open[run]; r != nil {
			return r
		}
		return startRun(a, run, ts)
	}

	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		ev, err := trace.ParseLine(line)
		if err != nil {
			return fmt.Errorf("line %d: %w", lineNo, err)
		}
		events++
		if solver != "" && ev.Solver != solver {
			continue
		}
		a := aggOf(ev.Solver)
		switch ev.Kind {
		case trace.KindStart:
			startRun(a, ev.Run, ev.TS)
		case trace.KindIter:
			r := openRun(a, ev.Run, ev.TS)
			r.endTS = ev.TS
			r.events = append(r.events, ev)
			a.iters++
		case trace.KindFinal:
			r := openRun(a, ev.Run, ev.TS)
			delete(a.open, ev.Run)
			r.endTS = ev.TS
			r.status = ev.Status
			if r.status == "" {
				r.status = "?"
			}
			r.iters = ev.Iter
			a.wall += r.wall()
			a.statuses = append(a.statuses, r.status)
			if found, isWarm := warmOf(ev); found {
				if isWarm {
					a.warmRuns++
				} else {
					a.coldRuns++
				}
			}
			if ev.Solver == "portfolio" {
				if ev.Run != "" {
					pendingContenders = append(pendingContenders, contenderFinal{
						name:     ev.Run,
						status:   ev.Status,
						hpwl:     fieldOf(ev, "hpwl", 0),
						feasible: fieldOf(ev, "feasible", 0) > 0.5,
					})
				} else {
					races = append(races, raceSummary{
						contenders: pendingContenders,
						status:     ev.Status,
						winner:     int(fieldOf(ev, "winner", -1)),
					})
					pendingContenders = nil
				}
			}
		default:
			return fmt.Errorf("line %d: unknown event kind %q", lineNo, ev.Kind)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if events == 0 {
		fmt.Fprintln(out, "no events")
		return nil
	}

	fmt.Fprintf(out, "%d events\n\n", events)
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "solver\truns\twarm\titers\twall\tstatuses\t")
	for _, name := range order {
		a := aggs[name]
		warm := "-"
		if a.warmRuns+a.coldRuns > 0 {
			warm = fmt.Sprintf("%d/%d", a.warmRuns, a.warmRuns+a.coldRuns)
		}
		fmt.Fprintf(tw, "%s\t%d\t%s\t%d\t%s\t%s\t\n",
			a.name, a.runs, warm, a.iters, fmtWall(a.wall), statusCounts(a.statuses))
	}
	tw.Flush()

	writeRaces(out, races)

	for _, name := range order {
		a := aggs[name]
		if a.last == nil || len(a.last.events) == 0 {
			continue
		}
		r := a.last
		status := r.status
		if status == "" {
			status = "unfinished"
		}
		label := a.name
		if a.lastRun != "" {
			label = fmt.Sprintf("%s (run %s)", a.name, a.lastRun)
		}
		fmt.Fprintf(out, "\n%s, last run: %d iterations, %s, %s\n",
			label, len(r.events), status, fmtWall(r.wall()))
		if a.name == "core" {
			writeAlphaRounds(out, r.events)
		}
		writeConvergence(out, r.events, tail)
	}
	return nil
}

// writeRaces prints one winner/contender table per portfolio race found in
// the trace.
func writeRaces(out io.Writer, races []raceSummary) {
	for _, race := range races {
		winner := "-"
		if race.winner >= 0 && race.winner < len(race.contenders) {
			winner = race.contenders[race.winner].name
		}
		fmt.Fprintf(out, "\nportfolio race: winner %s (%s)\n", winner, race.status)
		tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "contender\tstatus\thpwl\tfeasible\t")
		for _, c := range race.contenders {
			hpwl := "-"
			if c.hpwl > 0 {
				hpwl = fmt.Sprintf("%.1f", c.hpwl)
			}
			feas := "no"
			if c.feasible {
				feas = "yes"
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t\n", c.name, c.status, hpwl, feas)
		}
		tw.Flush()
	}
}

// fieldOf reads a numeric event field, falling back to def when absent.
func fieldOf(ev trace.Event, key string, def float64) float64 {
	for _, f := range ev.Fields {
		if f.Key == key {
			return f.Val
		}
	}
	return def
}

// exitNames spells the "exit" field of the core iter event that ends an α
// round (see core's exitRank … exitMaxIter).
var exitNames = []string{1: "rank", 2: "converged", 3: "stall", 4: "max-iter"}

// writeAlphaRounds prints one row per α round of a core run: α, its convex
// iterations, why the round ended, and ⟨W,Z⟩ at its last iteration. Every
// round numbers its iterations from 1 ("alphaIter"), so a round ends where
// that count stops growing. A round that ended without an "exit" field
// (cancelled, or a trace from before the field existed) shows "-".
func writeAlphaRounds(out io.Writer, evs []trace.Event) {
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "round\talpha\titers\texit\twz\t")
	round := 0
	for i := 0; i < len(evs); {
		j := i + 1
		for j < len(evs) && fieldOf(evs[j], "alphaIter", 0) > fieldOf(evs[j-1], "alphaIter", 0) {
			j++
		}
		last := evs[j-1]
		exit := "-"
		if k := int(fieldOf(last, "exit", 0)); k > 0 && k < len(exitNames) {
			exit = exitNames[k]
		}
		round++
		fmt.Fprintf(tw, "%d\t%.4g\t%d\t%s\t%.4g\t\n",
			round, fieldOf(last, "alpha", math.NaN()), j-i, exit, fieldOf(last, "wz", math.NaN()))
		i = j
	}
	tw.Flush()
}

// writeConvergence prints the trailing iter events as a table whose columns
// are the union of field keys in first-seen order.
func writeConvergence(out io.Writer, evs []trace.Event, tail int) {
	if tail > 0 && len(evs) > tail {
		fmt.Fprintf(out, "(%d earlier rows omitted; -tail %d)\n", len(evs)-tail, tail)
		evs = evs[len(evs)-tail:]
	}
	var cols []string
	seen := map[string]bool{}
	for _, ev := range evs {
		for _, f := range ev.Fields {
			if !seen[f.Key] {
				seen[f.Key] = true
				cols = append(cols, f.Key)
			}
		}
	}
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprint(tw, "iter\t")
	for _, c := range cols {
		fmt.Fprintf(tw, "%s\t", c)
	}
	fmt.Fprintln(tw)
	row := map[string]float64{}
	for _, ev := range evs {
		clear(row)
		for _, f := range ev.Fields {
			row[f.Key] = f.Val
		}
		fmt.Fprintf(tw, "%d\t", ev.Iter)
		for _, c := range cols {
			if v, ok := row[c]; ok {
				fmt.Fprintf(tw, "%.4g\t", v)
			} else {
				fmt.Fprint(tw, "-\t")
			}
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

// warmOf reads the "warm" field of an event: found reports whether the
// field exists, isWarm whether it flags a warm-started run.
func warmOf(ev trace.Event) (found, isWarm bool) {
	for _, f := range ev.Fields {
		if f.Key == "warm" {
			return true, f.Val > 0.5
		}
	}
	return false, false
}

// fmtWall renders a TS delta; traces with stripped or synthetic timestamps
// collapse to zero and print as "-".
func fmtWall(d time.Duration) string {
	if d <= 0 {
		return "-"
	}
	switch {
	case d >= time.Second:
		return d.Round(10 * time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond).String()
	}
	return d.String()
}

// statusCounts renders "optimal:3 cancelled:1" in first-seen order.
func statusCounts(statuses []string) string {
	if len(statuses) == 0 {
		return "running"
	}
	counts := map[string]int{}
	var order []string
	for _, s := range statuses {
		if counts[s] == 0 {
			order = append(order, s)
		}
		counts[s]++
	}
	var b bytes.Buffer
	for i, s := range order {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s:%d", s, counts[s])
	}
	return b.String()
}
