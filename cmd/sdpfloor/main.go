// Command sdpfloor runs the SDP convex-iteration global floorplanner (or one
// of the baselines) on a benchmark and reports the legalized result.
//
// Usage:
//
//	sdpfloor -bench n10                 # builtin synthetic benchmark
//	sdpfloor -dir bench/ -design n10    # GSRC .blocks/.nets/.pl on disk
//	sdpfloor -dir bench/ -design ami33  # MCNC YAL (ami33.yal) — format is sniffed
//	sdpfloor -bench n30 -method ar -aspect 2 -svg out.svg -v
//	sdpfloor -bench n30 -method portfolio -timeout 30s        # tuned default race
//	sdpfloor -bench n30 -portfolio sdp,sa -timeout 30s        # explicit contender race
//	sdpfloor -bench n30 -out-pl prev.pl                       # save warm-start centers
//	sdpfloor -bench n30 -eco delta.json -prev prev.pl         # incremental (ECO) re-solve
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"sdpfloor"
	"sdpfloor/internal/svg"
	"sdpfloor/internal/trace"
	"sdpfloor/internal/version"
)

// Exit statuses: 1 for errors, 2 for usage, 3 when -timeout expired.
const exitTimeout = 3

func validMethod(m sdpfloor.Method) bool {
	for _, v := range sdpfloor.Methods {
		if m == v {
			return true
		}
	}
	return false
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("sdpfloor: ")

	var (
		bench      = flag.String("bench", "", "builtin benchmark name (n10, n30, n50, n100, n200, ami33, ami49)")
		dir        = flag.String("dir", "", "directory with <design>.blocks/.nets/.pl files")
		design     = flag.String("design", "", "design name inside -dir")
		method     = flag.String("method", "sdp", "global method: sdp, sdp-hier, ar, pp, qp, sa, analytic, portfolio")
		contend    = flag.String("portfolio", "", "comma-separated contenders to race in priority order (implies -method portfolio); empty with -method portfolio picks the contenders by instance size")
		aspect     = flag.Float64("aspect", 1, "outline height:width ratio")
		whitespace = flag.Float64("whitespace", 0.15, "outline whitespace fraction")
		seed       = flag.Int64("seed", 1, "seed for stochastic methods")
		basic      = flag.Bool("basic", false, "disable the Section IV-B enhancements (sdp only)")
		socp       = flag.Bool("socp", false, "legalize with the exact SOCP shape optimization (slow; small designs)")
		jsonOut    = flag.String("json", "", "write the result (rects, centers, HPWL) as JSON to this path")
		svgOut     = flag.String("svg", "", "write the legalized floorplan as SVG to this path")
		traceOut   = flag.String("trace", "", "write per-iteration solver telemetry as JSONL to this path (see docs/TRACING.md)")
		timeout    = flag.Duration("timeout", 0, "abort the solve after this long (0 = no limit); exits with status 3")
		ecoPath    = flag.String("eco", "", "ECO delta JSON: apply it to the input and re-solve warm from -prev (sdp only)")
		prevPl     = flag.String("prev", "", "previous placement ('name x y' lines, e.g. from -out-pl) seeding the -eco re-solve")
		outPl      = flag.String("out-pl", "", "write the global module centers as 'name x y' lines (feeds a later -prev)")
		verbose    = flag.Bool("v", false, "log solver progress, derived from the trace stream (see docs/TRACING.md)")
		showVer    = flag.Bool("version", false, "print the build stamp and exit")
	)
	flag.Parse()
	if *showVer {
		fmt.Println("sdpfloor", version.Stamp())
		return
	}

	// Validate the flag combination before touching any benchmark files so
	// mistakes fail fast with a usable message.
	if *bench != "" && (*dir != "" || *design != "") {
		log.Printf("-bench cannot be combined with -dir/-design: pick one input source")
		flag.Usage()
		os.Exit(2)
	}
	if (*dir != "") != (*design != "") {
		log.Printf("-dir and -design must be given together")
		flag.Usage()
		os.Exit(2)
	}
	if *contend != "" {
		*method = string(sdpfloor.MethodPortfolio)
	}
	if !validMethod(sdpfloor.Method(*method)) && sdpfloor.Method(*method) != sdpfloor.MethodPortfolio {
		log.Printf("unknown -method %q (valid: %v, portfolio)", *method, sdpfloor.Methods)
		os.Exit(2)
	}
	var contenders []sdpfloor.Method
	for _, name := range strings.Split(*contend, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		m := sdpfloor.Method(name)
		if !validMethod(m) {
			log.Printf("-portfolio contender %q is not a solo method (valid: %v)", name, sdpfloor.Methods)
			os.Exit(2)
		}
		contenders = append(contenders, m)
	}
	if *timeout < 0 {
		log.Printf("-timeout must be positive")
		os.Exit(2)
	}
	if (*ecoPath != "") != (*prevPl != "") {
		log.Printf("-eco and -prev must be given together")
		os.Exit(2)
	}
	if *ecoPath != "" && sdpfloor.Method(*method) != sdpfloor.MethodSDP {
		log.Printf("-eco supports only -method sdp (warm re-entry needs the SDP prior)")
		os.Exit(2)
	}

	var d *sdpfloor.Design
	var err error
	switch {
	case *bench != "":
		d, err = sdpfloor.LoadBenchmark(*bench, *aspect, *whitespace)
	case *dir != "":
		// LoadDesignDir sniffs the format: MCNC YAL (<design>.yal or a
		// MODULE-leading file) or the GSRC bookshelf triple.
		d, err = sdpfloor.LoadDesignDir(*dir, *design, *aspect, *whitespace)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		log.Fatal(err)
	}

	cfg := sdpfloor.Config{
		Outline:          d.Outline,
		Method:           sdpfloor.Method(*method),
		Seed:             *seed,
		SkipEnhancements: *basic,
	}
	cfg.Portfolio.Contenders = contenders
	// -v prints progress lines derived from the trace stream; with -trace
	// both recorders see the same events.
	if *verbose {
		cfg.Trace = trace.Log(log.Printf)
	}
	closeTrace := func() {}
	if *traceOut != "" {
		tf, err := os.Create(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		bw := bufio.NewWriter(tf)
		rec := trace.NewJSONL(bw)
		cfg.Trace = trace.Multi(cfg.Trace, rec) // Multi skips a nil cfg.Trace
		// Flushed explicitly right after the solve (not deferred): the
		// timeout path exits with status 3 and must still leave a complete
		// trace, final events included.
		closeTrace = func() {
			if err := bw.Flush(); err == nil {
				err = tf.Close()
				if err != nil {
					log.Fatal(err)
				}
			} else {
				tf.Close()
				log.Fatal(err)
			}
			if err := rec.Err(); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("trace    : %s (%d events)\n", *traceOut, rec.Lines())
		}
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	var fp *sdpfloor.Floorplan
	if *ecoPath != "" {
		fp, err = runECO(ctx, d, *ecoPath, *prevPl, cfg)
	} else {
		fp, err = sdpfloor.PlaceContext(ctx, d.Netlist, cfg)
	}
	closeTrace()
	if errors.Is(err, context.DeadlineExceeded) {
		// The solver returns its last iterate as a partial result; report
		// what it reached before giving up, then exit distinctly.
		log.Printf("timed out after %s: %v", *timeout, err)
		if fp != nil && fp.GlobalResult != nil {
			gr := fp.GlobalResult
			log.Printf("partial: %d convex iterations, %d solver iterations, alpha %g, <W,Z> %.3g",
				gr.Iterations, gr.SolverIterations, gr.AlphaFinal, gr.WZ)
		}
		if fp != nil && len(fp.Portfolio) > 0 {
			log.Printf("partial: best contender %s", fp.Winner)
			for _, r := range fp.Portfolio {
				log.Printf("  %-9s %-11s hpwl %.1f", r.Name, r.Status, r.HPWL)
			}
		}
		os.Exit(exitTimeout)
	}
	if err != nil {
		log.Fatal(err)
	}
	if *socp {
		leg, err := sdpfloor.LegalizeSOCP(d.Netlist, fp.Global, d.Outline)
		if err != nil {
			log.Fatal(err)
		}
		fp.Rects, fp.Centers, fp.HPWL, fp.Feasible = leg.Rects, leg.Centers, leg.HPWL, leg.Feasible
	}

	fmt.Printf("design   : %s (%d modules, %d nets, %d pads)\n",
		d.Name, d.Netlist.N(), len(d.Netlist.Nets), len(d.Netlist.Pads))
	fmt.Printf("outline  : %.1f x %.1f (aspect 1:%g, whitespace %.0f%%)\n",
		d.Outline.W(), d.Outline.H(), *aspect, *whitespace*100)
	fmt.Printf("method   : %s\n", *method)
	fmt.Printf("HPWL     : %.1f\n", fp.HPWL)
	fmt.Printf("feasible : %v\n", fp.Feasible)
	if gr := fp.GlobalResult; gr != nil {
		fmt.Printf("convex-iteration: %d iterations, final alpha %g, rank-2 %v, <W,Z> %.3g\n",
			gr.Iterations, gr.AlphaFinal, gr.RankOK, gr.WZ)
	}
	if inc := fp.Incremental; inc != nil {
		fmt.Printf("eco      : reused %d previous centers, seeded %d new modules\n", inc.Reused, inc.Seeded)
	}
	if len(fp.Portfolio) > 0 {
		total := 0
		for _, r := range fp.Portfolio {
			total += r.Workers
		}
		fmt.Printf("portfolio: winner %s (%d contenders, %d workers split)\n",
			fp.Winner, len(fp.Portfolio), total)
		for _, r := range fp.Portfolio {
			line := fmt.Sprintf("  %-9s %-11s", r.Name, r.Status)
			if r.HPWL > 0 {
				line += fmt.Sprintf(" hpwl %.1f", r.HPWL)
			}
			fmt.Println(line)
		}
	}

	if *outPl != "" {
		if err := writePlacement(*outPl, d, fp); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("pl       : %s\n", *outPl)
	}

	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			log.Fatal(err)
		}
		type rectJSON struct {
			Name string  `json:"name"`
			MinX float64 `json:"minX"`
			MinY float64 `json:"minY"`
			MaxX float64 `json:"maxX"`
			MaxY float64 `json:"maxY"`
		}
		out := struct {
			Design   string     `json:"design"`
			Method   string     `json:"method"`
			HPWL     float64    `json:"hpwl"`
			Feasible bool       `json:"feasible"`
			Rects    []rectJSON `json:"rects"`
		}{Design: d.Name, Method: *method, HPWL: fp.HPWL, Feasible: fp.Feasible}
		for i, r := range fp.Rects {
			out.Rects = append(out.Rects, rectJSON{
				Name: d.Netlist.Modules[i].Name,
				MinX: r.MinX, MinY: r.MinY, MaxX: r.MaxX, MaxY: r.MaxY,
			})
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			log.Fatal(err)
		}
		f.Close()
		fmt.Printf("json     : %s\n", *jsonOut)
	}

	if *svgOut != "" {
		f, err := os.Create(*svgOut)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		names := make([]string, d.Netlist.N())
		for i, m := range d.Netlist.Modules {
			names[i] = m.Name
		}
		pads := make([]sdpfloor.Point, len(d.Netlist.Pads))
		for i, p := range d.Netlist.Pads {
			pads[i] = p.Pos
		}
		if err := svg.Floorplan(f, d.Outline, fp.Rects, names, pads); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("svg      : %s\n", *svgOut)
	}
}

// runECO reads the delta and previous placement, applies the delta to the
// loaded netlist, and re-solves warm. The design is updated to the mutated
// netlist so every downstream report (-json, -svg, -out-pl) describes the
// post-ECO instance.
func runECO(ctx context.Context, d *sdpfloor.Design, ecoPath, prevPath string, cfg sdpfloor.Config) (*sdpfloor.Floorplan, error) {
	ef, err := os.Open(ecoPath)
	if err != nil {
		return nil, err
	}
	delta, err := sdpfloor.ReadDeltaJSON(bufio.NewReader(ef))
	ef.Close()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", ecoPath, err)
	}
	prev, err := readPlacement(prevPath)
	if err != nil {
		return nil, err
	}
	mutated, err := delta.Apply(d.Netlist)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", ecoPath, err)
	}
	d.Netlist = mutated
	return sdpfloor.ResolveSeeded(ctx, mutated, prev, 0, cfg)
}

// readPlacement parses 'name x y' lines (comments, bookshelf banners, and
// trailing tokens like FIXED are tolerated) into named centers.
func readPlacement(path string) ([]sdpfloor.NamedPoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var out []sdpfloor.NamedPoint
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") ||
			strings.HasPrefix(line, "UCLA") || strings.HasPrefix(line, "UCSC") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			return nil, fmt.Errorf("%s: placement line %q needs 'name x y'", path, line)
		}
		x, err1 := strconv.ParseFloat(fields[1], 64)
		y, err2 := strconv.ParseFloat(fields[2], 64)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("%s: bad coordinates in %q", path, line)
		}
		out = append(out, sdpfloor.NamedPoint{Name: fields[0], X: x, Y: y})
	}
	return out, sc.Err()
}

// writePlacement emits the global (pre-legalization) centers as 'name x y'
// lines in shortest-round-trip float form — the warm-start food for a later
// -eco run (the SDP's own converged iterate re-enters the convex iteration
// far better than the legalizer's snapped rectangles).
func writePlacement(path string, d *sdpfloor.Design, fp *sdpfloor.Floorplan) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# sdpfloor global centers for %s\n", d.Name)
	for i, m := range d.Netlist.Modules {
		p := fp.Global[i]
		fmt.Fprintf(w, "%s %s %s\n", m.Name,
			strconv.FormatFloat(p.X, 'g', -1, 64), strconv.FormatFloat(p.Y, 'g', -1, 64))
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
