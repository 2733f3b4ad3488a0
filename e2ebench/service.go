package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"sdpfloor"
	"sdpfloor/internal/gsrc"
	"sdpfloor/internal/jobstore"
	"sdpfloor/internal/service"
)

// service-eco's load: a closed loop of svcClients clients, each running
// svcSessions sessions per pass. A session POSTs a fresh n10-class
// instance, sends svcECOs chained PATCH ECOs of svcOps edits each, and
// re-POSTs the original instance, which the result cache must answer.
const (
	svcClients  = 2
	svcWorkers  = 2
	svcSessions = 10
	svcECOs     = 3
	svcOps      = 3
	jobsPerSess = svcECOs + 2

	pollEvery     = 5 * time.Millisecond
	jobTimeoutSec = 120
)

type session struct {
	outline sdpfloor.Rect
	base    *sdpfloor.Netlist
	post    []*sdpfloor.Netlist // the netlist after each ECO of the chain
	submit  []byte              // POST /v1/jobs body
	patches [][]byte            // PATCH /v1/jobs/{id} bodies
}

// slot is what the service told a client about one job, in session order.
type slot struct {
	id     string
	eco    bool
	status statusJSON
}

// serviceEnv is floorpland in-process: a service.Server with a durable
// journal (default fsync policy) behind a loopback listener on its HTTP
// handler. Each pass gets a fresh server, so every pass starts with a cold
// result cache and an empty journal.
type serviceEnv struct {
	sessions []session
	dir      string
	journal  *jobstore.Journal
	srv      *service.Server
	hs       *http.Server
	served   chan error
	base     string
	client   *http.Client

	// Filled by run, in session order.
	jobs  []job
	slots []slot
}

type rectWire struct {
	Name string  `json:"name,omitempty"`
	MinX float64 `json:"minX"`
	MinY float64 `json:"minY"`
	MaxX float64 `json:"maxX"`
	MaxY float64 `json:"maxY"`
}

type submitJSON struct {
	Netlist    json.RawMessage `json:"netlist"`
	Outline    rectWire        `json:"outline"`
	Method     string          `json:"method"`
	TimeoutSec float64         `json:"timeoutSec"`
}

type patchJSON struct {
	Delta      json.RawMessage `json:"delta"`
	TimeoutSec float64         `json:"timeoutSec"`
}

type statusJSON struct {
	ID        string     `json:"id"`
	State     string     `json:"state"`
	FromCache bool       `json:"fromCache"`
	Error     string     `json:"error"`
	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started"`
	Finished  *time.Time `json:"finished"`
}

type resultJSON struct {
	HPWL     float64    `json:"hpwl"`
	Feasible bool       `json:"feasible"`
	Rects    []rectWire `json:"rects"`
	Centers  []struct {
		X float64 `json:"x"`
		Y float64 `json:"y"`
	} `json:"centers"`
}

func setupService(o options) (passEnv, error) {
	perClient := svcSessions
	if o.tiny {
		perClient = 1
	}
	e := &serviceEnv{}
	for _, p := range rand.New(rand.NewSource(o.seed)).Perm(svcClients * perClient) {
		s, err := newSession(int64(p + 1))
		if err != nil {
			return nil, err
		}
		e.sessions = append(e.sessions, s)
	}
	var err error
	if e.dir, err = os.MkdirTemp(o.dir, "journal-"); err != nil {
		return nil, err
	}
	journal, replay, err := jobstore.Open(jobstore.Options{Dir: e.dir})
	if err != nil {
		os.RemoveAll(e.dir)
		return nil, err
	}
	e.journal = journal
	e.srv = service.New(service.Config{Workers: svcWorkers, Journal: journal, Replay: replay})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.close()
		return nil, err
	}
	e.base = "http://" + ln.Addr().String()
	e.hs = &http.Server{Handler: e.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	e.served = make(chan error, 1)
	go func() { e.served <- e.hs.Serve(ln) }()
	e.client = &http.Client{
		Transport: &http.Transport{Proxy: nil, MaxIdleConnsPerHost: svcClients, DisableCompression: true},
		Timeout:   60 * time.Second,
	}
	return e, nil
}

// newSession generates session k's n10-class instance (10 modules, 118
// nets, 69 pads, 1:1 outline, 15% whitespace; generator seed k) and its
// chain of ECO deltas (delta seeds 1000k, 1000k+1, ...).
//
// Every seed runs the same sessions 1..svcClients*svcSessions; the workload
// seed only shuffles their order and which client runs them. Per-seed
// instances made the pass time swing with the draw (one session takes 1.0
// to 4.1 s), and about one random instance in twenty stops with an IPM
// numerical failure. Sessions 1..20 all solve; some ECO results come back
// infeasible, which feasible_frac reports.
func newSession(k int64) (session, error) {
	d, err := gsrc.Generate(gsrc.Spec{Name: "n10", Modules: 10, Nets: 118, Pads: 69, Seed: k}, 1, 0.15)
	if err != nil {
		return session{}, err
	}
	s := session{outline: d.Outline, base: d.Netlist}
	var nlJSON bytes.Buffer
	if err := d.Netlist.WriteJSON(&nlJSON); err != nil {
		return session{}, err
	}
	o := d.Outline
	if s.submit, err = json.Marshal(submitJSON{
		Netlist: nlJSON.Bytes(), Outline: rectWire{MinX: o.MinX, MinY: o.MinY, MaxX: o.MaxX, MaxY: o.MaxY},
		Method: string(sdpfloor.MethodSDP), TimeoutSec: jobTimeoutSec,
	}); err != nil {
		return session{}, err
	}
	cur := d.Netlist
	for i := 0; i < svcECOs; i++ {
		delta := sdpfloor.GenerateDelta(cur, 1000*k+int64(i), svcOps)
		next, err := delta.Apply(cur)
		if err != nil {
			return session{}, err
		}
		raw, err := json.Marshal(delta)
		if err != nil {
			return session{}, err
		}
		body, err := json.Marshal(patchJSON{Delta: raw, TimeoutSec: jobTimeoutSec})
		if err != nil {
			return session{}, err
		}
		s.post = append(s.post, next)
		s.patches = append(s.patches, body)
		cur = next
	}
	return s, nil
}

// run drives the closed loop. The service traces every job into its own
// per-job ring whether or not the pass is traced, so a traced pass only
// reads those rings afterwards, in layers.
func (e *serviceEnv) run(bool) []job {
	e.slots = make([]slot, len(e.sessions)*jobsPerSess)
	e.jobs = make([]job, len(e.slots))
	jobs := e.jobs
	perClient := len(e.sessions) / svcClients
	var wg sync.WaitGroup
	for c := 0; c < svcClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for s := c * perClient; s < (c+1)*perClient; s++ {
				e.session(s, jobs[s*jobsPerSess:(s+1)*jobsPerSess])
			}
		}(c)
	}
	wg.Wait()
	return jobs
}

// session runs one client session, filling its jobs and slots in order.
// After a failed job the rest of the chain cannot run and is failed too.
func (e *serviceEnv) session(i int, jobs []job) {
	sess := &e.sessions[i]
	slots := e.slots[i*jobsPerSess : (i+1)*jobsPerSess]
	var first resultJSON
	parent := ""
	for k := range jobs {
		method, path, body, nl := http.MethodPost, "/v1/jobs", sess.submit, sess.base
		if k > 0 && k <= svcECOs {
			method, path, body, nl = http.MethodPatch, "/v1/jobs/"+parent, sess.patches[k-1], sess.post[k-1]
		}
		st, res, lat, err := e.do(method, path, body)
		slots[k] = slot{id: st.ID, eco: method == http.MethodPatch, status: st}
		j := &jobs[k]
		j.latency, j.cached = lat, st.FromCache
		if err != nil {
			j.failure = fmt.Sprintf("session %d job %d: %v", i, k, err)
		} else {
			j.hpwl, j.feasible = res.HPWL, res.Feasible
			j.failure = checkResult(nl, sess.outline, res)
			if k == 0 {
				first = res
			}
			if last := k == jobsPerSess-1; last && j.failure == "" && !st.FromCache {
				j.failure = "re-submitted instance missed the result cache"
			} else if last && j.failure == "" && math.Float64bits(res.HPWL) != math.Float64bits(first.HPWL) {
				j.failure = fmt.Sprintf("cached HPWL %v differs from the solved %v", res.HPWL, first.HPWL)
			}
			if j.failure != "" {
				j.failure = fmt.Sprintf("session %d job %d: %s", i, k, j.failure)
			}
		}
		if j.failure != "" {
			for r := k + 1; r < len(jobs); r++ {
				jobs[r].failure = fmt.Sprintf("session %d job %d: not run after job %d failed", i, r, k)
			}
			return
		}
		parent = st.ID
	}
}

// checkResult applies checkPlan to a service result, whose rectangles must
// also name the netlist's modules in order.
func checkResult(nl *sdpfloor.Netlist, outline sdpfloor.Rect, res resultJSON) string {
	rects := make([]sdpfloor.Rect, len(res.Rects))
	for i, r := range res.Rects {
		if i < nl.N() && r.Name != nl.Modules[i].Name {
			return fmt.Sprintf("rect %d is %q, module %d is %q", i, r.Name, i, nl.Modules[i].Name)
		}
		rects[i] = sdpfloor.Rect{MinX: r.MinX, MinY: r.MinY, MaxX: r.MaxX, MaxY: r.MaxY}
	}
	centers := make([]sdpfloor.Point, len(res.Centers))
	for i, c := range res.Centers {
		centers[i] = sdpfloor.Point{X: c.X, Y: c.Y}
	}
	return checkPlan(nl, outline, rects, centers, res.HPWL, res.Feasible)
}

// do submits one job, polls its status until it is terminal, and fetches
// its result. The latency runs from the submission to the fetched result.
func (e *serviceEnv) do(method, path string, body []byte) (statusJSON, resultJSON, float64, error) {
	var st statusJSON
	var res resultJSON
	t0 := time.Now()
	code, err := e.call(method, path, body, &st)
	if err != nil {
		return st, res, 0, err
	}
	if code != http.StatusAccepted && code != http.StatusOK {
		return st, res, 0, fmt.Errorf("%s %s answered %d", method, path, code)
	}
	deadline := t0.Add(jobTimeoutSec * time.Second)
	for st.State == "queued" || st.State == "running" {
		if time.Now().After(deadline) {
			return st, res, 0, fmt.Errorf("job %s still %s after %ds", st.ID, st.State, jobTimeoutSec)
		}
		time.Sleep(pollEvery)
		if code, err = e.call(http.MethodGet, "/v1/jobs/"+st.ID, nil, &st); err != nil {
			return st, res, 0, err
		}
		if code != http.StatusOK {
			return st, res, 0, fmt.Errorf("status of job %s answered %d", st.ID, code)
		}
	}
	if st.State != "done" {
		return st, res, 0, fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	if code, err = e.call(http.MethodGet, "/v1/jobs/"+st.ID+"/result", nil, &res); err != nil {
		return st, res, 0, err
	}
	if code != http.StatusOK {
		return st, res, 0, fmt.Errorf("result of job %s answered %d", st.ID, code)
	}
	return st, res, time.Since(t0).Seconds(), nil
}

// call sends one request and decodes a 2xx response body into out.
func (e *serviceEnv) call(method, path string, body []byte, out any) (int, error) {
	req, err := http.NewRequest(method, e.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := e.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.Unmarshal(data, out)
}

// layers reads the traced pass back: job timings from the statuses the
// clients saw, solver spans from each job's trace ring (Server.Trace), and
// the service's and journal's own counters. A ring that overflowed lost its
// oldest events, and with them spans; trace.dropped counts those events.
func (e *serviceEnv) layers() map[string]float64 {
	L := map[string]float64{}
	var waits, solves, overheads []float64
	var ecoIters, ecoSolves, coldIters, coldSolves float64
	var t solverTotals
	for i, s := range e.slots {
		solve := 0.0
		if st := s.status; st.Started != nil && st.Finished != nil {
			waits = append(waits, st.Started.Sub(st.Submitted).Seconds())
			solve = st.Finished.Sub(*st.Started).Seconds()
			solves = append(solves, solve)
		}
		overheads = append(overheads, e.jobs[i].latency-solve)
		if s.id == "" || e.jobs[i].cached {
			continue
		}
		evs, dropped, err := e.srv.Trace(s.id)
		if err != nil {
			continue
		}
		L["trace.dropped"] += float64(dropped)
		sp := pairSpans(evs)
		t.add(sp)
		if _, iters, runs := layerTotals(sp, "core"); runs > 0 && s.eco {
			ecoIters, ecoSolves = ecoIters+float64(iters), ecoSolves+float64(runs)
		} else if runs > 0 {
			coldIters, coldSolves = coldIters+float64(iters), coldSolves+float64(runs)
		}
	}
	t.fill(L)
	if ecoSolves > 0 {
		L["core.eco_iters_per_solve"] = ecoIters / ecoSolves
	}
	if coldSolves > 0 {
		L["core.cold_iters_per_solve"] = coldIters / coldSolves
	}

	L["service.queue_wait_p50_s"] = median(waits)
	L["service.queue_wait_tail_s"], _ = tail(waits, len(waits))
	L["service.solve_p50_s"] = median(solves)
	L["service.overhead_p50_s"] = median(overheads)
	m := e.srv.MetricsSnapshot()
	if n := m["cache_hits_total"] + m["cache_misses_total"]; n > 0 {
		L["service.cache_hit_ratio"] = float64(m["cache_hits_total"]) / float64(n)
	}
	L["service.rejected"] = float64(m["jobs_rejected_total"])
	js := e.journal.Stats()
	L["jobstore.records"], L["jobstore.bytes"] = float64(js.Records), float64(js.ActiveBytes)
	return L
}

// close stops the listener, the server and its workers, and the journal,
// then removes the journal directory.
func (e *serviceEnv) close() error {
	var errs []error
	if e.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, e.hs.Shutdown(ctx))
		cancel()
		if err := <-e.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
		e.client.CloseIdleConnections()
	}
	if e.srv != nil {
		e.srv.Close()
	}
	if e.journal != nil {
		errs = append(errs, e.journal.Close())
	}
	errs = append(errs, os.RemoveAll(e.dir))
	return errors.Join(errs...)
}
