package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"time"

	"sdpfloor"
	"sdpfloor/internal/trace"
	"sdpfloor/internal/version"
)

// jobRequestJSON is the wire form of a job submission.
type jobRequestJSON struct {
	// Netlist is the by-name netlist schema (see docs/FORMATS.md).
	Netlist json.RawMessage `json:"netlist"`
	// Outline fixes the die rectangle; when absent it is derived from
	// aspect/whitespace as in the paper's benchmarks.
	Outline    *rectWireJSON `json:"outline,omitempty"`
	Aspect     float64       `json:"aspect,omitempty"`
	Whitespace float64       `json:"whitespace,omitempty"`
	Method     string        `json:"method,omitempty"`
	Seed       int64         `json:"seed,omitempty"`
	Basic      bool          `json:"basic,omitempty"`
	// Contenders lists the solo methods a "portfolio" job races, in
	// priority order; empty selects the set by instance size.
	Contenders []string `json:"contenders,omitempty"`
	// TimeoutSec bounds the solve; 0 uses the server default.
	TimeoutSec float64 `json:"timeoutSec,omitempty"`
}

type rectWireJSON struct {
	MinX float64 `json:"minX"`
	MinY float64 `json:"minY"`
	MaxX float64 `json:"maxX"`
	MaxY float64 `json:"maxY"`
}

// errorJSON is the structured error envelope every non-2xx response uses:
// a stable machine-readable code plus a human-readable message.
type errorJSON struct {
	Error errorBody `json:"error"`
}

type errorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Error codes; stable API surface, documented in docs/SERVICE.md.
const (
	codeBadRequest   = "bad_request"
	codeNotFound     = "not_found"
	codeConflict     = "conflict"
	codeQueueFull    = "queue_full"
	codeShuttingDown = "shutting_down"
)

func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, errorJSON{Error: errorBody{Code: code, Message: msg}})
}

// writeSubmitError maps Submit/SubmitBatch errors to HTTP. Queue-full gets
// 429 with a Retry-After derived from the current backlog, so batch
// submitters can implement polite backoff without parsing anything.
func (s *Server) writeSubmitError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		writeError(w, http.StatusTooManyRequests, codeQueueFull, err.Error())
	case errors.Is(err, ErrClosed):
		writeError(w, http.StatusServiceUnavailable, codeShuttingDown, err.Error())
	default:
		writeError(w, http.StatusBadRequest, codeBadRequest, err.Error())
	}
}

// retryAfterSeconds estimates when a queue slot should free up: the
// backlog ahead of a new submission divided across the worker pool, paced
// by the average solve time observed so far, clamped to [1s, 60s].
func (s *Server) retryAfterSeconds() int {
	s.mu.Lock()
	backlog := int64(len(s.queue))
	s.mu.Unlock()
	finished := s.metrics.JobsDone.Load() + s.metrics.JobsFailed.Load() + s.metrics.JobsCancelled.Load()
	avgMillis := int64(1000)
	if finished > 0 {
		avgMillis = s.metrics.SolveMillis.Load() / finished
	}
	secs := (backlog/int64(s.cfg.Workers) + 1) * avgMillis / 1000
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return int(secs)
}

// Handler returns the service's HTTP API:
//
//	POST   /v1/jobs           submit a job (JSON body; 202, or 200 on cache hit)
//	GET    /v1/jobs           list all jobs
//	GET    /v1/jobs/{id}      job status
//	PATCH  /v1/jobs/{id}      submit an incremental (ECO) re-solve: the body's
//	                          delta is applied to the done job {id}'s netlist
//	                          and solved warm from its solution (202; 409
//	                          until the parent is done)
//	GET    /v1/jobs/{id}/result  result of a done job (409 while unfinished)
//	GET    /v1/jobs/{id}/trace   captured solver telemetry as JSONL
//	                          (?follow=1 streams live until the job finishes)
//	DELETE /v1/jobs/{id}      cancel a queued or running job
//	POST   /v1/batches        submit one netlist × methods × seeds fan-out
//	GET    /v1/batches        list all batches (aggregate counts)
//	GET    /v1/batches/{id}   batch status with member job snapshots
//	GET    /healthz           liveness, build stamp, pool + durability info
//	GET    /metrics           expvar-style JSON counters
//	GET    /debug/pprof/...   runtime profiling (CPU, heap, goroutines)
//
// Errors are JSON envelopes {"error":{"code","message"}}; a full queue
// answers 429 with a Retry-After estimate.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("PATCH /v1/jobs/{id}", s.handleEco)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("POST /v1/batches", s.handleBatchSubmit)
	mux.HandleFunc("GET /v1/batches", s.handleBatchList)
	mux.HandleFunc("GET /v1/batches/{id}", s.handleBatchStatus)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return mux
}

// handleTrace streams a job's captured telemetry as JSONL (one event per
// line, oldest first). Events the bounded ring already discarded are counted
// in the X-Trace-Dropped header. With ?follow=1 the response stays open and
// streams new events as the solver produces them, ending when the job
// reaches a terminal state (long-poll friendly: each event is flushed as a
// complete line).
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("follow") != "" {
		s.handleTraceFollow(w, r)
		return
	}
	evs, dropped, err := s.Trace(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, codeNotFound, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	if dropped > 0 {
		w.Header().Set("X-Trace-Dropped", strconv.FormatInt(dropped, 10))
	}
	w.WriteHeader(http.StatusOK)
	ctx := r.Context()
	var buf []byte
	for _, ev := range evs {
		if ctx.Err() != nil {
			return
		}
		buf = trace.AppendJSON(buf[:0], ev)
		buf = append(buf, '\n')
		if _, err := w.Write(buf); err != nil {
			return
		}
	}
}

func (s *Server) handleTraceFollow(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, _, err := s.traceFollow(id); err != nil {
		writeError(w, http.StatusNotFound, codeNotFound, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	ctx := r.Context()
	var buf []byte
	var seen int64
	emit := func(evs []trace.Event) bool {
		for _, ev := range evs {
			buf = trace.AppendJSON(buf[:0], ev)
			buf = append(buf, '\n')
			if _, err := w.Write(buf); err != nil {
				return false
			}
		}
		if len(evs) > 0 && flusher != nil {
			flusher.Flush()
		}
		return true
	}
	for {
		ring, done, err := s.traceFollow(id)
		if err != nil {
			return
		}
		if ring == nil {
			// Queued (no ring yet) or finished without ever solving (cache
			// hit, cancelled while queued). Wait for either the solve to
			// start or the job to end.
			select {
			case <-done:
				if ring, _, err = s.traceFollow(id); err != nil || ring == nil {
					return
				}
				evs, _ := ring.SnapshotSince(seen)
				emit(evs)
				return
			case <-ctx.Done():
				return
			case <-time.After(50 * time.Millisecond):
				continue
			}
		}
		// Arm the wakeup before snapshotting so an event recorded between
		// the snapshot and the wait below cannot be missed.
		updated := ring.Updated()
		evs, next := ring.SnapshotSince(seen)
		seen = next
		if !emit(evs) {
			return
		}
		select {
		case <-done:
			evs, _ := ring.SnapshotSince(seen) // final drain
			emit(evs)
			return
		case <-updated:
		case <-ctx.Done():
			return
		}
	}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var in jobRequestJSON
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20))
	if err := dec.Decode(&in); err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, "bad request body: "+err.Error())
		return
	}
	if len(in.Netlist) == 0 {
		writeError(w, http.StatusBadRequest, codeBadRequest, "missing netlist")
		return
	}
	nl, err := sdpfloor.ReadNetlistJSON(bytes.NewReader(in.Netlist))
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, err.Error())
		return
	}
	req := &Request{
		Netlist:    nl,
		Method:     sdpfloor.Method(in.Method),
		Seed:       in.Seed,
		Basic:      in.Basic,
		Contenders: in.Contenders,
		Timeout:    time.Duration(in.TimeoutSec * float64(time.Second)),
	}
	if in.Outline != nil {
		req.Outline = sdpfloor.Rect{MinX: in.Outline.MinX, MinY: in.Outline.MinY, MaxX: in.Outline.MaxX, MaxY: in.Outline.MaxY}
	} else {
		req.Outline = sdpfloor.OutlineFor(nl, in.Aspect, in.Whitespace)
	}

	st, err := s.Submit(req)
	if err != nil {
		s.writeSubmitError(w, err)
		return
	}
	code := http.StatusAccepted
	if st.FromCache {
		code = http.StatusOK
	}
	writeJSON(w, code, st)
}

// ecoRequestJSON is the wire form of PATCH /v1/jobs/{id}: an ECO delta in
// the delta JSON schema (see docs/INCREMENTAL.md) applied to job {id}.
type ecoRequestJSON struct {
	Delta json.RawMessage `json:"delta"`
	// TimeoutSec bounds the re-solve; 0 uses the server default.
	TimeoutSec float64 `json:"timeoutSec,omitempty"`
}

// handleEco submits an incremental re-solve derived from a finished job.
// The parent must be done (409 otherwise); the delta must parse and apply
// against the parent's netlist (400 otherwise). The response is the new
// job's status — ECO jobs are ordinary jobs from here on (status, result,
// trace, cancel all work), with Status.EcoOf naming the parent.
func (s *Server) handleEco(w http.ResponseWriter, r *http.Request) {
	var in ecoRequestJSON
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20))
	if err := dec.Decode(&in); err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, "bad request body: "+err.Error())
		return
	}
	if len(in.Delta) == 0 {
		writeError(w, http.StatusBadRequest, codeBadRequest, "missing delta")
		return
	}
	d, err := sdpfloor.ReadDeltaJSON(bytes.NewReader(in.Delta))
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, err.Error())
		return
	}
	st, err := s.SubmitECO(r.PathValue("id"), d, time.Duration(in.TimeoutSec*float64(time.Second)))
	if err != nil {
		switch {
		case errors.Is(err, ErrNotFound):
			writeError(w, http.StatusNotFound, codeNotFound, err.Error())
		case errors.Is(err, ErrParentNotDone):
			writeError(w, http.StatusConflict, codeConflict, err.Error())
		default:
			s.writeSubmitError(w, err)
		}
		return
	}
	code := http.StatusAccepted
	if st.FromCache {
		code = http.StatusOK
	}
	writeJSON(w, code, st)
}

// batchRequestJSON is the wire form of POST /v1/batches: one netlist plus
// the fan-out axes. Every methods × seeds combination becomes one job;
// absent axes default to [sdp] × [0].
type batchRequestJSON struct {
	Netlist    json.RawMessage `json:"netlist"`
	Outline    *rectWireJSON   `json:"outline,omitempty"`
	Aspect     float64         `json:"aspect,omitempty"`
	Whitespace float64         `json:"whitespace,omitempty"`
	Methods    []string        `json:"methods,omitempty"`
	Seeds      []int64         `json:"seeds,omitempty"`
	Basic      bool            `json:"basic,omitempty"`
	// Contenders applies to any "portfolio" entry in Methods: those jobs
	// race this contender list; empty selects the set by instance size.
	Contenders []string `json:"contenders,omitempty"`
	TimeoutSec float64  `json:"timeoutSec,omitempty"`
}

// maxBatchJobs bounds one batch's fan-out; larger sweeps should be split
// so backpressure applies per request.
const maxBatchJobs = 256

func (s *Server) handleBatchSubmit(w http.ResponseWriter, r *http.Request) {
	var in batchRequestJSON
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20))
	if err := dec.Decode(&in); err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, "bad request body: "+err.Error())
		return
	}
	if len(in.Netlist) == 0 {
		writeError(w, http.StatusBadRequest, codeBadRequest, "missing netlist")
		return
	}
	nl, err := sdpfloor.ReadNetlistJSON(bytes.NewReader(in.Netlist))
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, err.Error())
		return
	}
	outline := sdpfloor.OutlineFor(nl, in.Aspect, in.Whitespace)
	if in.Outline != nil {
		outline = sdpfloor.Rect{MinX: in.Outline.MinX, MinY: in.Outline.MinY, MaxX: in.Outline.MaxX, MaxY: in.Outline.MaxY}
	}
	methods := in.Methods
	if len(methods) == 0 {
		methods = []string{string(sdpfloor.MethodSDP)}
	}
	seeds := in.Seeds
	if len(seeds) == 0 {
		seeds = []int64{0}
	}
	if n := len(methods) * len(seeds); n > maxBatchJobs {
		writeError(w, http.StatusBadRequest, codeBadRequest,
			fmt.Sprintf("batch fans out to %d jobs, limit %d", n, maxBatchJobs))
		return
	}
	var reqs []*Request
	for _, m := range methods {
		for _, seed := range seeds {
			req := &Request{
				Netlist: nl,
				Outline: outline,
				Method:  sdpfloor.Method(m),
				Seed:    seed,
				Basic:   in.Basic,
				Timeout: time.Duration(in.TimeoutSec * float64(time.Second)),
			}
			if req.Method == sdpfloor.MethodPortfolio {
				req.Contenders = in.Contenders
			}
			reqs = append(reqs, req)
		}
	}
	st, err := s.SubmitBatch(reqs)
	if err != nil {
		s.writeSubmitError(w, err)
		return
	}
	code := http.StatusAccepted
	if st.Terminal {
		code = http.StatusOK // every job answered from the cache
	}
	writeJSON(w, code, st)
}

func (s *Server) handleBatchList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Batches []BatchStatus `json:"batches"`
	}{Batches: s.ListBatches()})
}

func (s *Server) handleBatchStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.BatchStatus(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, codeNotFound, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Jobs []Status `json:"jobs"`
	}{Jobs: s.List()})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.Status(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, codeNotFound, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	res, st, err := s.Result(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, codeNotFound, err.Error())
		return
	}
	if st.State != StateDone {
		writeError(w, http.StatusConflict, codeConflict,
			fmt.Sprintf("job %s is %s, not done", st.ID, st.State))
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, err := s.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, codeNotFound, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	out := map[string]any{
		"status":        status,
		"version":       version.Stamp(),
		"workers":       s.cfg.Workers,
		"solve_workers": s.cfg.SolveWorkers,
		"queue":         s.cfg.QueueDepth,
		"durable":       s.journal != nil,
	}
	if s.journal != nil {
		out["data_dir"] = s.journal.Dir()
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.MetricsSnapshot()
	// Deterministic key order, expvar-style flat JSON object.
	keys := make([]string, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	fmt.Fprint(w, "{")
	for i, k := range keys {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		fmt.Fprintf(w, "\n  %q: %d", k, snap[k])
	}
	fmt.Fprint(w, "\n}\n")
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
