// Package service implements floorpland, the concurrent floorplanning
// daemon: an in-memory job queue drained by a bounded worker pool, a
// content-addressed result cache, and JSON metrics. Each job runs
// sdpfloor.PlaceContext under a per-job timeout derived from the request and
// the server default, so clients can cancel or abandon long SDP solves
// without leaking goroutines — the context threads down to the IPM/ADMM
// iteration loops.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sdpfloor"
	"sdpfloor/internal/core"
	"sdpfloor/internal/jobstore"
	"sdpfloor/internal/netlist"
	"sdpfloor/internal/trace"
)

// Config tunes a Server.
type Config struct {
	// Workers bounds the number of concurrent solves (default GOMAXPROCS).
	Workers int
	// SolveWorkers is the per-solve parallelism handed to the SDP kernels
	// (core.Options.Workers). The default max(1, GOMAXPROCS/Workers) keeps
	// service concurrency × per-solve parallelism bounded by the machine
	// width, so a saturated queue does not oversubscribe the CPU.
	SolveWorkers int
	// QueueDepth bounds the number of queued-but-not-running jobs; submits
	// beyond it are rejected (default 64).
	QueueDepth int
	// DefaultTimeout bounds jobs that do not request one (default 5m).
	DefaultTimeout time.Duration
	// MaxTimeout caps the per-job timeout a request may ask for (default
	// 30m).
	MaxTimeout time.Duration
	// CacheSize bounds the result cache entry count (default 128).
	CacheSize int
	// TraceDepth bounds the per-job solver-telemetry ring buffer served by
	// GET /v1/jobs/{id}/trace: the newest TraceDepth events are retained,
	// older ones are dropped and counted (default 4096).
	TraceDepth int
	// Journal, when non-nil, makes the job table durable: every state
	// transition is appended to the write-ahead journal, and Replay (the
	// states jobstore.Open returned from the same journal) restores the
	// previous process's jobs — finished ones as history (their results
	// repopulate the cache), interrupted ones re-enqueued exactly once.
	Journal *jobstore.Journal
	// Replay holds the job states recovered by jobstore.Open; ignored when
	// Journal is nil.
	Replay []*jobstore.JobState
	// Logf, when non-nil, receives service log lines.
	Logf func(format string, args ...any)
}

func (c *Config) setDefaults() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.SolveWorkers <= 0 {
		c.SolveWorkers = runtime.GOMAXPROCS(0) / c.Workers
		if c.SolveWorkers < 1 {
			c.SolveWorkers = 1
		}
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 5 * time.Minute
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 30 * time.Minute
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 128
	}
	if c.TraceDepth <= 0 {
		c.TraceDepth = 4096
	}
}

// Server owns the job table, queue, worker pool, cache, journal, and
// metrics.
type Server struct {
	cfg     Config
	metrics Metrics
	cache   *cache
	started time.Time

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup

	// draining flips on when a graceful drain (or Close) begins: workers
	// stop picking up queued jobs (they stay journaled for replay) and
	// interrupted solves checkpoint instead of recording terminal states.
	draining atomic.Bool

	mu         sync.Mutex
	jobs       map[string]*Job
	order      []string // submission order, for listing
	queue      chan *Job
	seq        int
	closed     bool
	journal    *jobstore.Journal
	batches    map[string]*batch
	batchOrder []string
	batchSeq   int

	// placeFn runs one solve; swapped out by tests for deterministic
	// control over solve duration and cancellation behavior.
	placeFn func(ctx context.Context, nl *sdpfloor.Netlist, cfg sdpfloor.Config) (*sdpfloor.Floorplan, error)
}

// Submission errors.
var (
	ErrQueueFull = errors.New("service: queue full")
	ErrClosed    = errors.New("service: server closed")
	ErrNotFound  = errors.New("service: no such job")
	// ErrParentNotDone rejects an ECO submission whose parent job has not
	// finished successfully (PATCH answers 409 until GET result would 200).
	ErrParentNotDone = errors.New("service: ECO parent job is not done")
)

// New starts a server with cfg.Workers solver goroutines. When cfg.Journal
// is set, cfg.Replay is restored into the job table before the workers
// start, so replayed jobs keep their IDs and run before anything submitted
// later.
func New(cfg Config) *Server { return newServer(cfg, sdpfloor.PlaceContext) }

// newServer is New with an explicit solve function; tests use it to install
// a stub before the workers (which may immediately pick up replayed jobs)
// start.
func newServer(cfg Config, placeFn func(ctx context.Context, nl *sdpfloor.Netlist, cfg sdpfloor.Config) (*sdpfloor.Floorplan, error)) *Server {
	cfg.setDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	// The queue must absorb every interrupted replayed job on top of the
	// configured client-facing depth, or recovery itself could hit the
	// backpressure limit and lose accepted work.
	replayable := 0
	if cfg.Journal != nil {
		for _, st := range cfg.Replay {
			if st.Interrupted() {
				replayable++
			}
		}
	}
	s := &Server{
		cfg:        cfg,
		cache:      newCache(cfg.CacheSize),
		started:    time.Now(),
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       make(map[string]*Job),
		queue:      make(chan *Job, cfg.QueueDepth+replayable),
		journal:    cfg.Journal,
		batches:    make(map[string]*batch),
		placeFn:    placeFn,
	}
	if cfg.Journal != nil {
		s.restore(cfg.Replay)
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Close stops accepting jobs, cancels everything in flight, and waits for
// the workers to drain. Safe to call more than once. With a journal
// attached, interrupted jobs are checkpointed (not terminally recorded) so
// the next start replays them; for a bounded graceful wait use Drain.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.draining.Store(true)
	close(s.queue)
	s.mu.Unlock()
	s.baseCancel() // running solves observe this at their next iteration
	s.wg.Wait()
}

// Drain gracefully shuts the server down: it stops accepting submissions,
// leaves queued jobs untouched (journaled, they replay on the next start),
// and gives running solves until ctx expires to finish. Solves still
// running at the deadline are cancelled and checkpointed to the journal as
// interrupted. The journal is flushed and fsynced before Drain returns.
// Safe to call more than once; concurrent with Close the first caller
// wins.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return s.syncJournal()
	}
	s.closed = true
	s.draining.Store(true)
	close(s.queue)
	s.mu.Unlock()
	s.logf("service: draining (running jobs get %s)", durUntil(ctx))

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		s.logf("service: drain deadline reached, interrupting running jobs")
		s.baseCancel()
		<-done
	}
	return s.syncJournal()
}

func durUntil(ctx context.Context) string {
	if dl, ok := ctx.Deadline(); ok {
		return time.Until(dl).Round(time.Millisecond).String()
	}
	return "unbounded time"
}

func (s *Server) syncJournal() error {
	s.mu.Lock()
	j := s.journal
	s.mu.Unlock()
	if j == nil {
		return nil
	}
	return j.Sync()
}

// Draining reports whether the server has begun shutting down.
func (s *Server) Draining() bool { return s.draining.Load() }

// Workers returns the configured pool width.
func (s *Server) Workers() int { return s.cfg.Workers }

// validateRequest normalizes a request in place (default method, timeout
// clamping) and returns its content-addressed cache key.
func (s *Server) validateRequest(req *Request) (string, error) {
	if req == nil || req.Netlist == nil || req.Netlist.N() == 0 {
		return "", errors.New("service: empty netlist")
	}
	if req.Outline.W() <= 0 || req.Outline.H() <= 0 {
		return "", errors.New("service: outline must have positive area")
	}
	if req.Method == "" {
		req.Method = sdpfloor.MethodSDP
	}
	if !validMethod(req.Method) {
		return "", fmt.Errorf("service: unknown method %q (valid: %v, %s)", req.Method, sdpfloor.Methods, sdpfloor.MethodPortfolio)
	}
	if err := validateContenders(req); err != nil {
		return "", err
	}
	if req.Eco != nil && req.Method != sdpfloor.MethodSDP {
		return "", fmt.Errorf("service: ECO re-solve supports only method %q, got %q", sdpfloor.MethodSDP, req.Method)
	}
	if req.Timeout <= 0 {
		req.Timeout = s.cfg.DefaultTimeout
	}
	if req.Timeout > s.cfg.MaxTimeout {
		req.Timeout = s.cfg.MaxTimeout
	}
	return req.Key(), nil
}

// Submit validates and enqueues a request. A request whose cache key matches
// a previously completed solve finishes immediately from the cache.
func (s *Server) Submit(req *Request) (Status, error) {
	key, err := s.validateRequest(req)
	if err != nil {
		return Status{}, err
	}
	now := time.Now()
	j := &Job{
		key:       key,
		req:       req,
		submitted: now,
		done:      make(chan struct{}),
	}
	res, hit := s.cache.get(key)

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return Status{}, ErrClosed
	}
	if hit {
		s.finishFromCacheLocked(j, now, res)
		st := j.statusLocked(now)
		s.mu.Unlock()
		s.metrics.CacheHits.Add(1)
		s.metrics.JobsSubmitted.Add(1)
		s.metrics.JobsDone.Add(1)
		s.logf("service: job %s served from cache (%s)", st.ID, req.Method)
		return st, nil
	}
	if !s.enqueueLocked(j) {
		s.mu.Unlock()
		s.metrics.JobsRejected.Add(1)
		return Status{}, ErrQueueFull
	}
	st := j.statusLocked(now)
	s.mu.Unlock()
	s.metrics.CacheMisses.Add(1)
	s.metrics.JobsSubmitted.Add(1)
	s.logf("service: job %s queued (%s, n=%d, timeout=%s)", st.ID, req.Method, req.Netlist.N(), req.Timeout)
	return st, nil
}

// SubmitECO validates and enqueues an incremental (ECO) re-solve: the
// delta is applied to the parent job's netlist, and the new job is seeded
// warm from the parent's solution (pre-legalization SDP centers when the
// result carries them, legalized centers otherwise). The parent must be
// done; a delta that does not apply to the parent's netlist is rejected.
// The ECO job is a first-class job — its journal record carries the
// post-delta netlist and the prior, so an ECO chain replays after a crash
// without re-running any parent.
func (s *Server) SubmitECO(parentID string, d sdpfloor.Delta, timeout time.Duration) (Status, error) {
	if d.Empty() {
		return Status{}, errors.New("service: empty ECO delta")
	}
	canon, err := json.Marshal(d)
	if err != nil {
		return Status{}, fmt.Errorf("service: encode delta: %w", err)
	}

	s.mu.Lock()
	parent, ok := s.jobs[parentID]
	if !ok {
		s.mu.Unlock()
		return Status{}, fmt.Errorf("%w: %s", ErrNotFound, parentID)
	}
	if parent.state != StateDone || parent.result == nil {
		state := parent.state
		s.mu.Unlock()
		return Status{}, fmt.Errorf("%w: job %s is %s", ErrParentNotDone, parentID, state)
	}
	parentNL := parent.req.Netlist
	parentRes := parent.result
	outline := parent.req.Outline
	seed := parent.req.Seed
	s.mu.Unlock()

	if parentNL == nil || parentNL.N() == 0 {
		return Status{}, fmt.Errorf("service: parent job %s has no netlist (compacted from the journal); re-submit it first", parentID)
	}
	centers := parentRes.GlobalCenters
	if len(centers) != parentNL.N() {
		centers = parentRes.Centers
	}
	if len(centers) != parentNL.N() {
		return Status{}, fmt.Errorf("service: parent job %s result carries no usable centers", parentID)
	}
	prev := make([]sdpfloor.NamedPoint, parentNL.N())
	for i, m := range parentNL.Modules {
		prev[i] = sdpfloor.NamedPoint{Name: m.Name, X: centers[i].X, Y: centers[i].Y}
	}
	mutated, err := d.Apply(parentNL)
	if err != nil {
		return Status{}, fmt.Errorf("service: %w", err)
	}
	prevIters := 0
	if parentRes.Global != nil {
		prevIters = parentRes.Global.SolverIterations
	}
	req := &Request{
		Netlist: mutated,
		Outline: outline,
		Method:  sdpfloor.MethodSDP,
		Seed:    seed,
		Timeout: timeout,
		Eco: &EcoRequest{
			Parent:    parentID,
			DeltaJSON: canon,
			DeltaHash: d.Hash(),
			Prev:      prev,
			PrevIters: prevIters,
		},
	}
	return s.Submit(req)
}

// finishFromCacheLocked registers a job and completes it immediately from a
// cached result, journaling the full submitted→done lifecycle so the hit is
// durable history too.
func (s *Server) finishFromCacheLocked(j *Job, now time.Time, res *Result) {
	s.registerLocked(j)
	j.state = StateDone
	j.finished = now
	j.result = res
	j.fromCache = true
	close(j.done)
	s.journalSubmittedLocked(j)
	s.journalTerminalLocked(j, 0)
}

// enqueueLocked registers a job and pushes it onto the worker queue,
// reporting false when the queue is full. Registration and the journal
// append happen while still holding the mutex: a worker popping the job
// blocks on the same mutex, so it cannot run (or journal "started") before
// the ID and the "submitted" record exist.
func (s *Server) enqueueLocked(j *Job) bool {
	j.state = StateQueued
	select {
	case s.queue <- j:
		s.registerLocked(j)
		s.journalSubmittedLocked(j)
		return true
	default:
		return false
	}
}

// registerLocked assigns the next job ID and records the job.
func (s *Server) registerLocked(j *Job) {
	s.seq++
	j.id = fmt.Sprintf("job-%06d", s.seq)
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
}

// Status returns a snapshot of one job.
func (s *Server) Status(id string) (Status, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Status{}, ErrNotFound
	}
	return j.statusLocked(time.Now()), nil
}

// Result returns the result of a finished job (nil when not done yet or the
// job failed).
func (s *Server) Result(id string) (*Result, Status, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, Status{}, ErrNotFound
	}
	return j.result, j.statusLocked(time.Now()), nil
}

// List snapshots every job in submission order.
func (s *Server) List() []Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := time.Now()
	out := make([]Status, 0, len(s.order))
	//sdpvet:ignore ctxloop bounded snapshot of the in-memory job table; no solver work runs here
	for _, id := range s.order {
		out = append(out, s.jobs[id].statusLocked(now))
	}
	return out
}

// Cancel requests cancellation: a queued job terminates immediately; a
// running job's context is cancelled and the worker records the terminal
// state as soon as the solver unwinds. Cancelling a terminal job is a no-op.
func (s *Server) Cancel(id string) (Status, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Status{}, ErrNotFound
	}
	now := time.Now()
	switch j.state {
	case StateQueued:
		j.state = StateCancelled
		j.err = "cancelled while queued"
		j.finished = now
		close(j.done)
		s.metrics.JobsCancelled.Add(1)
		s.logf("service: job %s cancelled while queued", j.id)
	case StateRunning:
		if !j.cancelAsked {
			j.cancelAsked = true
			j.cancel()
			s.logf("service: job %s cancellation requested", j.id)
		}
	}
	return j.statusLocked(now), nil
}

// Wait blocks until the job reaches a terminal state or ctx is done.
func (s *Server) Wait(ctx context.Context, id string) (Status, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return Status{}, ErrNotFound
	}
	select {
	case <-j.done:
		return s.Status(id)
	case <-ctx.Done():
		return Status{}, ctx.Err()
	}
}

// worker drains the queue until Close.
func (s *Server) worker() {
	defer s.wg.Done()
	//sdpvet:ignore ctxloop queue drain; cancellation is per-job via the context runJob derives
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob executes one job end to end.
func (s *Server) runJob(j *Job) {
	// A drain that started while the job sat in the channel: with a journal
	// the job is already durable as "submitted", so skip the solve and let
	// the next start replay it. Without a journal fall through — Close has
	// cancelled the base context and the solve unwinds as cancelled.
	if s.draining.Load() && s.journal != nil {
		s.mu.Lock()
		if j.state == StateQueued {
			j.state = StateInterrupted
			j.err = "interrupted by shutdown; replays on next start"
			j.finished = time.Now()
			close(j.done)
			s.metrics.JobsInterrupted.Add(1)
			s.logf("service: job %s left queued for replay (drain)", j.id)
		}
		s.mu.Unlock()
		return
	}

	s.mu.Lock()
	if j.state != StateQueued { // cancelled while waiting in the channel
		s.mu.Unlock()
		return
	}
	ctx, cancel := context.WithTimeout(s.baseCtx, j.req.Timeout)
	j.state = StateRunning
	j.started = time.Now()
	j.cancel = cancel
	j.trace = trace.NewRing(s.cfg.TraceDepth)
	req := j.req
	rec := &jobRecorder{ring: j.trace, m: &s.metrics, srv: s, jobID: j.id}
	s.journalAppend(jobstore.Record{Job: j.id, Event: jobstore.EventStarted, Replays: j.replays})
	s.mu.Unlock()
	defer cancel()

	cfg := sdpfloor.Config{
		Outline:          req.Outline,
		Method:           req.Method,
		Seed:             req.Seed,
		SkipEnhancements: req.Basic,
		Trace:            rec,
	}
	// Portfolio jobs race their contenders inside the per-solve worker
	// budget: Race splits SolveWorkers across contenders (each gets at
	// least one; the shared kernel pool bounds real parallelism), so a
	// portfolio job consumes no more CPU than a solo one.
	if req.Method == sdpfloor.MethodPortfolio {
		for _, c := range req.Contenders {
			cfg.Portfolio.Contenders = append(cfg.Portfolio.Contenders, sdpfloor.Method(c))
		}
	}
	cfg.Global.Workers = s.cfg.SolveWorkers
	// ECO jobs enter the convex iteration warm: the journaled prior maps
	// onto the post-delta netlist (surviving modules keep their centers,
	// new ones seed at their net neighbors' centroid). Installed here, not
	// in placeFn, so test stubs and crash replays see identical wiring.
	var ecoReused, ecoSeeded int
	if req.Eco != nil {
		var seeds []sdpfloor.Point
		seeds, ecoReused, ecoSeeded = netlist.SeedFromPrior(req.Netlist, req.Eco.Prev, req.Outline.Center())
		cfg.Global.Prior = &core.Prior{Centers: seeds}
	}
	fp, err := s.placeFn(ctx, req.Netlist, cfg)

	now := time.Now()
	iters := int(rec.iters.Load())
	s.mu.Lock()
	j.finished = now
	solveMillis := now.Sub(j.started).Milliseconds()
	switch {
	case err == nil:
		j.state = StateDone
		if req.Eco != nil {
			inc := &sdpfloor.Incremental{Reused: ecoReused, Seeded: ecoSeeded}
			if fp.GlobalResult != nil && req.Eco.PrevIters > 0 {
				inc.SolverItersSaved = req.Eco.PrevIters - fp.GlobalResult.SolverIterations
			}
			fp.Incremental = inc
		}
		j.result = newResult(req.Netlist, fp)
	case s.draining.Load() && s.journal != nil && !j.cancelAsked && errors.Is(err, context.Canceled):
		// Drain deadline cancelled the base context mid-solve. The journal
		// keeps the job live (checkpoint only, no terminal record), so the
		// next start re-runs it.
		j.state = StateInterrupted
		j.err = "interrupted by shutdown; replays on next start"
	case j.cancelAsked || errors.Is(err, context.Canceled):
		j.state = StateCancelled
		j.err = err.Error()
	case errors.Is(err, context.DeadlineExceeded):
		j.state = StateFailed
		j.err = fmt.Sprintf("deadline exceeded after %s: %v", req.Timeout, err)
	default:
		j.state = StateFailed
		j.err = err.Error()
	}
	state := j.state
	result := j.result
	close(j.done)
	if state == StateInterrupted {
		s.journalAppend(jobstore.Record{Job: j.id, Event: jobstore.EventProgress, Iters: iters})
	} else {
		s.journalTerminalLocked(j, iters)
	}
	s.mu.Unlock()

	s.metrics.SolveMillis.Add(solveMillis)
	if fp != nil && fp.GlobalResult != nil {
		s.metrics.ConvexIters.Add(int64(fp.GlobalResult.Iterations))
		s.metrics.SubSolverIters.Add(int64(fp.GlobalResult.SolverIterations))
		s.metrics.WarmStarts.Add(int64(fp.GlobalResult.WarmStarts))
	}
	switch state {
	case StateDone:
		s.metrics.JobsDone.Add(1)
		s.cache.put(j.key, result)
	case StateCancelled:
		s.metrics.JobsCancelled.Add(1)
	case StateInterrupted:
		s.metrics.JobsInterrupted.Add(1)
	default:
		s.metrics.JobsFailed.Add(1)
	}
	s.logf("service: job %s %s after %dms", j.id, state, solveMillis)
}

// MetricsSnapshot merges the counters with live gauges.
func (s *Server) MetricsSnapshot() map[string]int64 {
	s.mu.Lock()
	var queued, running, done, failed, cancelled, interrupted int64
	for _, j := range s.jobs {
		switch j.state {
		case StateQueued:
			queued++
		case StateRunning:
			running++
		case StateDone:
			done++
		case StateFailed:
			failed++
		case StateCancelled:
			cancelled++
		case StateInterrupted:
			interrupted++
		}
	}
	queueLen := int64(len(s.queue))
	batches := int64(len(s.batches))
	journal := s.journal
	s.mu.Unlock()
	gauges := map[string]int64{
		"jobs_queued":                queued,
		"jobs_running":               running,
		"jobs_done":                  done,
		"jobs_failed":                failed,
		"jobs_cancelled":             cancelled,
		"jobs_interrupted":           interrupted,
		"workers":                    int64(s.cfg.Workers),
		"solve_workers":              int64(s.cfg.SolveWorkers),
		"queue_capacity":             int64(s.cfg.QueueDepth),
		"queue_length":               queueLen,
		"cache_entries":              int64(s.cache.len()),
		"batches":                    batches,
		"process_start_unix_seconds": s.started.Unix(),
	}
	if s.draining.Load() {
		gauges["draining"] = 1
	} else {
		gauges["draining"] = 0
	}
	if journal != nil {
		js := journal.Stats()
		gauges["journal_live_jobs"] = js.Live
		gauges["journal_terminal_jobs"] = js.Terminal
		gauges["journal_segments"] = js.Segments
		gauges["journal_active_bytes"] = js.ActiveBytes
		gauges["journal_compactions_total"] = js.Compactions
	}
	return s.metrics.snapshot(gauges)
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

func validMethod(m sdpfloor.Method) bool {
	return m == sdpfloor.MethodPortfolio || soloMethod(m)
}

func soloMethod(m sdpfloor.Method) bool {
	for _, v := range sdpfloor.Methods {
		if m == v {
			return true
		}
	}
	return false
}

// validateContenders rejects malformed portfolio requests at submit time,
// so a bad contender list answers 400 instead of a failed job.
func validateContenders(req *Request) error {
	if req.Method != sdpfloor.MethodPortfolio {
		if len(req.Contenders) > 0 {
			return fmt.Errorf("service: contenders require method %q", sdpfloor.MethodPortfolio)
		}
		return nil
	}
	seen := make(map[string]bool, len(req.Contenders))
	for _, c := range req.Contenders {
		if !soloMethod(sdpfloor.Method(c)) {
			return fmt.Errorf("service: portfolio contender %q is not a solo method (valid: %v)", c, sdpfloor.Methods)
		}
		if seen[c] {
			return fmt.Errorf("service: portfolio contender %q listed twice", c)
		}
		seen[c] = true
	}
	return nil
}
