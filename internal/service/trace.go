package service

import (
	"sync"
	"sync/atomic"
	"time"

	"sdpfloor/internal/jobstore"
	"sdpfloor/internal/trace"
)

// progressCheckpointEvery is the solver-iteration cadence of journal
// progress records: frequent enough that a replayed daemon knows roughly
// how far an interrupted solve got, rare enough that checkpoints are noise
// relative to the solve itself.
const progressCheckpointEvery = 2000

// jobRecorder is the trace.Recorder handed to each solve: it forwards every
// event into the job's bounded ring buffer (served by GET /v1/jobs/{id}/trace)
// and feeds the service-level iteration-latency histogram with the
// wall-clock duration of every iteration of every solver run: the gap from
// a run's "start" event to its first "iter" and between its consecutive
// "iter" events, where a run is one (Solver, Run) pair. Nested solvers
// (core around IPM, L-BFGS in the legalizer) and portfolio contenders
// interleave their events in one job, so gaps across runs would measure
// none of them. Latency is measured here with the recorder's own clock
// rather than taken from event content, which stays free of timing data so
// traces remain deterministic. With a journal attached it also checkpoints
// the iteration count every progressCheckpointEvery iterations.
type jobRecorder struct {
	ring  *trace.Ring
	m     *Metrics
	srv   *Server // nil in isolated tests
	jobID string
	iters atomic.Int64

	mu   sync.Mutex
	runs map[runKey]time.Time // open runs: time of their start or latest iter
}

// runKey identifies one solver run within a job's trace.
type runKey struct{ solver, run string }

func (r *jobRecorder) Enabled() bool { return true }

func (r *jobRecorder) Record(ev trace.Event) {
	r.ring.Record(ev)
	r.m.TraceEvents.Add(1)
	if ev.Kind == trace.KindIter {
		if n := r.iters.Add(1); r.srv != nil && n%progressCheckpointEvery == 0 {
			r.srv.journalAppend(jobstore.Record{Job: r.jobID, Event: jobstore.EventProgress, Iters: int(n)})
		}
	}
	key := runKey{ev.Solver, ev.Run}
	now := time.Now()
	r.mu.Lock()
	last, open := r.runs[key]
	switch ev.Kind {
	case trace.KindStart, trace.KindIter:
		if r.runs == nil {
			r.runs = make(map[runKey]time.Time)
		}
		r.runs[key] = now
	case trace.KindFinal:
		delete(r.runs, key)
	}
	r.mu.Unlock()
	if ev.Kind == trace.KindIter && open {
		r.m.observeIterLatency(now.Sub(last))
	}
}

// Trace snapshots the captured solver telemetry of a job, oldest event first,
// along with the number of events the bounded ring has already discarded. A
// job that has not started solving (still queued, or served from the cache)
// has no trace yet and returns an empty snapshot.
func (s *Server) Trace(id string) ([]trace.Event, int64, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	var ring *trace.Ring
	if ok {
		ring = j.trace
	}
	s.mu.Unlock()
	if !ok {
		return nil, 0, ErrNotFound
	}
	if ring == nil {
		return nil, 0, nil
	}
	return ring.Snapshot(), ring.Dropped(), nil
}

// traceFollow returns the live handles a streaming trace follower needs:
// the job's ring (nil while the job has not started solving) and its done
// channel. The follower re-calls this until the ring appears.
func (s *Server) traceFollow(id string) (*trace.Ring, <-chan struct{}, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, nil, ErrNotFound
	}
	return j.trace, j.done, nil
}
