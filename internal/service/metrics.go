package service

import (
	"sync/atomic"
	"time"
)

// iterLatencyBuckets are the cumulative upper bounds of the solver
// iteration-latency histogram (prometheus-style "le" buckets): the
// wall-clock duration of one iteration of one solver run, timed from the
// run's start event or its previous iteration (see jobRecorder). The final
// +Inf bucket therefore counts every observed iteration.
var iterLatencyBuckets = [...]struct {
	key string
	le  time.Duration
}{
	{"iter_latency_le_1ms_total", time.Millisecond},
	{"iter_latency_le_10ms_total", 10 * time.Millisecond},
	{"iter_latency_le_100ms_total", 100 * time.Millisecond},
	{"iter_latency_le_1s_total", time.Second},
	{"iter_latency_le_inf_total", 1<<63 - 1},
}

// Metrics are the service's monotonic counters, exported as expvar-style
// flat JSON on /metrics. Gauges derived from live state (jobs by state,
// queue length, cache entries) are merged in at render time.
type Metrics struct {
	JobsSubmitted    atomic.Int64
	JobsDone         atomic.Int64
	JobsFailed       atomic.Int64
	JobsCancelled    atomic.Int64
	JobsRejected     atomic.Int64 // queue-full rejections
	JobsInterrupted  atomic.Int64 // jobs stopped by drain/shutdown, journaled for replay
	JobsReplayed     atomic.Int64 // jobs re-enqueued by journal replay at startup
	BatchesSubmitted atomic.Int64
	BatchJobs        atomic.Int64 // jobs admitted via POST /v1/batches
	JournalRecords   atomic.Int64 // journal records appended by this process
	JournalErrors    atomic.Int64 // journal append failures (job kept running)
	CacheHits        atomic.Int64
	CacheMisses      atomic.Int64
	SolveMillis      atomic.Int64 // total solve wall-clock across finished jobs
	ConvexIters      atomic.Int64 // convex-iteration count across SDP jobs
	SubSolverIters   atomic.Int64 // IPM/ADMM iterations across SDP jobs
	WarmStarts       atomic.Int64 // warm-started sub-problem solves across SDP jobs
	TraceEvents      atomic.Int64 // solver trace events captured across jobs

	// IterLatency counts iteration latencies per iterLatencyBuckets bound.
	IterLatency [len(iterLatencyBuckets)]atomic.Int64
}

// observeIterLatency records one iteration latency in every cumulative
// bucket it fits.
func (m *Metrics) observeIterLatency(d time.Duration) {
	for i := range iterLatencyBuckets {
		if d <= iterLatencyBuckets[i].le {
			m.IterLatency[i].Add(1)
		}
	}
}

// snapshot flattens the counters into a map, merging the provided gauges.
func (m *Metrics) snapshot(gauges map[string]int64) map[string]int64 {
	out := map[string]int64{
		"jobs_submitted_total":    m.JobsSubmitted.Load(),
		"jobs_done_total":         m.JobsDone.Load(),
		"jobs_failed_total":       m.JobsFailed.Load(),
		"jobs_cancelled_total":    m.JobsCancelled.Load(),
		"jobs_rejected_total":     m.JobsRejected.Load(),
		"jobs_interrupted_total":  m.JobsInterrupted.Load(),
		"replayed_jobs_total":     m.JobsReplayed.Load(),
		"batches_submitted_total": m.BatchesSubmitted.Load(),
		"batch_jobs_total":        m.BatchJobs.Load(),
		"journal_records_total":   m.JournalRecords.Load(),
		"journal_errors_total":    m.JournalErrors.Load(),
		"cache_hits_total":        m.CacheHits.Load(),
		"cache_misses_total":      m.CacheMisses.Load(),
		"solve_millis_total":      m.SolveMillis.Load(),
		"convex_iterations_total": m.ConvexIters.Load(),
		"solver_iterations_total": m.SubSolverIters.Load(),
		"warm_starts_total":       m.WarmStarts.Load(),
		"trace_events_total":      m.TraceEvents.Load(),
	}
	for i := range iterLatencyBuckets {
		out[iterLatencyBuckets[i].key] = m.IterLatency[i].Load()
	}
	for k, v := range gauges {
		out[k] = v
	}
	return out
}
