// Package jobstore is floorpland's durable job store: an append-only,
// file-backed write-ahead journal with one JSONL record per job state
// transition. The journal makes the service crash-safe — on restart the
// daemon replays the journal, restores finished jobs (and their cached
// results), and re-enqueues every job that was queued or running when the
// process died, so no accepted work is ever lost and no finished work is
// ever re-run.
//
// The encoding follows the internal/trace codec conventions: one flat JSON
// object per line, keys in a fixed order ("ts" first), byte-stable for a
// given record. Records are self-contained — a "submitted" record carries
// the full request spec (canonical netlist JSON included), a terminal
// "done" record carries the result — so the journal alone reconstructs the
// job table.
//
// Durability is tunable per deployment through the fsync policy:
//
//   - FsyncAlways: every append is flushed and fsynced before returning —
//     an accepted job survives kill -9 the moment the submit response is
//     on the wire.
//   - FsyncInterval: appends are flushed to the OS immediately but fsynced
//     at most once per interval (default 100ms) — bounded data loss on
//     power failure, no loss on process crash.
//   - FsyncOff: the OS decides — fastest, survives process crash but not
//     power loss.
//
// The journal is bounded: when the active segment outgrows SegmentBytes it
// is compacted — live (non-terminal) jobs and a bounded tail of terminal
// jobs are rewritten as a snapshot segment and older segments are deleted.
// Compaction also runs on Open, so a long-lived data dir never grows
// without bound. See docs/SERVICE.md for the operational guarantees.
package jobstore

import (
	"encoding/json"
	"fmt"
	"sort"
)

// Event is one job state transition kind.
type Event string

// Journal record kinds, in lifecycle order. A job's record sequence is
// submitted → started → progress* → (done | failed | cancelled); a job
// whose newest record is non-terminal was interrupted and is re-enqueued
// on replay.
const (
	EventSubmitted Event = "submitted"
	// EventEco is the submitted-equivalent for incremental (ECO) jobs
	// derived from a finished parent via PATCH /v1/jobs/{id}. Its spec is
	// self-contained — the post-delta netlist plus the warm-start prior
	// (Spec.Eco) — so an ECO chain replays after a crash even when the
	// parent's own records have been compacted away.
	EventEco       Event = "eco"
	EventStarted   Event = "started"
	EventProgress  Event = "progress" // periodic checkpoint (solver iterations so far)
	EventDone      Event = "done"
	EventFailed    Event = "failed"
	EventCancelled Event = "cancelled"
)

// Terminal reports whether the event ends a job's lifecycle.
func (e Event) Terminal() bool {
	return e == EventDone || e == EventFailed || e == EventCancelled
}

// valid reports whether e is a known record kind.
func (e Event) valid() bool {
	switch e {
	case EventSubmitted, EventEco, EventStarted, EventProgress, EventDone, EventFailed, EventCancelled:
		return true
	}
	return false
}

// Spec is the durable form of a job request: everything needed to re-run
// the solve after a restart. Netlist holds the canonical JSON the service
// hashes for the cache key, so replayed jobs keep their content address.
type Spec struct {
	Netlist json.RawMessage `json:"netlist,omitempty"`
	MinX    float64         `json:"minX"`
	MinY    float64         `json:"minY"`
	MaxX    float64         `json:"maxX"`
	MaxY    float64         `json:"maxY"`
	Method  string          `json:"method"`
	Seed    int64           `json:"seed,omitempty"`
	Basic   bool            `json:"basic,omitempty"`
	// Contenders is the explicit portfolio race list (method "portfolio"
	// only); empty means the set is picked by instance size.
	Contenders []string `json:"contenders,omitempty"`
	TimeoutSec float64  `json:"timeoutSec,omitempty"`
	// Key is the content-addressed cache key of the request, stored so a
	// replayed "done" record can repopulate the result cache without
	// re-hashing (and so compacted terminal records can drop the netlist).
	Key string `json:"key,omitempty"`
	// Eco rides on incremental (ECO) jobs: provenance plus the warm-start
	// prior. Netlist above already holds the post-delta netlist, so an ECO
	// record replays without its parent.
	Eco *EcoSpec `json:"eco,omitempty"`
}

// EcoSpec is the durable form of an incremental re-solve: the parent job,
// the delta that produced the spec's (post-delta) netlist, and the prior
// placement the convex iteration is seeded from.
type EcoSpec struct {
	Parent string `json:"parent"`
	// Delta is the canonical JSON of the applied delta, kept for
	// provenance and for the cache-key extension.
	Delta json.RawMessage `json:"delta,omitempty"`
	// DeltaHash is sha256 of the canonical delta JSON.
	DeltaHash string `json:"deltaHash,omitempty"`
	// Prev is the by-name prior placement (the parent's pre-legalization
	// SDP centers when available).
	Prev []EcoPoint `json:"prev,omitempty"`
	// PrevIters is the parent solve's total sub-problem solver iterations.
	PrevIters int `json:"prevIters,omitempty"`
}

// EcoPoint is one by-name prior center in an EcoSpec.
type EcoPoint struct {
	Name string  `json:"name"`
	X    float64 `json:"x"`
	Y    float64 `json:"y"`
}

// Record is one journal line. Field order is the serialization order
// (encoding/json preserves struct order), with "ts" first per the trace
// codec convention.
type Record struct {
	// TS is the wall-clock timestamp in nanoseconds, stamped by the journal
	// on append (callers leave it zero, as with trace events).
	TS    int64  `json:"ts"`
	Job   string `json:"job"`
	Event Event  `json:"event"`
	// Batch groups the fan-out jobs of one POST /v1/batches submission.
	Batch string `json:"batch,omitempty"`
	// Replays counts how many times the job has been re-enqueued by
	// crash-recovery replay (0 on first submission).
	Replays int `json:"replays,omitempty"`
	// Iters is the solver-iteration checkpoint on progress records.
	Iters int `json:"iters,omitempty"`
	// Error carries the failure/cancellation reason on terminal records.
	Error string `json:"error,omitempty"`
	// Spec rides on submitted records (full) and compacted terminal
	// records (sans netlist).
	Spec *Spec `json:"spec,omitempty"`
	// Result is the wire-form result JSON on done records; replay feeds it
	// back into the LRU cache so finished work survives restarts.
	Result json.RawMessage `json:"result,omitempty"`
}

// AppendRecord appends the single-line JSON form of rec (no trailing
// newline) to b and returns the extended slice.
func AppendRecord(b []byte, rec Record) ([]byte, error) {
	enc, err := json.Marshal(rec)
	if err != nil {
		return b, fmt.Errorf("jobstore: encode record: %w", err)
	}
	return append(b, enc...), nil
}

// ParseRecord decodes one journal line. Unknown keys are ignored for
// forward compatibility; a line without a job ID or with an unknown event
// kind is rejected (this is also how consumers distinguish journal files
// from solver-trace JSONL, which has neither key).
func ParseRecord(line []byte) (Record, error) {
	var rec Record
	if err := json.Unmarshal(line, &rec); err != nil {
		return Record{}, fmt.Errorf("jobstore: parse record: %w", err)
	}
	if rec.Job == "" {
		return Record{}, fmt.Errorf("jobstore: record missing job ID in %q", truncateForErr(line))
	}
	if !rec.Event.valid() {
		return Record{}, fmt.Errorf("jobstore: unknown event %q in %q", rec.Event, truncateForErr(line))
	}
	return rec, nil
}

func truncateForErr(line []byte) string {
	const max = 120
	if len(line) > max {
		return string(line[:max]) + "…"
	}
	return string(line)
}

// JobState is the reduction of a job's journal records: its latest event
// plus everything needed to restore it (spec, timestamps, outcome). The
// service re-enqueues states whose Event is non-terminal and restores the
// rest as history.
type JobState struct {
	ID        string
	Batch     string
	Event     Event // newest event seen
	Spec      *Spec
	Submitted int64 // ts of the submitted record
	Started   int64 // ts of the newest started record (0 when never started)
	Finished  int64 // ts of the terminal record (0 while live)
	Iters     int   // newest progress checkpoint
	Error     string
	Replays   int
	Result    json.RawMessage
}

// Interrupted reports whether the job was accepted but not finished — the
// replay set after a crash.
func (s *JobState) Interrupted() bool { return !s.Event.Terminal() }

// A Reducer folds journal records into per-job states, preserving
// first-seen order. Replay uses it internally; tools that read journal
// files directly (cmd/tracesum) use it to reconstruct job lifecycles.
type Reducer struct {
	states map[string]*JobState
	order  []string
}

// NewReducer returns an empty Reducer.
func NewReducer() *Reducer {
	return &Reducer{states: make(map[string]*JobState)}
}

// Apply folds one record into the state table. Records are tolerated in
// any order and with duplicates (a compaction snapshot re-states jobs that
// an un-deleted older segment already declared): newer facts overwrite,
// counters take the max.
func (r *Reducer) Apply(rec Record) {
	st := r.states[rec.Job]
	if st == nil {
		st = &JobState{ID: rec.Job}
		r.states[rec.Job] = st
		r.order = append(r.order, rec.Job)
	}
	if rec.Batch != "" {
		st.Batch = rec.Batch
	}
	if rec.Replays > st.Replays {
		st.Replays = rec.Replays
	}
	if rec.Spec != nil {
		// Keep the richest spec seen: a compacted terminal record may carry
		// a netlist-free spec while the original submitted record (still on
		// disk in an older segment) has the full one.
		if st.Spec == nil || len(rec.Spec.Netlist) > 0 || st.Spec.Key == "" {
			st.Spec = rec.Spec
		}
	}
	switch rec.Event {
	case EventSubmitted, EventEco:
		if st.Submitted == 0 || rec.TS < st.Submitted {
			st.Submitted = rec.TS
		}
		if st.Event == "" {
			st.Event = rec.Event
		}
	case EventStarted:
		if rec.TS > st.Started {
			st.Started = rec.TS
		}
		if !st.Event.Terminal() {
			st.Event = EventStarted
		}
	case EventProgress:
		if rec.Iters > st.Iters {
			st.Iters = rec.Iters
		}
		if !st.Event.Terminal() {
			st.Event = EventProgress
		}
	case EventDone, EventFailed, EventCancelled:
		st.Event = rec.Event
		st.Finished = rec.TS
		st.Error = rec.Error
		if rec.Iters > st.Iters {
			st.Iters = rec.Iters
		}
		if len(rec.Result) > 0 {
			st.Result = rec.Result
		}
	}
}

// Snapshot returns the states in deterministic order: submission time,
// then ID (IDs are zero-padded, so the tiebreak is submission sequence).
func (r *Reducer) Snapshot() []*JobState {
	out := make([]*JobState, 0, len(r.order))
	for _, id := range r.order {
		out = append(out, r.states[id])
	}
	sort.SliceStable(out, func(i, k int) bool {
		if out[i].Submitted != out[k].Submitted {
			return out[i].Submitted < out[k].Submitted
		}
		return out[i].ID < out[k].ID
	})
	return out
}
