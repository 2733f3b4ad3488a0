package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"sdpfloor"
	"sdpfloor/internal/trace"
)

// State is a job's position in the lifecycle
// submitted → queued → running → done | failed | cancelled | interrupted.
type State string

// Job lifecycle states.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
	// StateInterrupted marks a running job that a graceful drain stopped
	// mid-solve: terminal for this process, but journaled as live so the
	// next start replays it (see docs/SERVICE.md on durability).
	StateInterrupted State = "interrupted"
)

// Terminal reports whether a job in this state will never change again
// within this process. Interrupted jobs are terminal here but resume in
// the next process via journal replay.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled || s == StateInterrupted
}

// Request is a fully-parsed floorplanning job specification.
type Request struct {
	Netlist *sdpfloor.Netlist
	Outline sdpfloor.Rect
	Method  sdpfloor.Method
	Seed    int64
	// Basic disables the Section IV-B enhancements (MethodSDP only).
	Basic bool
	// Timeout bounds the solve wall-clock; 0 uses the server default.
	Timeout time.Duration
	// Contenders lists the solo methods a portfolio job races, in priority
	// order. Only valid with MethodPortfolio; empty selects the contender
	// set by instance size (sdpfloor.PortfolioConfig).
	Contenders []string
	// Batch is the batch ID this request belongs to; set by SubmitBatch
	// and by journal replay, empty for standalone jobs.
	Batch string
	// Eco, when non-nil, marks an incremental (ECO) re-solve: Netlist is
	// already the post-delta netlist, and the solve is seeded warm from
	// Eco.Prev. Set by SubmitECO and by journal replay.
	Eco *EcoRequest
}

// EcoRequest carries the incremental re-solve context of a PATCH
// /v1/jobs/{id} job: provenance (parent, delta) plus the warm-start prior.
type EcoRequest struct {
	// Parent is the finished job the delta was applied against.
	Parent string
	// DeltaJSON is the canonical JSON of the applied delta (journaled so
	// ECO chains replay after a crash without their parents).
	DeltaJSON json.RawMessage
	// DeltaHash is sha256 of DeltaJSON, mixed into the cache key.
	DeltaHash string
	// Prev is the prior placement — the parent's pre-legalization SDP
	// centers when available, which re-converge in fewer iterations than
	// the legalized rectangles.
	Prev []sdpfloor.NamedPoint
	// PrevIters is the parent solve's total sub-problem solver iterations,
	// feeding Result.Eco.SolverItersSaved.
	PrevIters int
}

// Key returns the content-addressed cache key: a hash over every field that
// determines the solve outcome (netlist, outline, method, seed, options).
// The timeout is deliberately excluded — it bounds the solve but does not
// change what a completed solve returns.
func (r *Request) Key() string {
	h := sha256.New()
	// WriteJSON is deterministic (fixed field order, modules/nets in input
	// order), so it doubles as the canonical netlist serialization.
	r.Netlist.WriteJSON(h)
	fmt.Fprintf(h, "outline %g %g %g %g\n", r.Outline.MinX, r.Outline.MinY, r.Outline.MaxX, r.Outline.MaxY)
	fmt.Fprintf(h, "method %s seed %d basic %v\n", r.Method, r.Seed, r.Basic)
	// Hashed only when present so every pre-portfolio key is unchanged.
	if len(r.Contenders) > 0 {
		fmt.Fprintf(h, "contenders %s\n", strings.Join(r.Contenders, ","))
	}
	// ECO extension, hashed only when present so every non-ECO key is
	// unchanged. The prior determines the warm-start trajectory (and so
	// the bitwise result); the delta hash records the edit's identity.
	if r.Eco != nil {
		fmt.Fprintf(h, "eco delta %s\n", r.Eco.DeltaHash)
		for _, p := range r.Eco.Prev {
			fmt.Fprintf(h, "prior %s %g %g\n", p.Name, p.X, p.Y)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Result is the client-visible outcome of a finished job.
type Result struct {
	HPWL     float64          `json:"hpwl"`
	Feasible bool             `json:"feasible"`
	Rects    []rectJSON       `json:"rects"`
	Centers  []pointJSON      `json:"centers"`
	Global   *globalStatsJSON `json:"global,omitempty"`
	// Winner and Portfolio report the race outcome of a portfolio job:
	// which contender produced this result and how every contender fared.
	Winner    string                     `json:"winner,omitempty"`
	Portfolio []sdpfloor.PortfolioReport `json:"portfolio,omitempty"`
	// GlobalCenters are the pre-legalization SDP-stage centers (MethodSDP
	// only). ECO re-solves seed from these — the converged SDP iterate is
	// far closer to a fixed point than the legalized rectangles.
	GlobalCenters []pointJSON `json:"globalCenters,omitempty"`
	// Eco reports warm-start reuse on incremental (ECO) jobs.
	Eco *sdpfloor.Incremental `json:"eco,omitempty"`
}

type rectJSON struct {
	Name string  `json:"name"`
	MinX float64 `json:"minX"`
	MinY float64 `json:"minY"`
	MaxX float64 `json:"maxX"`
	MaxY float64 `json:"maxY"`
}

type pointJSON struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

type globalStatsJSON struct {
	Iterations       int     `json:"iterations"`
	SolverIterations int     `json:"solverIterations"`
	AlphaFinal       float64 `json:"alphaFinal"`
	RankOK           bool    `json:"rankOK"`
	WZ               float64 `json:"wz"`
}

// newResult converts a finished floorplan to the wire form.
func newResult(nl *sdpfloor.Netlist, fp *sdpfloor.Floorplan) *Result {
	res := &Result{HPWL: fp.HPWL, Feasible: fp.Feasible}
	for i, r := range fp.Rects {
		res.Rects = append(res.Rects, rectJSON{
			Name: nl.Modules[i].Name,
			MinX: r.MinX, MinY: r.MinY, MaxX: r.MaxX, MaxY: r.MaxY,
		})
	}
	for _, c := range fp.Centers {
		res.Centers = append(res.Centers, pointJSON{X: c.X, Y: c.Y})
	}
	for _, c := range fp.Global {
		res.GlobalCenters = append(res.GlobalCenters, pointJSON{X: c.X, Y: c.Y})
	}
	res.Eco = fp.Incremental
	res.Winner = string(fp.Winner)
	res.Portfolio = fp.Portfolio
	if gr := fp.GlobalResult; gr != nil {
		res.Global = &globalStatsJSON{
			Iterations:       gr.Iterations,
			SolverIterations: gr.SolverIterations,
			AlphaFinal:       gr.AlphaFinal,
			RankOK:           gr.RankOK,
			WZ:               gr.WZ,
		}
	}
	return res
}

// Job is one queued/running/finished solve. All fields are guarded by the
// owning Server's mutex; handlers read consistent copies via Status.
type Job struct {
	id        string
	key       string
	req       *Request
	state     State
	submitted time.Time
	started   time.Time
	finished  time.Time
	err       string
	result    *Result
	fromCache bool
	// replays counts how many crash-recovery replays re-enqueued this job
	// (0 on first submission); carried through the journal.
	replays int

	cancel      func() // non-nil while running
	cancelAsked bool
	done        chan struct{} // closed on reaching a terminal state

	// trace is the bounded solver-telemetry ring, set when the job starts
	// running. The pointer is guarded by the server mutex like every other
	// field; the ring itself is internally synchronized, so handlers
	// snapshot it without holding the server lock.
	trace *trace.Ring
}

// Status is an immutable snapshot of a job, safe to serialize concurrently
// with state transitions.
type Status struct {
	ID        string     `json:"id"`
	State     State      `json:"state"`
	Method    string     `json:"method"`
	Modules   int        `json:"modules"`
	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`
	// SolveMillis is the running or final solve wall-clock.
	SolveMillis int64  `json:"solveMillis,omitempty"`
	Error       string `json:"error,omitempty"`
	FromCache   bool   `json:"fromCache,omitempty"`
	CacheKey    string `json:"cacheKey"`
	// Batch is the owning batch ID for jobs submitted via POST /v1/batches.
	Batch string `json:"batch,omitempty"`
	// EcoOf is the parent job an incremental (ECO) job was derived from.
	EcoOf string `json:"ecoOf,omitempty"`
	// Replays counts crash-recovery re-runs of this job.
	Replays int `json:"replays,omitempty"`
}

// statusLocked snapshots the job; the server mutex must be held.
func (j *Job) statusLocked(now time.Time) Status {
	st := Status{
		ID:        j.id,
		State:     j.state,
		Method:    string(j.req.Method),
		Modules:   j.req.Netlist.N(),
		Submitted: j.submitted,
		Error:     j.err,
		FromCache: j.fromCache,
		CacheKey:  j.key,
		Batch:     j.req.Batch,
		Replays:   j.replays,
	}
	if j.req.Eco != nil {
		st.EcoOf = j.req.Eco.Parent
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
		end := now
		if !j.finished.IsZero() {
			end = j.finished
		}
		st.SolveMillis = end.Sub(j.started).Milliseconds()
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	return st
}
