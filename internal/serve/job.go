// Package serve runs mosaic optimizations as jobs: an in-process queue
// with bounded workers, priorities, deadlines and cancellation, exposed
// over a small HTTP API (submit a layout, poll progress, fetch the result
// mask and report, cancel) and the artifact/provenance API beside it. A
// server whose tile cache has a disk tier drains gracefully — a drain
// records the jobs still queued or running, and a restarted server
// resumes them bit-identically, served the windows they finished from
// that tier and recomputing the ones that were in flight.
//
// Every error on every endpoint is one JSON envelope,
//
//	{"error": {"code": "...", "message": "...", "retry_after": 2}}
//
// so a client needs exactly one error decoder. The code is a stable
// machine-readable symbol (clients switch on it; the message is for
// humans and may change), and retry_after appears only on throttling
// errors, mirrored in a standard Retry-After header.
package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"time"

	"mosaic"
	"mosaic/internal/geom"
	"mosaic/internal/metrics"
)

// JobSpec is a submitted optimization request (the POST /v1/jobs body).
// Exactly one of Benchmark and Layout names the target.
type JobSpec struct {
	// Benchmark selects a built-in testcase (B1..B10).
	Benchmark string `json:"benchmark,omitempty"`
	// Layout is a layout clip in the text format of mosaic.LoadLayout
	// (CLIP/RECT/POLY statements).
	Layout string `json:"layout,omitempty"`

	// Mode is "fast" (default) or "exact".
	Mode string `json:"mode,omitempty"`
	// MaxIter overrides the mode's iteration budget; 0 keeps the default,
	// a negative value is rejected at submission.
	MaxIter int `json:"max_iter,omitempty"`
	// Grid overrides the simulation grid size (power of two); 0 keeps the
	// server's configured grid. The pixel size is derived so the grid
	// covers the layout (or one tile when TileNM shards the run).
	Grid int `json:"grid,omitempty"`

	// TileNM shards the run into cores of this pitch when positive and
	// smaller than the layout; 0 runs untiled. A pitch that leaves the
	// layout off the TileNM/Grid pixel grid is rejected at submission.
	TileNM float64 `json:"tile_nm,omitempty"`
	// TileWorkers is the job's core-reservation hint: how many tiles it
	// tries to run concurrently, each holding one reservation in the
	// process-global compute pool while it computes (a cached tile holds
	// none); 0 means the pool capacity (GOMAXPROCS).
	// Negative values are rejected at submission.
	TileWorkers int `json:"tile_workers,omitempty"`

	// Priority orders the queue: higher runs first, ties in submit order.
	Priority int `json:"priority,omitempty"`
	// DeadlineMS bounds the job's wall time once it starts running; 0
	// means no deadline. A job that overruns fails with a deadline error.
	DeadlineMS int `json:"deadline_ms,omitempty"`
}

// decodeSpec decodes a spec as POST /v1/jobs takes it and a restarted
// server reads it back: a field JobSpec does not have is an error, never an
// option dropped without a word.
func decodeSpec(r io.Reader, sp *JobSpec) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	return dec.Decode(sp)
}

// validate rejects what is the job API's own to reject: the target, the
// spelling of the mode, the deadline. Every rule about the numbers a run is
// made of (grid, iterations, tile geometry) is mosaic.Admit's, which newJob
// calls next.
func (sp *JobSpec) validate() error {
	_, modeErr := mosaic.ParseMode(sp.Mode)
	switch {
	case sp.Benchmark == "" && sp.Layout == "":
		return fmt.Errorf("spec needs a benchmark or a layout")
	case sp.Benchmark != "" && sp.Layout != "":
		return fmt.Errorf("spec has both a benchmark and a layout; pick one")
	case modeErr != nil:
		return modeErr
	case sp.DeadlineMS < 0:
		return fmt.Errorf("deadline_ms %d is negative", sp.DeadlineMS)
	case int64(sp.DeadlineMS) > maxDeadlineMS:
		return fmt.Errorf("deadline_ms %d exceeds the longest deadline a job can hold, %d ms", sp.DeadlineMS, maxDeadlineMS)
	}
	return nil
}

// maxDeadlineMS is the longest deadline whose time.Duration does not
// overflow: beyond it the duration wraps negative and the job would fail
// the moment it starts.
const maxDeadlineMS = math.MaxInt64 / int64(time.Millisecond)

// deadline is the spec's deadline as a duration; 0 means none.
func (sp *JobSpec) deadline() time.Duration {
	return time.Duration(sp.DeadlineMS) * time.Millisecond
}

// resolveLayout materializes the spec's target clip.
func (sp *JobSpec) resolveLayout() (*mosaic.Layout, error) {
	if sp.Benchmark != "" {
		return mosaic.Benchmark(sp.Benchmark)
	}
	l, err := geom.Parse(strings.NewReader(sp.Layout))
	if err != nil {
		return nil, fmt.Errorf("parsing layout: %w", err)
	}
	return l, nil
}

// config returns the optimizer configuration the (validated) spec asks
// for: the mode's defaults under its iteration budget. A negative budget
// is carried, for mosaic.Admit to refuse.
func (sp *JobSpec) config() mosaic.Config {
	mode, _ := mosaic.ParseMode(sp.Mode)
	cfg := mosaic.DefaultConfig(mode)
	if sp.MaxIter != 0 {
		cfg.MaxIter = sp.MaxIter
	}
	return cfg
}

// State is a job's lifecycle position.
type State string

const (
	StateQueued      State = "queued"
	StateRunning     State = "running"
	StateDone        State = "done"
	StateFailed      State = "failed"
	StateCanceled    State = "canceled"
	StateInterrupted State = "interrupted" // checkpointed by a drain; resumes on restart
)

// terminal reports whether a state is final.
func (s State) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Progress is the live position of a running job, derived from the
// ilt.iter and tile.done instants of the job's trace — wherever the window
// that emitted them ran.
type Progress struct {
	// Iter counts completed optimizer iterations of the window that
	// reported last (a sharded run has several in flight).
	Iter int `json:"iter"`
	// MaxIter is the configured iteration budget.
	MaxIter int `json:"max_iter"`
	// Objective is the latest proxy objective (Eq. 7 estimate).
	Objective float64 `json:"objective,omitempty"`
	// TilesDone / TilesTotal track a sharded run's tile completions.
	TilesDone  int `json:"tiles_done,omitempty"`
	TilesTotal int `json:"tiles_total,omitempty"`
}

// Status is the externally visible record of a job.
type Status struct {
	ID       string   `json:"id"`
	State    State    `json:"state"`
	Spec     JobSpec  `json:"spec"`
	Progress Progress `json:"progress"`
	// Resumed marks a job restored from a drain checkpoint.
	Resumed bool   `json:"resumed,omitempty"`
	Error   string `json:"error,omitempty"`

	// ManifestDigest / MerkleRoot identify the job's anchored artifact
	// record once it is done (and the server has an artifact store):
	// the canonical manifest digest and the Merkle root over the tile
	// leaves. Either resolves via GET /v1/artifacts/{digest}.
	ManifestDigest string `json:"manifest_digest,omitempty"`
	MerkleRoot     string `json:"merkle_root,omitempty"`

	// TraceID is the job's trace identifier, set once the job
	// starts running. GET /v1/jobs/{id}/trace exports the full span tree.
	TraceID string `json:"trace_id,omitempty"`
	// Timeline is the tail of the job's telemetry event log; the full
	// resumable stream is GET /v1/jobs/{id}/events.
	Timeline []JobEvent `json:"timeline,omitempty"`

	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
}

// ResultSummary is the JSON body of GET /v1/jobs/{id}/result.
type ResultSummary struct {
	ID              string  `json:"id"`
	Testcase        string  `json:"testcase"`
	Score           float64 `json:"score"`
	EPEViolations   int     `json:"epe_violations"`
	PVBandNM2       float64 `json:"pvband_nm2"`
	ShapeViolations int     `json:"shape_violations"`
	RuntimeSec      float64 `json:"runtime_sec"`
	Iterations      int     `json:"iterations"`
	Tiled           bool    `json:"tiled"`
	MaskW           int     `json:"mask_w"`
	MaskH           int     `json:"mask_h"`
	// ManifestDigest / MerkleRoot identify the job's anchored artifact
	// record (see Status); empty without an artifact store.
	ManifestDigest string `json:"manifest_digest,omitempty"`
	MerkleRoot     string `json:"merkle_root,omitempty"`
}

// evaluation is a finished job's scalar quality — all a job keeps of its
// metrics.Report, whose rasters no route reads — and where it came from.
// The run's own wall time is folded in by summary.
type evaluation struct {
	metrics.Quality
	source string // "hit": the artifact store's quality side-car; "miss": evaluated
}

// job is the server-side record behind a Status.
type job struct {
	id     string
	seq    int64 // submission order, breaks ties of spec.Priority
	spec   JobSpec
	layout *mosaic.Layout
	tel    *jobTelemetry // immutable pointer; has its own lock

	// mu guards everything below. Lock ordering: Server.mu before job.mu,
	// never the reverse.
	mu        sync.Mutex
	state     State
	resumed   bool
	submitted time.Time
	started   time.Time
	finished  time.Time
	err       error
	result    *mosaic.LayoutResult
	eval      evaluation
	cancel    func(error) // cancels the running context with a cause
}

// status snapshots the job for external consumption.
func (j *job) status() *Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := &Status{
		ID:          j.id,
		State:       j.state,
		Spec:        j.spec,
		Resumed:     j.resumed,
		SubmittedAt: j.submitted,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
	}
	if j.result != nil && j.result.Artifact != nil {
		st.ManifestDigest = j.result.Artifact.Manifest.String()
		st.MerkleRoot = j.result.Artifact.Root.String()
	}
	if j.tel != nil {
		st.Progress = j.tel.progress()
		st.TraceID = j.tel.TraceID()
		st.Timeline = j.tel.timeline()
	}
	return st
}

// summary builds the result body; the caller has checked the job is done.
func (j *job) summary() *ResultSummary {
	j.mu.Lock()
	defer j.mu.Unlock()
	sum := &ResultSummary{
		ID:              j.id,
		Testcase:        j.eval.Testcase,
		Score:           j.eval.Score(j.result.RuntimeSec),
		EPEViolations:   j.eval.EPEViolations,
		PVBandNM2:       j.eval.PVBandNM2,
		ShapeViolations: j.eval.ShapeViolations,
		RuntimeSec:      j.result.RuntimeSec,
		Iterations:      j.result.Iterations,
		Tiled:           j.result.Tiled,
		MaskW:           j.result.Mask.W,
		MaskH:           j.result.Mask.H,
	}
	if j.result.Artifact != nil {
		sum.ManifestDigest = j.result.Artifact.Manifest.String()
		sum.MerkleRoot = j.result.Artifact.Root.String()
	}
	return sum
}
