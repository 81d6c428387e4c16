package serve

import (
	"container/heap"
	"context"
	"crypto/rand"
	"encoding/base64"
	"encoding/hex"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mosaic"
	"mosaic/internal/artifact"
	"mosaic/internal/obs"
	"mosaic/internal/par"
)

// Service-level errors; the HTTP layer maps them to status codes.
var (
	ErrNotFound  = errors.New("serve: no such job")
	ErrNotDone   = errors.New("serve: job has no result yet")
	ErrQueueFull = errors.New("serve: queue is full")
	ErrDraining  = errors.New("serve: server is draining")
	ErrFinished  = errors.New("serve: job already finished")
	// ErrNoProvenance reports a finished job with no anchored artifact
	// record — the server ran without an artifact store.
	ErrNoProvenance = errors.New("serve: job has no provenance record (no artifact store configured)")

	// errDrained is the cancel cause a drain injects into running jobs so
	// runJob can tell a graceful shutdown from a user cancellation.
	errDrained = errors.New("serve: drained for shutdown")
	// errCanceledByUser is the cancel cause of POST /v1/jobs/{id}/cancel.
	errCanceledByUser = errors.New("serve: canceled by request")
)

// defaultRetryAfter is the retry hint attached to queue-full rejections.
const defaultRetryAfter = 2 * time.Second

// QueueFullError rejects a submission because the queue is at its limit.
// It unwraps to ErrQueueFull (errors.Is keeps working) and carries the
// Retry-After hint the HTTP layer serves with a 429 — distinct from the
// 503 a draining server answers, so clients can tell "try again shortly"
// from "this instance is going away".
type QueueFullError struct {
	Limit      int           // the configured queue bound
	RetryAfter time.Duration // suggested wait before resubmitting
}

func (e *QueueFullError) Error() string {
	return fmt.Sprintf("serve: queue is full (limit %d)", e.Limit)
}

func (e *QueueFullError) Unwrap() error { return ErrQueueFull }

// Queue metrics; mJobsEnded counts the jobs end moved into each state.
var (
	mJobsSubmitted = obs.NewCounter("serve_jobs_submitted_total")
	mJobsEnded     = map[State]*obs.Counter{
		StateDone:        obs.NewCounter("serve_jobs_done_total"),
		StateFailed:      obs.NewCounter("serve_jobs_failed_total"),
		StateCanceled:    obs.NewCounter("serve_jobs_canceled_total"),
		StateInterrupted: obs.NewCounter("serve_jobs_interrupted_total"),
	}
	mJobsResumed = obs.NewCounter("serve_jobs_resumed_total")
	mQueueDepth  = obs.NewGauge("serve_queue_depth")
	mJobsRunning = obs.NewGauge("serve_jobs_running")
	mJobSeconds  = obs.NewHistogram("serve_job_seconds")
)

// Evaluation metrics: finished jobs whose quality came from the artifact
// store's side-car, jobs that were evaluated (no store, or no entry yet),
// and defective side-car entries quarantined on the way.
var (
	mReportHits        = obs.NewCounter("serve_report_hits_total")
	mReportMisses      = obs.NewCounter("serve_report_misses_total")
	mReportQuarantined = obs.NewCounter("serve_report_quarantined_total")
)

// Config configures a Server.
type Config struct {
	// Workers bounds concurrently running jobs; 0 means 1.
	Workers int
	// QueueLimit bounds jobs waiting to run; 0 means 64. Submissions
	// beyond the limit fail with ErrQueueFull.
	QueueLimit int
	// Optics is the base imaging configuration; the zero value means
	// mosaic.DefaultOptics(). Per-job Grid overrides the grid size, and
	// the pixel size is re-derived per job so the grid covers the
	// layout (or one tile of a sharded run).
	Optics mosaic.OpticsConfig
	// Tune, when non-nil, adjusts every job's optimizer configuration
	// after the spec has been applied (test determinism, site policy).
	Tune func(*mosaic.Config)
	// TileRunner, when non-nil, executes every job's tiles in place of
	// the in-process optimizer. Nil runs tiles in-process.
	TileRunner mosaic.TileRunner
	// TileCache, when non-nil, is shared by every job: tiles
	// whose content address was optimized before — by any job, any
	// tenant, any earlier process when the cache has a disk tier — are
	// served from the cache instead of being optimized. See
	// mosaic.OpenTileCache. A disk tier also enables fault tolerance:
	// Shutdown checkpoints queued and in-flight jobs into its jobs/
	// directory, and New resumes them, served the windows they finished
	// before the drain from that tier.
	TileCache *mosaic.TileCache
	// ArtifactStore, when non-nil, anchors every completed job: tile
	// results become content-addressed blobs under a Merkle root bound
	// to the job's canonical manifest, served afterwards via
	// GET /v1/jobs/{id}/provenance and the /v1/artifacts API. See
	// mosaic.OpenArtifactStore.
	ArtifactStore *mosaic.ArtifactStore
	// WarmStart, when non-nil, is the pattern library shared by every
	// job: windows near a stored pattern are seeded from it, and every
	// completed window is harvested back, so the daemon's library grows
	// with its traffic. See mosaic.OpenWarmStartLibrary.
	WarmStart *mosaic.WarmStartLibrary
}

// Server owns the job queue and its workers.
type Server struct {
	cfg     Config
	ckptDir string // <TileCache.Dir()>/jobs, or "" with no disk tier: no checkpoints

	mu       sync.Mutex
	cond     *sync.Cond
	queue    jobQueue
	jobs     map[string]*job
	finished []string // IDs of terminal jobs still in jobs, oldest first
	retain   int      // how many of them are kept: retainJobs (a test lowers it)
	seq      int64
	draining bool
	wg       sync.WaitGroup
	running  atomic.Int64

	// setups holds one Setup (kernels + resist calibration) per imaging
	// configuration.
	setups par.Memo[mosaic.OpticsConfig, *mosaic.Setup]
}

// New builds a server, resumes any jobs a previous drain checkpointed in
// the jobs/ directory of cfg.TileCache's disk tier, and starts the
// workers.
func New(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.QueueLimit <= 0 {
		cfg.QueueLimit = 64
	}
	if cfg.Optics.GridSize == 0 {
		cfg.Optics = mosaic.DefaultOptics()
	}
	s := &Server{
		cfg:    cfg,
		jobs:   make(map[string]*job),
		retain: retainJobs,
	}
	if cfg.TileCache != nil && cfg.TileCache.Dir() != "" {
		s.ckptDir = filepath.Join(cfg.TileCache.Dir(), "jobs")
	}
	s.cond = sync.NewCond(&s.mu)
	if err := s.restore(); err != nil {
		return nil, err
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// retainJobs bounds the finished jobs a server remembers. Each pins its
// LayoutResult, span buffer and event ring, so without a bound a daemon
// grows with every job it has ever run; past it the oldest finished job
// is forgotten (by end) and its ID answers ErrNotFound like one never
// issued. Queued, running and interrupted jobs are never forgotten.
const retainJobs = 4096

// newID returns a 12-hex-digit job ID.
func newID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("serve: reading random id: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// tileOptions returns what every job of this server runs its tiles with,
// under the tile geometry sp asks for.
func (s *Server) tileOptions(sp *JobSpec) mosaic.TileOptions {
	return mosaic.TileOptions{
		TileNM:    sp.TileNM,
		Workers:   sp.TileWorkers,
		Runner:    s.cfg.TileRunner,
		Cache:     s.cfg.TileCache,
		Artifact:  s.cfg.ArtifactStore,
		WarmStart: s.cfg.WarmStart,
	}
}

// newJob is the one way a spec becomes a queued job, submitted now or
// restored from a checkpoint: the API's own rules, the target clip, then
// mosaic.Admit on exactly the optics, configuration and tile options
// execute will run it with — so a job that cannot run is an error here,
// before it takes a queue slot, a worker or a kernel build.
func (s *Server) newJob(id string, spec JobSpec, submitted time.Time) (*job, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	layout, err := spec.resolveLayout()
	if err != nil {
		return nil, err
	}
	if err := mosaic.Admit(s.cfg.Optics, spec.Grid, layout, spec.config(), s.tileOptions(&spec)); err != nil {
		return nil, err
	}
	return &job{
		id:        id,
		spec:      spec,
		layout:    layout,
		tel:       newJobTelemetry(),
		state:     StateQueued,
		submitted: submitted,
	}, nil
}

// Submit admits a spec (newJob) and enqueues it, returning its status.
func (s *Server) Submit(spec JobSpec) (*Status, error) {
	j, err := s.newJob(newID(), spec, time.Now())
	if err != nil {
		return nil, fmt.Errorf("serve: invalid spec: %w", err)
	}
	if err := s.enqueue(j); err != nil {
		return nil, err
	}
	mJobsSubmitted.Inc()
	j.tel.publish("state", map[string]any{"state": string(StateQueued)})
	return j.status(), nil
}

// enqueue adds a job to the queue. The drain flag and the queue bound
// apply to submissions; a restored job was inside the bound of the server
// that checkpointed it.
func (s *Server) enqueue(j *job) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !j.resumed {
		if s.draining {
			return ErrDraining
		}
		if s.queue.Len() >= s.cfg.QueueLimit {
			return &QueueFullError{Limit: s.cfg.QueueLimit, RetryAfter: defaultRetryAfter}
		}
	}
	s.seq++
	j.seq = s.seq
	heap.Push(&s.queue, j)
	s.jobs[j.id] = j
	mQueueDepth.Set(float64(s.queue.Len()))
	s.cond.Signal()
	return nil
}

// lookup returns the job record behind an id, or ErrNotFound.
func (s *Server) lookup(id string) (*job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j := s.jobs[id]; j != nil {
		return j, nil
	}
	return nil, ErrNotFound
}

// done returns the job behind id once it is done, and ErrNotDone (naming
// the state) while it is not or when it ended otherwise. A done job's
// result and evaluation no longer change, so callers read them unlocked.
func (s *Server) done(id string) (*job, error) {
	j, err := s.lookup(id)
	if err != nil {
		return nil, err
	}
	j.mu.Lock()
	st := j.state
	j.mu.Unlock()
	if st != StateDone {
		return nil, fmt.Errorf("%w (state %s)", ErrNotDone, st)
	}
	return j, nil
}

// Status returns a job's current status.
func (s *Server) Status(id string) (*Status, error) {
	j, err := s.lookup(id)
	if err != nil {
		return nil, err
	}
	return j.status(), nil
}

// Provenance returns a finished job's anchored artifact record, and where
// the job's scores came from: "hit" (the record's quality side-car) or
// "miss" (an evaluation of the mask).
func (s *Server) Provenance(id string) (rec *mosaic.ArtifactRecord, report string, err error) {
	j, err := s.done(id)
	if err != nil {
		return nil, "", err
	}
	if j.result.Artifact == nil {
		return nil, "", ErrNoProvenance
	}
	return j.result.Artifact, j.eval.source, nil
}

// List pagination bounds: the page size when ?limit= is absent, and the
// hard cap any request is clamped to.
const (
	defaultListLimit = 100
	maxListLimit     = 1000
)

// encodeCursor renders an opaque list cursor. The payload is the last
// seen job's submission sequence — stable across status changes, so a
// paging client never sees a job twice or skips one that existed when
// paging began.
func encodeCursor(seq int64) string {
	return base64.RawURLEncoding.EncodeToString([]byte("v1:" + strconv.FormatInt(seq, 10)))
}

// decodeCursor parses a cursor produced by encodeCursor.
func decodeCursor(s string) (int64, error) {
	raw, err := base64.RawURLEncoding.DecodeString(s)
	if err != nil {
		return 0, fmt.Errorf("serve: malformed cursor")
	}
	num, ok := strings.CutPrefix(string(raw), "v1:")
	if !ok {
		return 0, fmt.Errorf("serve: unknown cursor version")
	}
	seq, err := strconv.ParseInt(num, 10, 64)
	if err != nil || seq < 0 {
		return 0, fmt.Errorf("serve: malformed cursor")
	}
	return seq, nil
}

// ListPage returns one page of job statuses in submission order,
// optionally filtered by state. limit <= 0 selects the default page
// size; anything above the cap is clamped. The returned cursor is ""
// on the last page, otherwise pass it back to resume after the page's
// final job.
func (s *Server) ListPage(filter State, limit int, cursor string) ([]*Status, string, error) {
	var after int64
	if cursor != "" {
		a, err := decodeCursor(cursor)
		if err != nil {
			return nil, "", err
		}
		after = a
	}
	if limit <= 0 {
		limit = defaultListLimit
	}
	if limit > maxListLimit {
		limit = maxListLimit
	}
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].seq < jobs[b].seq })
	out := make([]*Status, 0, limit)
	for i, j := range jobs {
		if j.seq <= after {
			continue
		}
		st := j.status()
		if filter != "" && st.State != filter {
			continue
		}
		out = append(out, st)
		if len(out) == limit {
			if i < len(jobs)-1 {
				return out, encodeCursor(j.seq), nil
			}
			break
		}
	}
	return out, "", nil
}

// Result returns a finished job's mask and per-tile results; its scores
// are Summary's.
func (s *Server) Result(id string) (*mosaic.LayoutResult, error) {
	j, err := s.done(id)
	if err != nil {
		return nil, err
	}
	return j.result, nil
}

// Summary returns a finished job's result summary.
func (s *Server) Summary(id string) (*ResultSummary, error) {
	j, err := s.done(id)
	if err != nil {
		return nil, err
	}
	return j.summary(), nil
}

// Cancel stops a queued or running job. Cancelling a queued job ends it
// immediately (the worker that later pops it skips it); a running job
// stops within one optimizer iteration (or one tile boundary), freeing its
// worker, and ends in runJob.
func (s *Server) Cancel(id string) (*Status, error) {
	j, err := s.lookup(id)
	if err != nil {
		return nil, err
	}
	if s.end(j, StateQueued, StateCanceled, errCanceledByUser) != "" {
		return j.status(), nil
	}
	j.mu.Lock()
	st, cancel := j.state, j.cancel
	j.mu.Unlock()
	if st != StateRunning || cancel == nil {
		return nil, fmt.Errorf("%w (state %s)", ErrFinished, st)
	}
	cancel(errCanceledByUser)
	return j.status(), nil
}

// end is the one way a job ends: it moves j out of state from — and does
// nothing, returning "", when j is no longer in it — into state to, and
// returns the state reached. An interrupted job is one a restarted server
// resumes, so to == StateInterrupted holds only if its checkpoint was
// written; otherwise the job is canceled with err. The state event carries
// the error. A terminal state closes the event log, deletes the checkpoint
// files and puts the job on the retention list (retainJobs); an
// interrupted one keeps all three. The caller holds neither lock.
func (s *Server) end(j *job, from, to State, err error) State {
	j.mu.Lock()
	if j.state != from {
		j.mu.Unlock()
		return ""
	}
	if to == StateInterrupted {
		if s.checkpointLocked(j) {
			err = nil
		} else {
			to = StateCanceled
		}
	}
	j.state, j.err, j.cancel = to, err, nil
	ev := map[string]any{"state": string(to)}
	if err != nil {
		ev["error"] = err.Error()
	}
	j.tel.publish("state", ev)
	if to.terminal() {
		j.finished = time.Now()
		j.tel.closeLog()
	}
	j.mu.Unlock()
	mJobsEnded[to].Inc()
	if to.terminal() {
		s.removeCheckpoint(j.id)
		s.mu.Lock() // after j.mu is released: the lock order is s.mu, then j.mu
		s.finished = append(s.finished, j.id)
		for len(s.finished) > s.retain {
			delete(s.jobs, s.finished[0])
			s.finished = s.finished[1:]
		}
		s.mu.Unlock()
	}
	return to
}

// worker pops jobs off the priority queue until drain.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for s.queue.Len() == 0 && !s.draining {
			s.cond.Wait()
		}
		if s.draining {
			s.mu.Unlock()
			return
		}
		j := heap.Pop(&s.queue).(*job)
		mQueueDepth.Set(float64(s.queue.Len()))
		// Mark the job running while still holding s.mu: Shutdown scans
		// under the same lock, so every job is atomically either in the
		// heap (checkpointed as queued) or running with a cancel hook.
		j.mu.Lock()
		if j.state != StateQueued { // canceled while queued
			j.mu.Unlock()
			s.mu.Unlock()
			continue
		}
		ctx, cancel := context.WithCancelCause(context.Background())
		j.state = StateRunning
		j.started = time.Now()
		j.cancel = cancel
		j.mu.Unlock()
		s.mu.Unlock()
		s.runJob(ctx, cancel, j)
	}
}

// runJob executes one job and ends it (end) by how execute returned.
func (s *Server) runJob(ctx context.Context, cancel func(error), j *job) {
	// Root the job's trace: every span and event below collects into the
	// job's telemetry buffer under one trace ID.
	ctx = obs.ContextWithBuffer(ctx, j.tel.buf)
	mode, _ := mosaic.ParseMode(j.spec.Mode) // newJob has refused what does not parse
	ctx, sp := obs.StartSpan(ctx, obs.ServeJob,
		obs.String("job", j.id), obs.String("mode", mode.String()))
	j.tel.setTraceID(sp.Context().TraceID)
	j.tel.publish("state", map[string]any{"state": string(StateRunning)})
	mJobsRunning.Set(float64(s.running.Add(1)))
	start := time.Now()
	defer func() {
		mJobsRunning.Set(float64(s.running.Add(-1)))
		mJobSeconds.Observe(time.Since(start).Seconds())
		sp.End()
	}()
	defer cancel(nil)

	runCtx := ctx
	if j.spec.DeadlineMS > 0 {
		var stop context.CancelFunc
		runCtx, stop = context.WithTimeout(ctx, j.spec.deadline())
		defer stop()
	}

	var (
		result *mosaic.LayoutResult
		eval   evaluation
		err    error
	)
	// What validation misses costs one job, not the daemon: a worker
	// goroutine has no caller to unwind into.
	if pe := par.Catch(func() { result, eval, err = s.execute(runCtx, j) }); pe != nil {
		obs.Logger().Error("serve: job panicked", "job", j.id, "panic", pe.Value, "stack", string(pe.Stack))
		err = fmt.Errorf("internal error: panic: %v", pe.Value)
	}

	to, canceled := StateFailed, errors.Is(err, mosaic.ErrCanceled)
	switch {
	case err == nil:
		to = StateDone
		j.mu.Lock()
		j.result = result
		j.eval = eval
		j.mu.Unlock()
	case canceled && errors.Is(context.Cause(ctx), errDrained):
		// Graceful drain: checkpoint what we have and let a restarted
		// server pick the job back up.
		to = StateInterrupted
	case canceled && errors.Is(err, context.DeadlineExceeded):
		err = fmt.Errorf("deadline of %d ms exceeded: %w", j.spec.DeadlineMS, err)
	case canceled:
		to = StateCanceled
	}
	s.end(j, StateRunning, to, err)
}

// execute runs the optimization and evaluation for one job.
func (s *Server) execute(ctx context.Context, j *job) (*mosaic.LayoutResult, evaluation, error) {
	optics, _ := mosaic.JobOptics(s.cfg.Optics, j.spec.Grid, j.layout, j.spec.TileNM)
	setup, _, err := s.setups.Do(optics, func() (*mosaic.Setup, error) { return mosaic.NewSetup(optics) })
	if err != nil {
		return nil, evaluation{}, fmt.Errorf("building setup: %w", err)
	}

	cfg := j.spec.config()
	if s.cfg.Tune != nil {
		s.cfg.Tune(&cfg)
	}
	j.tel.setMaxIter(cfg.MaxIter)

	topts := s.tileOptions(&j.spec)
	topts.ArtifactJob = j.id
	res, err := setup.OptimizeLayout(ctx, cfg, j.layout, topts)
	if err != nil {
		return nil, evaluation{}, err
	}
	eval, err := s.evaluate(ctx, setup, j, res, topts)
	if err != nil {
		return nil, evaluation{}, err
	}
	obs.CurrentSpan(ctx).SetAttrs(obs.String("serve.evaluate", eval.source))
	return res, eval, nil
}

// evaluate scores a finished run. The quality of an anchored run is a pure
// function of the anchored bits and the evaluation constants, and the
// artifact store keeps it beside the record: a repeat of anchored work —
// every tile a cache hit — costs a lookup here instead of re-imaging the
// stitched mask at every focus plane, which was most of such a job.
func (s *Server) evaluate(ctx context.Context, setup *mosaic.Setup, j *job, res *mosaic.LayoutResult, topts mosaic.TileOptions) (evaluation, error) {
	store, rec := s.cfg.ArtifactStore, res.Artifact
	if rec != nil {
		q, err := store.Quality(rec, setup.Params)
		if err == nil {
			mReportHits.Inc()
			return evaluation{Quality: q, source: "hit"}, nil
		}
		if errors.Is(err, artifact.ErrCorrupt) {
			mReportQuarantined.Inc()
			obs.Logger().Warn("serve: quarantined corrupt quality side-car", "job", j.id, "err", err)
		}
	}
	mReportMisses.Inc()
	rep, err := setup.EvaluateLayoutCtx(ctx, res.Mask, j.layout, topts, 0)
	if err != nil {
		return evaluation{}, err
	}
	q := rep.Quality()
	if rec != nil {
		if err := store.PutQuality(rec, setup.Params, q); err != nil {
			// Derived data: without it the next repeat evaluates again.
			obs.Logger().Warn("serve: storing quality side-car", "job", j.id, "err", err)
		}
	}
	return evaluation{Quality: q, source: "miss"}, nil
}

// Shutdown drains the server: running jobs are canceled with a drain
// cause (and checkpoint themselves when the tile cache has a disk
// tier), queued jobs are checkpointed as interrupted, and workers
// exit. ctx bounds the wait for in-flight jobs to stop.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	var queued []*job
	for s.queue.Len() > 0 {
		queued = append(queued, heap.Pop(&s.queue).(*job))
	}
	mQueueDepth.Set(0)
	var cancels []func(error)
	for _, j := range s.jobs {
		j.mu.Lock()
		if j.state == StateRunning && j.cancel != nil {
			cancels = append(cancels, j.cancel)
		}
		j.mu.Unlock()
	}
	s.cond.Broadcast()
	s.mu.Unlock()

	for _, c := range cancels {
		c(errDrained)
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return fmt.Errorf("serve: drain interrupted: %w", context.Cause(ctx))
	}

	var firstErr error
	for _, j := range queued { // a job canceled while it waited is no longer queued: end skips it
		if s.end(j, StateQueued, StateInterrupted, errDrained) == StateCanceled && s.ckptDir != "" && firstErr == nil {
			firstErr = fmt.Errorf("serve: checkpointing queued job %s failed", j.id)
		}
	}
	return firstErr
}

// jobQueue is a max-heap on (priority, -seq): higher priority first,
// submission order within a priority.
type jobQueue []*job

func (q jobQueue) Len() int { return len(q) }
func (q jobQueue) Less(a, b int) bool {
	if q[a].spec.Priority != q[b].spec.Priority {
		return q[a].spec.Priority > q[b].spec.Priority
	}
	return q[a].seq < q[b].seq
}
func (q jobQueue) Swap(a, b int) { q[a], q[b] = q[b], q[a] }
func (q *jobQueue) Push(x any)   { *q = append(*q, x.(*job)) }
func (q *jobQueue) Pop() any {
	old := *q
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return j
}
