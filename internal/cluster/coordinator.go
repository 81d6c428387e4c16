package cluster

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"time"

	"mosaic/internal/cache"
	"mosaic/internal/frame"
	"mosaic/internal/httpapi"
	"mosaic/internal/ilt"
	"mosaic/internal/obs"
	"mosaic/internal/tile"
)

// Config tunes a Coordinator.
type Config struct {
	// LeaseTTL bounds how long one dispatched tile may run on a worker
	// before its lease expires and the tile is reassigned. It must exceed
	// the worst-case tile optimization time; 0 means 5 minutes.
	LeaseTTL time.Duration
	// HeartbeatTTL is how long a worker may go silent before it is
	// declared dead and its leases are canceled. Workers are told to beat
	// at a third of this; 0 means 15 seconds.
	HeartbeatTTL time.Duration
	// Client performs tile dispatches; nil uses http.DefaultClient. Each
	// dispatch is individually bounded by the lease deadline, so no global
	// client timeout is needed.
	Client *http.Client
}

// Coordinator tracks a fleet of joined workers and dispatches tile jobs
// to them. It implements tile.Runner, so plugging it into
// tile.Options.Runner (or mosaic.TileOptions.Runner) turns any sharded
// run into a distributed one; with no workers joined every tile falls
// back to local execution and the run degenerates to the single-process
// pipeline.
type Coordinator struct {
	cfg    Config
	client *http.Client

	mu      sync.Mutex
	cond    *sync.Cond
	workers map[string]*remoteWorker
	closed  bool
	stop    chan struct{}
}

// remoteWorker is the coordinator's record of one joined worker.
type remoteWorker struct {
	id       string
	addr     string // base URL the coordinator dials
	capacity int
	inflight int
	joined   time.Time
	lastBeat time.Time
	done     int64 // tiles completed on this worker

	// ctx is canceled when the worker leaves the fleet (removeWorker,
	// Close), and with it every dispatch it holds, which then reassigns.
	ctx    context.Context
	cancel context.CancelFunc
}

// WorkerStatus is the externally visible record of one worker (the
// GET /v1/cluster/workers body).
type WorkerStatus struct {
	ID            string    `json:"id"`
	Addr          string    `json:"addr"`
	Capacity      int       `json:"capacity"`
	Inflight      int       `json:"inflight"`
	TilesDone     int64     `json:"tiles_done"`
	JoinedAt      time.Time `json:"joined_at"`
	LastHeartbeat time.Time `json:"last_heartbeat"`
}

// joinRequest is the body of POST /v1/cluster/join.
type joinRequest struct {
	Addr     string `json:"addr"`
	Capacity int    `json:"capacity"`
	// DigestVersion is the worker's cache.DigestVersion: the generation of
	// the numeric path, which must match the coordinator's.
	DigestVersion int `json:"digest_version"`
}

// JoinReply tells a joining worker its identity and cadence.
type JoinReply struct {
	WorkerID    string `json:"worker_id"`
	LeaseTTLMS  int64  `json:"lease_ttl_ms"`
	HeartbeatMS int64  `json:"heartbeat_ms"`
}

// NewCoordinator starts a coordinator (and its heartbeat reaper); Close
// releases it.
func NewCoordinator(cfg Config) *Coordinator {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 5 * time.Minute
	}
	if cfg.HeartbeatTTL <= 0 {
		cfg.HeartbeatTTL = 15 * time.Second
	}
	c := &Coordinator{
		cfg:     cfg,
		client:  cfg.Client,
		workers: make(map[string]*remoteWorker),
		stop:    make(chan struct{}),
	}
	if c.client == nil {
		c.client = http.DefaultClient
	}
	c.cond = sync.NewCond(&c.mu)
	go c.reap()
	return c
}

// Close stops the reaper, cancels every outstanding lease, and rejects
// further joins and heartbeats. In-flight RunTile calls fall back to
// local execution (their run is being drained anyway).
func (c *Coordinator) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	close(c.stop)
	for id, w := range c.workers {
		w.cancel()
		delete(c.workers, id)
	}
	mWorkersAlive.Set(0)
	c.cond.Broadcast()
}

// newWorkerID returns a 12-hex-digit worker ID.
func newWorkerID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("cluster: reading random id: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// Join registers a worker reachable at addr (a base URL) with the given
// concurrent-tile capacity.
func (c *Coordinator) Join(addr string, capacity int) (*JoinReply, error) {
	u, err := url.Parse(addr)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("cluster: worker address %q is not an absolute URL", addr)
	}
	if capacity < 1 {
		capacity = 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	w := &remoteWorker{
		id:       newWorkerID(),
		addr:     u.String(),
		capacity: capacity,
		joined:   time.Now(),
		lastBeat: time.Now(),
	}
	w.ctx, w.cancel = context.WithCancel(context.Background())
	c.workers[w.id] = w
	mWorkerJoins.Inc()
	mWorkersAlive.Set(float64(len(c.workers)))
	c.cond.Broadcast()
	obs.Logger().Info("cluster: worker joined",
		"worker", w.id, "addr", w.addr, "capacity", w.capacity, "fleet", len(c.workers))
	return &JoinReply{
		WorkerID:    w.id,
		LeaseTTLMS:  c.cfg.LeaseTTL.Milliseconds(),
		HeartbeatMS: (c.cfg.HeartbeatTTL / 3).Milliseconds(),
	}, nil
}

// Heartbeat refreshes a worker's liveness; ErrUnknownWorker tells a
// worker the coordinator no longer knows it (it should rejoin).
func (c *Coordinator) Heartbeat(id string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	w := c.workers[id]
	if w == nil {
		return ErrUnknownWorker
	}
	w.lastBeat = time.Now()
	return nil
}

// Leave deregisters a worker gracefully. Its in-flight leases (normally
// none — a draining worker finishes its tiles first) are canceled and
// reassigned.
func (c *Coordinator) Leave(id string) {
	c.removeWorker(id, "left")
}

// Workers lists the fleet in join order.
func (c *Coordinator) Workers() []WorkerStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]WorkerStatus, 0, len(c.workers))
	for _, w := range c.workers {
		out = append(out, WorkerStatus{
			ID:            w.id,
			Addr:          w.addr,
			Capacity:      w.capacity,
			Inflight:      w.inflight,
			TilesDone:     w.done,
			JoinedAt:      w.joined,
			LastHeartbeat: w.lastBeat,
		})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].JoinedAt.Before(out[b].JoinedAt) })
	return out
}

// reap declares workers dead when they miss heartbeats, canceling their
// leases so the holding RunTile calls reassign immediately instead of
// waiting out the full lease.
func (c *Coordinator) reap() {
	interval := c.cfg.HeartbeatTTL / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
		}
		cutoff := time.Now().Add(-c.cfg.HeartbeatTTL)
		c.mu.Lock()
		var dead []string
		for id, w := range c.workers {
			if w.lastBeat.Before(cutoff) {
				dead = append(dead, id)
			}
		}
		c.mu.Unlock()
		for _, id := range dead {
			mWorkerDeaths.Inc()
			c.removeWorker(id, "missed heartbeats")
		}
	}
}

// removeWorker drops a worker from the fleet and cancels its leases.
func (c *Coordinator) removeWorker(id, reason string) {
	c.mu.Lock()
	w := c.workers[id]
	if w == nil {
		c.mu.Unlock()
		return
	}
	delete(c.workers, id)
	w.cancel()
	mWorkersAlive.Set(float64(len(c.workers)))
	tiles := w.inflight
	c.cond.Broadcast()
	c.mu.Unlock()
	obs.Logger().Warn("cluster: worker removed",
		"worker", id, "addr", w.addr, "reason", reason, "leases_canceled", tiles)
}

// maxDispatchAttempts bounds how many distinct remote dispatches one tile
// gets before the coordinator gives up on the fleet and runs it locally —
// a worker that fails and instantly rejoins must not starve a tile
// forever.
const maxDispatchAttempts = 4

// RunTile implements tile.Runner: it dispatches the tile to the
// least-loaded worker with a free slot, blocking for backpressure when
// the whole fleet is at its in-flight caps. Worker failure or lease
// expiry reassigns the tile — the only re-run a tile ever gets; an empty
// fleet (or repeated dispatch failure) runs it locally on the
// coordinator. Results are identical to local execution by construction —
// workers run the same tile.RunWindow path on a bit-equal work order.
func (c *Coordinator) RunTile(ctx context.Context, req *tile.Request) (*ilt.Result, error) {
	var payload []byte // encoded lazily: local-only runs never pay for it
	for attempt := 0; attempt < maxDispatchAttempts; attempt++ {
		w, err := c.acquire(ctx)
		if err != nil {
			return nil, err
		}
		if w == nil {
			break // no fleet: run locally
		}
		if payload == nil {
			payload = encodeTileJob(req)
		}
		res, derr := c.dispatch(ctx, w, req.Tile.Index, payload)
		if derr == nil {
			mTilesRemote.Inc()
			if req.Prov != nil {
				req.Prov.Worker = w.addr
			}
			return res, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if derr.permanent {
			// The optimization itself failed; it would fail identically
			// anywhere, so it fails the run.
			return nil, derr.err
		}
		if derr.removeWorker {
			mWorkerDeaths.Inc()
			c.removeWorker(w.id, fmt.Sprintf("tile %d dispatch failed: %v", req.Tile.Index, derr.err))
		}
		mTilesReassigned.Inc()
		obs.Event(ctx, obs.ClusterReassign,
			obs.Int("tile", req.Tile.Index), obs.String("worker", w.id),
			obs.Int("attempt", attempt+1), obs.String("error", derr.err.Error()))
		obs.Logger().Warn("cluster: reassigning tile",
			"tile", req.Tile.Index, "worker", w.id, "attempt", attempt+1, "err", derr.err)
	}
	mTilesLocal.Inc()
	return tile.LocalRunner{}.RunTile(ctx, req)
}

// acquire blocks until some worker has a free in-flight slot and claims
// it, returning nil when the fleet is empty (the local-fallback signal).
func (c *Coordinator) acquire(ctx context.Context) (*remoteWorker, error) {
	unwatch := context.AfterFunc(ctx, func() {
		c.mu.Lock()
		c.cond.Broadcast()
		c.mu.Unlock()
	})
	defer unwatch()
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if c.closed || len(c.workers) == 0 {
			return nil, nil
		}
		var best *remoteWorker
		for _, w := range c.workers {
			if w.inflight >= w.capacity {
				continue
			}
			// Least relative load; cross-multiplied to stay in integers.
			if best == nil || w.inflight*best.capacity < best.inflight*w.capacity {
				best = w
			}
		}
		if best != nil {
			best.inflight++
			return best, nil
		}
		c.cond.Wait() // backpressure: every worker is at its cap
	}
}

// dispatchError classifies one failed dispatch.
type dispatchError struct {
	err          error
	removeWorker bool // transport-level failure: presume the worker dead
	permanent    bool // the optimization failed; reassignment cannot help
}

// dispatch sends one tile job to a worker under a lease and decodes the
// result. The lease deadline bounds the HTTP exchange; the worker's
// context cancels it early if the worker leaves the fleet (the reaper
// declares it dead, it leaves, or the coordinator closes).
func (c *Coordinator) dispatch(ctx context.Context, w *remoteWorker, tileIdx int, payload []byte) (*ilt.Result, *dispatchError) {
	dctx, cancel := context.WithDeadline(ctx, time.Now().Add(c.cfg.LeaseTTL))
	defer cancel()
	defer context.AfterFunc(w.ctx, cancel)()
	// The dispatch span is the remote subtree's parent: its identity goes
	// out on the Traceparent header, and the worker's shipped spans come
	// back as its children.
	dctx, dspan := obs.StartSpan(dctx, obs.ClusterDispatch,
		obs.Int("tile", tileIdx), obs.String("worker", w.id), obs.String("worker_addr", w.addr))
	defer dspan.End()
	mLeasesGranted.Inc()
	defer func() {
		c.mu.Lock()
		w.inflight--
		c.cond.Broadcast()
		c.mu.Unlock()
	}()

	job := frame.Encode(magicTileJob, payload)
	httpReq, err := http.NewRequestWithContext(dctx, http.MethodPost, w.addr+"/v1/cluster/tile", bytes.NewReader(job))
	if err != nil {
		return nil, &dispatchError{err: err, permanent: true}
	}
	httpReq.Header.Set("Content-Type", "application/octet-stream")
	if tc := dspan.Context(); tc.TraceID != "" {
		httpReq.Header.Set("Traceparent", tc.Traceparent())
	}
	resp, err := c.client.Do(httpReq)
	mBytesSent.Add(int64(len(job)))
	if err != nil {
		// The lease ran out; a worker that left the fleet canceled it instead.
		if errors.Is(dctx.Err(), context.DeadlineExceeded) && ctx.Err() == nil {
			mLeasesExpired.Inc()
			obs.Event(dctx, obs.ClusterLeaseExpired,
				obs.Int("tile", tileIdx), obs.String("worker", w.id))
			return nil, &dispatchError{err: fmt.Errorf("cluster: lease on tile %d expired after %s: %w", tileIdx, c.cfg.LeaseTTL, err), removeWorker: true}
		}
		return nil, &dispatchError{err: err, removeWorker: true}
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusServiceUnavailable:
		// Busy or draining: back off to another worker without declaring
		// this one dead.
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
		return nil, &dispatchError{err: fmt.Errorf("cluster: worker %s is at capacity", w.id)}
	default:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return nil, &dispatchError{
			err:       fmt.Errorf("cluster: worker %s failed tile %d: %s: %s", w.id, tileIdx, resp.Status, bytes.TrimSpace(msg)),
			permanent: true,
		}
	}
	body, n, err := frame.Read(resp.Body, magicTileResult)
	if err != nil {
		return nil, &dispatchError{err: err, removeWorker: true}
	}
	mBytesRecv.Add(int64(n))
	gotIdx, res, spans, err := decodeTileResult(body)
	if err != nil {
		return nil, &dispatchError{err: err, removeWorker: true}
	}
	if gotIdx != tileIdx {
		return nil, &dispatchError{err: fmt.Errorf("cluster: worker %s answered tile %d for tile %d", w.id, gotIdx, tileIdx), removeWorker: true}
	}
	// Replay the worker's shipped spans into this run's trace: they carry
	// the dispatch span's trace ID already, so the assembled tree crosses
	// the process boundary seamlessly.
	obs.EmitShipped(dctx, spans)
	c.mu.Lock()
	w.done++
	c.mu.Unlock()
	return res, nil
}

// Handler returns the coordinator's control-plane API. Errors use the
// shared httpapi envelope, like every other mosaic endpoint:
//
//	POST /v1/cluster/join       {"addr":"http://host:port","capacity":2,"digest_version":3} -> JoinReply, or 409 (other build)
//	POST /v1/cluster/heartbeat  {"worker_id":"..."} -> 200, or 404 (rejoin)
//	POST /v1/cluster/leave      {"worker_id":"..."} -> 200
//	GET  /v1/cluster/workers    fleet listing with in-flight counts
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/cluster/join", func(w http.ResponseWriter, r *http.Request) {
		var req joinRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
			httpapi.Error(w, http.StatusBadRequest, httpapi.CodeBadRequest, "decoding join request: "+err.Error())
			return
		}
		// A worker of another numeric generation (one built before the
		// field existed sends none, which reads 0) would break the
		// cluster == local bit-identity; refuse it for good.
		if req.DigestVersion != cache.DigestVersion {
			httpapi.Error(w, http.StatusConflict, httpapi.CodeVersionMismatch,
				fmt.Sprintf("%v: worker digest_version %d, coordinator %d", ErrVersionMismatch, req.DigestVersion, cache.DigestVersion))
			return
		}
		reply, err := c.Join(req.Addr, req.Capacity)
		if err != nil {
			if err == ErrClosed {
				httpapi.Error(w, http.StatusServiceUnavailable, httpapi.CodeClusterClosed, err.Error())
			} else {
				httpapi.Error(w, http.StatusBadRequest, httpapi.CodeBadRequest, err.Error())
			}
			return
		}
		httpapi.JSON(w, http.StatusOK, reply)
	})
	mux.HandleFunc("POST /v1/cluster/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			WorkerID string `json:"worker_id"`
		}
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
			httpapi.Error(w, http.StatusBadRequest, httpapi.CodeBadRequest, err.Error())
			return
		}
		switch err := c.Heartbeat(req.WorkerID); err {
		case nil:
			httpapi.JSON(w, http.StatusOK, map[string]string{"status": "ok"})
		case ErrUnknownWorker:
			httpapi.Error(w, http.StatusNotFound, httpapi.CodeUnknownWorker, err.Error())
		default:
			httpapi.Error(w, http.StatusServiceUnavailable, httpapi.CodeClusterClosed, err.Error())
		}
	})
	mux.HandleFunc("POST /v1/cluster/leave", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			WorkerID string `json:"worker_id"`
		}
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
			httpapi.Error(w, http.StatusBadRequest, httpapi.CodeBadRequest, err.Error())
			return
		}
		c.Leave(req.WorkerID)
		httpapi.JSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /v1/cluster/workers", func(w http.ResponseWriter, _ *http.Request) {
		httpapi.JSON(w, http.StatusOK, c.Workers())
	})
	return mux
}
