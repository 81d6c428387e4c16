// Package cluster spreads a sharded full-layout run across machines: a
// coordinator decomposes the layout with internal/tile, and a fleet of
// worker nodes (mosaicd -worker -join <coordinator>) optimizes the tiles.
//
// The split of responsibilities keeps the distributed run bit-identical
// to a local one:
//
//   - The coordinator owns the plan. Decomposition, EPE-sample routing,
//     the scheduler (which keeps empty windows local), seam stitching,
//     and full-layout evaluation all run exactly as in a single-process
//     run — the Coordinator merely plugs into the scheduler as its
//     tile.Runner.
//   - Workers are stateless executors. Each tile job arrives as a
//     self-contained binary frame (window geometry, EPE samples, imaging
//     and optimizer configuration, the calibrated resist model) and is
//     optimized through tile.RunWindow, the same code path the local
//     runner uses, so a tile produces the same bits wherever it runs.
//   - Fault tolerance is lease-based. A dispatched tile holds a lease
//     that expires if the worker hangs; a worker that misses heartbeats
//     is declared dead and its leases are canceled. Either way only that
//     tile is reassigned (to another worker, or run locally when the fleet
//     is empty); tiles already completed are never recomputed. This
//     reassignment is the only re-run a tile ever gets: a failure of the
//     optimization itself depends only on the request, so it fails the run.
//
// The control plane (join, heartbeat, leave, worker listing) is small
// JSON; the data plane (tile jobs and results, dominated by float64
// rasters) uses internal/frame's binary frames: magic, length and CRC32
// around one scalar stream.
package cluster

import (
	"errors"

	"mosaic/internal/obs"
)

// Cluster-level errors.
var (
	// ErrUnknownWorker rejects a heartbeat from a worker the coordinator
	// does not know (expired, never joined, or coordinator restarted); the
	// worker responds by rejoining.
	ErrUnknownWorker = errors.New("cluster: unknown worker")
	// ErrClosed reports an operation on a closed coordinator.
	ErrClosed = errors.New("cluster: coordinator is closed")
	// ErrWorkerBusy is returned by a worker at its in-flight capacity; the
	// coordinator's per-worker caps make it rare, but a second coordinator
	// (or an operator curl) can still oversubscribe a worker.
	ErrWorkerBusy = errors.New("cluster: worker at capacity")
	// ErrVersionMismatch refuses a join from a worker whose numeric
	// generation (cache.DigestVersion) differs from the coordinator's: its
	// tiles would not be bit-identical to locally computed ones. It is
	// permanent for the two builds involved, so the worker stops instead
	// of retrying.
	ErrVersionMismatch = errors.New("cluster: worker and coordinator builds differ in numeric generation")
)

// Cluster metrics: fleet health, lease churn, where tiles actually ran,
// and bytes moved on the data plane.
var (
	mWorkersAlive    = obs.NewGauge("cluster_workers_alive")
	mWorkerJoins     = obs.NewCounter("cluster_worker_joins_total")
	mWorkerDeaths    = obs.NewCounter("cluster_worker_deaths_total")
	mLeasesGranted   = obs.NewCounter("cluster_leases_granted_total")
	mLeasesExpired   = obs.NewCounter("cluster_leases_expired_total")
	mTilesRemote     = obs.NewCounter("cluster_tiles_remote_total")
	mTilesLocal      = obs.NewCounter("cluster_tiles_local_total")
	mTilesReassigned = obs.NewCounter("cluster_tiles_reassigned_total")
	mBytesSent       = obs.NewCounter("cluster_bytes_sent_total")
	mBytesRecv       = obs.NewCounter("cluster_bytes_recv_total")
	mWorkerTiles     = obs.NewCounter("cluster_worker_tiles_total")
	mWorkerBusy      = obs.NewCounter("cluster_worker_busy_total")
)
