// Command mosaicd serves mosaic optimization as a long-running job
// service: submit layouts over HTTP, poll progress, fetch the optimized
// mask and its contest metrics, cancel jobs. A content-addressed
// tile-result cache (-cache-mem, plus -cache-dir for a tier that
// survives restarts) is shared by every job: repeated cells and
// resubmitted clips are optimized once and served from the cache
// afterwards, bit-identically. A SIGTERM (or SIGINT) drains gracefully —
// in-flight jobs checkpoint into -checkpoint-dir and a restarted daemon
// resumes them bit-identically, served the windows they finished from the
// -cache-dir tier, which -checkpoint-dir therefore requires.
//
// Usage:
//
//	mosaicd -addr :8080 -workers 2 -checkpoint-dir /var/lib/mosaicd/ckpt -cache-dir /var/lib/mosaicd/cache
//
// A daemon doubles as a cluster coordinator: worker nodes started with
//
//	mosaicd -worker -join http://coordinator:8080 -addr :8081
//
// register themselves and the coordinator dispatches every job's tiles
// (a clip job is one tile) to them, falling back to local execution when
// no workers are joined. Tile results are bit-identical wherever they
// run, so a cluster run equals a local run. A SIGTERM on a worker leaves
// the fleet and finishes in-flight HTTP exchanges; the coordinator
// reassigns its leases.
//
// API (see internal/serve and internal/cluster):
//
//	POST /v1/jobs                {"benchmark":"B1","mode":"fast"} -> 202 {"id":...}
//	GET  /v1/jobs                job listing (?status=, ?limit=, ?cursor= paginate)
//	GET  /v1/jobs/{id}           status with per-iteration progress
//	GET  /v1/jobs/{id}/result    score, EPE violations, PV band
//	GET  /v1/jobs/{id}/mask      the optimized mask (Accept: PGM or raw frame)
//	GET  /v1/jobs/{id}/provenance the job's anchored artifact record (-artifact-dir)
//	GET  /v1/artifacts/{digest}  content-addressed blob fetch; append /verify to prove it
//	POST /v1/jobs/{id}/cancel    stop a queued or running job
//	POST /v1/cluster/join        worker registration (coordinator)
//	POST /v1/cluster/heartbeat   worker liveness (coordinator)
//	POST /v1/cluster/leave       graceful worker exit (coordinator)
//	GET  /v1/cluster/workers     fleet listing (coordinator)
//	POST /v1/cluster/tile        binary tile job frame (worker)
//	GET  /healthz, /metrics, /debug/pprof/...   (coordinator and worker)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mosaic"
	"mosaic/internal/cluster"
	"mosaic/internal/obs"
	"mosaic/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mosaicd: ")
	o := defineFlags(flag.CommandLine)
	flag.Parse()

	obsCleanup, err := o.obs.Setup()
	if err != nil {
		log.Fatal(err)
	}
	defer obsCleanup()

	if err := o.validate(); err != nil {
		log.Fatal(err)
	}

	if o.worker {
		runWorker(o.addr, o.join, o.advertise, o.workers, o.drainTimeout)
		return
	}

	coord := cluster.NewCoordinator(cluster.Config{
		LeaseTTL:     o.leaseTTL,
		HeartbeatTTL: o.heartbeatTTL,
	})
	defer coord.Close()

	// One cache, one warm-start library and one artifact store for the
	// whole daemon. Every job of every tenant shares the cache, and the
	// lookup runs before the coordinator so warm tiles never touch the
	// fleet; every completed job harvests its converged windows into the
	// library, and later jobs with similar patterns start their descent
	// from them; every completed job anchors its provenance record in the
	// store, queryable under /v1/artifacts and verifiable across restarts.
	stores, err := o.stores.Open()
	if err != nil {
		log.Fatal(err)
	}
	defer stores.Close()

	optics := mosaic.DefaultOptics()
	optics.GridSize = o.grid
	srv, err := serve.New(serve.Config{
		Workers:       o.workers,
		QueueLimit:    o.queue,
		Optics:        optics,
		CheckpointDir: o.checkpointDir,
		TileRunner:    coord,
		TileCache:     stores.Cache,
		ArtifactStore: stores.Artifact,
		WarmStart:     stores.WarmStart,
	})
	if err != nil {
		log.Fatal(err)
	}

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		log.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.Handle("/v1/cluster/", coord.Handler())
	mux.Handle("/", srv.Handler())
	hs := &http.Server{Handler: mux}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	log.Printf("listening on %s (workers=%d grid=%d checkpoint-dir=%q cache-dir=%q cache-mem=%dMiB)",
		ln.Addr(), o.workers, o.grid, o.checkpointDir, o.stores.CacheDir, o.stores.CacheMemMiB)

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	case <-ctx.Done():
	}
	stop()

	log.Printf("draining (timeout %s)", o.drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
	defer cancel()
	if err := hs.Shutdown(dctx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if err := srv.Shutdown(dctx); err != nil {
		log.Fatalf("drain: %v", err)
	}
	// Cluster drain last: a draining sharded job may still be finishing
	// remote tiles; only once the queue is down do the leases go away.
	coord.Close()
	log.Print("drained cleanly")
}

// runWorker serves tile jobs and keeps the node registered with the
// coordinator until a signal arrives.
func runWorker(addr, join, advertise string, capacity int, drainTimeout time.Duration) {
	if join == "" {
		log.Fatal("-worker requires -join http://coordinator:port")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatal(err)
	}
	if advertise == "" {
		advertise = deriveAdvertise(ln.Addr())
	}
	// Name the worker by its advertised URL so spans it ships back are
	// attributed to a recognizable process lane in assembled traces.
	wk := cluster.NewWorker(cluster.WorkerConfig{Capacity: capacity, Name: advertise})
	hs := &http.Server{Handler: workerHandler(wk)}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	runc := make(chan error, 1)
	go func() {
		err := wk.Run(ctx, join, advertise)
		if errors.Is(err, cluster.ErrVersionMismatch) {
			// The coordinator is another build: this worker's tiles would
			// not be bit-identical to its own, and retrying cannot fix that.
			log.Fatalf("worker: %v", err)
		}
		runc <- err
	}()
	log.Printf("worker listening on %s (advertise=%s capacity=%d coordinator=%s)",
		ln.Addr(), advertise, capacity, join)

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	case <-ctx.Done():
	}
	stop()

	log.Printf("worker draining (timeout %s)", drainTimeout)
	<-runc // Run leaves the fleet on ctx cancel
	dctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := hs.Shutdown(dctx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	log.Print("worker drained")
}

// workerHandler is a worker's mux: the tile endpoint, /healthz, and the
// obs debug surface — /metrics, where the cluster_worker_* counters are
// read, and /debug/pprof/ — as on the coordinator's API port.
func workerHandler(wk *cluster.Worker) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/v1/cluster/", wk.Handler())
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"status":"ok"}` + "\n"))
	})
	debug := obs.DebugHandler()
	mux.Handle("/debug/", debug)
	mux.Handle("/metrics", debug)
	return mux
}

// deriveAdvertise turns the bound listener address into a dialable base
// URL, substituting loopback for a wildcard host.
func deriveAdvertise(a net.Addr) string {
	host, port, err := net.SplitHostPort(a.String())
	if err != nil {
		return "http://" + a.String()
	}
	ip := net.ParseIP(host)
	if host == "" || (ip != nil && ip.IsUnspecified()) {
		host = "127.0.0.1"
	}
	return fmt.Sprintf("http://%s", net.JoinHostPort(host, port))
}
