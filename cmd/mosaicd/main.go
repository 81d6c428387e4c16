// Command mosaicd serves mosaic optimization as a long-running job
// service: submit layouts over HTTP, poll progress, fetch the optimized
// mask and its contest metrics, cancel jobs. A content-addressed
// tile-result cache (-cache-mem, plus -cache-dir for a tier that
// survives restarts) is shared by every job: repeated cells and
// resubmitted clips are optimized once and served from the cache
// afterwards, bit-identically. With -cache-dir, a SIGTERM (or SIGINT)
// drains gracefully — in-flight jobs checkpoint into <cache-dir>/jobs and
// a restarted daemon resumes them bit-identically, served the windows they
// finished from the cache's disk tier.
//
// Usage:
//
//	mosaicd -addr :8080 -workers 2 -cache-dir /var/lib/mosaicd/cache
//
// API (see internal/serve):
//
//	POST /v1/jobs                {"benchmark":"B1","mode":"fast"} -> 202 {"id":...}
//	GET  /v1/jobs                job listing (?status=, ?limit=, ?cursor= paginate)
//	GET  /v1/jobs/{id}           status with per-iteration progress
//	GET  /v1/jobs/{id}/result    score, EPE violations, PV band
//	GET  /v1/jobs/{id}/mask      the optimized mask (Accept: PGM or raw frame)
//	GET  /v1/jobs/{id}/provenance the job's anchored artifact record (-artifact-dir)
//	GET  /v1/artifacts/{digest}  content-addressed blob fetch; append /verify to prove it
//	POST /v1/jobs/{id}/cancel    stop a queued or running job
//	GET  /healthz, /metrics, /debug/pprof/...
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"mosaic"
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

	// One cache, one warm-start library and one artifact store for the
	// whole daemon. Every job of every tenant shares the cache; every
	// completed job harvests its converged windows into the library, and
	// later jobs with similar patterns start their descent from them; every
	// completed job anchors its provenance record in the store, queryable
	// under /v1/artifacts and verifiable across restarts.
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
	hs := &http.Server{Handler: srv.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	log.Printf("listening on %s (workers=%d grid=%d cache-dir=%q cache-mem=%dMiB)",
		ln.Addr(), o.workers, o.grid, o.stores.CacheDir, o.stores.CacheMemMiB)

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
	log.Print("drained cleanly")
}
