package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"mosaic"
	"mosaic/internal/serve"
)

// serviceWorkload drives the job service over a real loopback socket with
// nproc closed-loop clients, each on one connection. Set-up boots a server
// and primes it: the base layouts are submitted one after another until a
// whole pass is served from the tile cache. That takes three passes with
// warm-start on — the second pass is seeded from the first one's harvest,
// and a seeded request has a different cache key. The measured server then
// reopens the pattern library without harvesting, so every lookup of the
// measured phase sees the same frozen library and no job's result depends
// on which jobs finished before it, although the clients race.
type serviceWorkload struct {
	*env
	sched *serviceSchedule
	bases []primedBase
	eval  *mosaic.Setup // harness-side scorer for the no-OPC reference

	cache *mosaic.TileCache
	art   *mosaic.ArtifactStore
	srv   *serve.Server
	http  *http.Server
	url   string
	conns []*http.Client

	served chan struct{} // closed when the HTTP server's accept loop returns

	// Filled by the post-phase checks, which run one at a time.
	roots   []string // Merkle roots of finished jobs, for the verify sample
	timings []jobTiming
}

// primedBase is one base layout as submitted, with the result every
// resubmit must reproduce.
type primedBase struct {
	layout  *mosaic.Layout
	text    string
	maskSum [32]byte
	noOPC   float64 // 0 until first needed
}

// jobTiming is the client-side and, in a traced run, server-side view of
// one finished job.
type jobTiming struct {
	submit, fetch, total      time.Duration
	doneSeen                  time.Time
	serverSide                bool
	queueWait, run, notifyLag time.Duration
}

func (w *serviceWorkload) Setup() error {
	w.sched = newServiceSchedule(w.seed, w.size.Bases)
	dir := filepath.Join(w.dir, "service")
	var err error
	if w.cache, err = mosaic.OpenTileCache(filepath.Join(dir, "cache"), 0); err != nil {
		return err
	}
	if w.art, err = mosaic.OpenArtifactStore(filepath.Join(dir, "artifact")); err != nil {
		return err
	}
	for c := 0; c < nproc(); c++ {
		w.conns = append(w.conns, &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}})
	}

	t0 := time.Now()
	if err := w.boot(filepath.Join(dir, "warmstart"), true); err != nil {
		return err
	}
	w.stage("serve.boot_s", t0)
	t0 = time.Now()
	if err := w.prime(); err != nil {
		return err
	}
	w.stage("serve.prime_s", t0)
	t0 = time.Now()
	if err := w.shutdown(); err != nil {
		return err
	}
	if err := w.boot(filepath.Join(dir, "warmstart"), false); err != nil {
		return err
	}
	w.stage("serve.boot_s", t0)
	return nil
}

// boot starts a server on a fresh loopback port.
func (w *serviceWorkload) boot(libDir string, harvest bool) error {
	lib, err := mosaic.OpenWarmStartLibrary(libDir, 0, harvest)
	if err != nil {
		return err
	}
	optics := mosaic.DefaultOptics()
	// The server derives the pixel size as tile_nm / grid; this grid makes
	// it the workload's pixel size.
	optics.GridSize = int(coreNM / w.size.PixelNM)
	cfg := serve.Config{
		Workers:       nproc(),
		QueueLimit:    4 * nproc(),
		Optics:        optics,
		TileCache:     w.cache,
		ArtifactStore: w.art,
		WarmStart:     lib,
	}
	if w.hooks != nil && !harvest {
		cfg.TileRunner = timingRunner{w.hooks}
	}
	if w.srv, err = serve.New(cfg); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.url = "http://" + ln.Addr().String()
	w.http = &http.Server{Handler: w.srv.Handler()}
	w.served = make(chan struct{})
	go func(hs *http.Server, served chan struct{}) {
		defer close(served)
		hs.Serve(ln) // returns http.ErrServerClosed once shutdown closes the listener
	}(w.http, w.served)
	return nil
}

func (w *serviceWorkload) shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, c := range w.conns {
		c.CloseIdleConnections()
	}
	if err := w.http.Shutdown(ctx); err != nil {
		return err
	}
	<-w.served
	return w.srv.Shutdown(ctx)
}

// prime submits the base layouts in order, pass after pass, until one
// whole pass is served from the cache, and keeps that pass's masks as the
// reference for resubmits.
func (w *serviceWorkload) prime() error {
	w.bases = make([]primedBase, len(w.sched.Bases))
	for b, c := range w.sched.Bases {
		l, err := c.layout("base" + strconv.Itoa(b))
		if err != nil {
			return err
		}
		w.bases[b].layout, w.bases[b].text = l, layoutText(l)
	}
	const maxPasses = 6
	for pass := 1; pass <= maxPasses; pass++ {
		allCached := true
		for b := range w.bases {
			out, err := w.runJob(0, w.bases[b].text, -1, 0)
			if err != nil {
				return fmt.Errorf("priming base %d: %w", b, err)
			}
			prov, err := w.provenance(0, out.id)
			if err != nil {
				return fmt.Errorf("priming base %d: %w", b, err)
			}
			if prov.Cache.Computed > 0 {
				allCached = false
			}
			w.bases[b].maskSum = out.maskSum
		}
		if allCached {
			return nil
		}
	}
	return fmt.Errorf("priming: base layouts still recompute tiles after %d passes", maxPasses)
}

// jobOutcome is what a client learns from one job.
type jobOutcome struct {
	id      string
	summary serve.ResultSummary
	maskSum [32]byte
	timing  jobTiming
}

// spec is the job every client submits. tile_workers 1 lets nproc
// concurrent jobs fill nproc cores with one tile each; at the default (one
// job reserving every core) a cache-hit job queues behind the other job's
// tile reservations, and the median job latency — a hit — then measures
// where in that tile the hit happened to arrive.
func (w *serviceWorkload) spec(text string) serve.JobSpec {
	return serve.JobSpec{Layout: text, TileNM: coreNM, MaxIter: w.size.TileIter, TileWorkers: 1}
}

// runJob submits one job on a client's connection, waits for its terminal
// state on the event stream, and fetches the result summary and the mask.
// op < 0 marks priming traffic, which records no spans.
func (w *serviceWorkload) runJob(client int, text string, op, root int) (jobOutcome, error) {
	var out jobOutcome
	tr := w.tr
	if op < 0 {
		tr = nil
	}
	body, err := json.Marshal(w.spec(text))
	if err != nil {
		return out, err
	}

	start := time.Now()
	sp := tr.start("http.submit", op, root)
	var st serve.Status
	err = w.call(client, http.MethodPost, "/v1/jobs", body, http.StatusAccepted, &st)
	tr.end(sp)
	if err != nil {
		return out, err
	}
	out.id = st.ID
	out.timing.submit = time.Since(start)

	sp = tr.start("http.events", op, root)
	state, err := w.awaitTerminal(client, st.ID)
	tr.end(sp)
	out.timing.doneSeen = time.Now()
	if err != nil {
		return out, err
	}
	if state != string(serve.StateDone) {
		return out, fmt.Errorf("job %s ended in state %q", st.ID, state)
	}

	sp = tr.start("http.result", op, root)
	err = w.call(client, http.MethodGet, "/v1/jobs/"+st.ID+"/result", nil, http.StatusOK, &out.summary)
	tr.end(sp)
	if err != nil {
		return out, err
	}
	sp = tr.start("http.mask", op, root)
	var mask []byte
	err = w.call(client, http.MethodGet, "/v1/jobs/"+st.ID+"/mask", nil, http.StatusOK, &mask)
	tr.end(sp)
	if err != nil {
		return out, err
	}
	out.timing.total = time.Since(start)
	out.timing.fetch = time.Since(out.timing.doneSeen)
	out.maskSum = sha256.Sum256(mask)
	return out, nil
}

// call makes one request and decodes the body: into *[]byte verbatim,
// into anything else as JSON. Any status but want is an error.
func (w *serviceWorkload) call(client int, method, path string, body []byte, want int, into any) error {
	req, err := http.NewRequest(method, w.url+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := w.conns[client].Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if raw, ok := into.(*[]byte); ok {
		*raw = data
		return nil
	}
	return json.Unmarshal(data, into)
}

// awaitTerminal follows the job's server-sent event stream, which the
// server ends at a terminal state, and returns the last state it named.
func (w *serviceWorkload) awaitTerminal(client int, id string) (string, error) {
	resp, err := w.conns[client].Get(w.url + "/v1/jobs/" + id + "/events")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET events: status %d", resp.StatusCode)
	}
	var state string
	event := ""
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "state":
			var ev serve.JobEvent
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				return "", fmt.Errorf("decoding state event: %w", err)
			}
			state, _ = ev.Data["state"].(string)
		}
	}
	return state, sc.Err()
}

// Warm is a no-op: priming already drove every path of the server through
// at least three passes.
func (w *serviceWorkload) Warm() error { return nil }

func (w *serviceWorkload) provenance(client int, id string) (serve.ProvenanceBody, error) {
	var p serve.ProvenanceBody
	err := w.call(client, http.MethodGet, "/v1/jobs/"+id+"/provenance", nil, http.StatusOK, &p)
	return p, err
}

func (w *serviceWorkload) Op(i, client int) (opResult, error) {
	job := w.sched.job(i)
	layout, text := w.bases[job.Base].layout, w.bases[job.Base].text
	if job.Class != classHit {
		var err error
		if layout, err = job.Cell.layout("op" + strconv.Itoa(i)); err != nil {
			return opResult{}, err
		}
		text = layoutText(layout)
	}

	root := w.tr.start("op", i, 0)
	if w.hooks.active() {
		w.hooks.own(layout.Name, i, root)
	}
	out, err := w.runJob(client, text, i, root)
	w.tr.end(root)
	if err != nil {
		return opResult{Class: job.Class}, err
	}
	sum := out.summary
	res := opResult{
		Class:   job.Class,
		Key:     job.Class + "/" + job.Cell.Cell,
		Latency: out.timing.total,
		Score:   eq22(sum.PVBandNM2, sum.EPEViolations, sum.ShapeViolations),
		PVB:     sum.PVBandNM2,
		EPE:     sum.EPEViolations,
	}
	res.Check = func() error { return w.check(job, layout, out, res.Score) }
	return res, nil
}

// check verifies one finished job after the measured phase: the quality
// bar of every workload, and for a resubmit that the server returned the
// primed mask bit for bit without optimizing a single tile.
func (w *serviceWorkload) check(job serviceJob, layout *mosaic.Layout, out jobOutcome, score float64) error {
	prov, err := w.provenance(0, out.id)
	if err != nil {
		return err
	}
	t := out.timing
	if w.hooks != nil { // a traced run also wants the server's own clock
		var st serve.Status
		if err := w.call(0, http.MethodGet, "/v1/jobs/"+out.id, nil, http.StatusOK, &st); err != nil {
			return err
		}
		if st.StartedAt != nil && st.FinishedAt != nil {
			t.serverSide = true
			t.queueWait = st.StartedAt.Sub(st.SubmittedAt)
			t.run = st.FinishedAt.Sub(*st.StartedAt)
			t.notifyLag = t.doneSeen.Sub(*st.FinishedAt)
		}
	}
	w.timings = append(w.timings, t)
	w.roots = append(w.roots, prov.MerkleRoot)

	var noOPC float64
	if job.Class == classHit {
		base := &w.bases[job.Base]
		if out.maskSum != base.maskSum {
			return fmt.Errorf("resubmit of base %d returned a mask that differs from the primed one", job.Base)
		}
		if prov.Cache.Computed != 0 {
			return fmt.Errorf("resubmit of base %d optimized %d tiles; every tile must come from the cache", job.Base, prov.Cache.Computed)
		}
		if base.noOPC == 0 {
			if base.noOPC, err = w.noOPC(layout); err != nil {
				return err
			}
		}
		noOPC = base.noOPC
	} else if noOPC, err = w.noOPC(layout); err != nil {
		return err
	}
	return checkQuality(out.summary.MaskW, out.summary.MaskH, int(clipNM/w.size.PixelNM), score, noOPC)
}

// noOPC scores the target itself as the mask, with a harness-side setup
// identical to the server's.
func (w *serviceWorkload) noOPC(layout *mosaic.Layout) (float64, error) {
	if w.eval == nil {
		s, err := w.untimedSetup(coreNM, true)
		if err != nil {
			return 0, err
		}
		w.eval = s
	}
	fullPx := int(layout.SizeNM / w.size.PixelNM)
	rep, err := w.eval.EvaluateLayout(layout.Rasterize(fullPx, w.size.PixelNM), layout, mosaic.TileOptions{TileNM: coreNM}, 0)
	if err != nil {
		return 0, err
	}
	return qualityScore(rep), nil
}

// layerValues reports the serve.* metrics of the traced phase: where a
// job's client-observed latency went, and the latency of each job class.
func (w *serviceWorkload) layerValues(recs []opRecord, vals map[string]float64) {
	var submit, fetch, queue, run, lag []float64
	for _, t := range w.timings {
		submit = append(submit, 1e3*t.submit.Seconds())
		fetch = append(fetch, 1e3*t.fetch.Seconds())
		if t.serverSide {
			queue = append(queue, 1e3*t.queueWait.Seconds())
			run = append(run, t.run.Seconds())
			lag = append(lag, 1e3*t.notifyLag.Seconds())
		}
	}
	vals["serve.submit_ms_p50"] = percentile(submit, 0.5)
	vals["serve.fetch_ms_p50"] = percentile(fetch, 0.5)
	vals["serve.queue_wait_ms_p50"] = percentile(queue, 0.5)
	vals["serve.run_s_p50"] = percentile(run, 0.5)
	vals["serve.notify_lag_ms_p50"] = percentile(lag, 0.5)
	vals["serve.hit_p50_s"] = percentile(latencies(recs, classHit), 0.5)
	vals["serve.seeded_p50_s"] = percentile(latencies(recs, classSeeded), 0.5)
	vals["serve.novel_p50_s"] = percentile(latencies(recs, classNovel), 0.5)
}

// Finish re-proves a five-job sample of anchored artifacts through the
// API, then stops the server and removes its stores.
func (w *serviceWorkload) Finish() error {
	var firstErr error
	for i, root := range w.roots {
		if i == 5 {
			break
		}
		var rep mosaic.VerifyReport
		err := w.call(0, http.MethodGet, "/v1/artifacts/"+root+"/verify", nil, http.StatusOK, &rep)
		if err == nil && !rep.OK {
			err = fmt.Errorf("artifact %s failed verification: %+v", root, rep.Failures)
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if err := w.shutdown(); err != nil && firstErr == nil {
		firstErr = err
	}
	if err := w.art.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	if err := os.RemoveAll(filepath.Join(w.dir, "service")); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}
