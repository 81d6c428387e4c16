package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"mosaic"
	"mosaic/internal/artifact"
	"mosaic/internal/obs"
	"mosaic/internal/render"
	"mosaic/internal/tile"
)

// Handler returns the server's HTTP API. The route list below is the
// reference clients read and a test pins against the actual mux
// registrations — keep the two in sync:
//
//	POST /v1/jobs                        submit a JobSpec, returns 202 + Status; a spec
//	                                     no layer could run (mosaic.Admit) is a 400
//	GET  /v1/jobs                        one JobPage of jobs; ?status=, ?limit=, ?cursor=
//	GET  /v1/jobs/{id}                   one job's status and progress
//	GET  /v1/jobs/{id}/result            finished job's result summary (score, EPE...)
//	GET  /v1/jobs/{id}/mask              finished job's mask; Accept selects PGM or raw frame
//	GET  /v1/jobs/{id}/provenance        anchored artifact record: manifest digest,
//	                                     Merkle root, per-tile leaves, cache attribution
//	GET  /v1/jobs/{id}/events            live telemetry as SSE (resumable via
//	                                     Last-Event-ID; convergence, tiles, states)
//	GET  /v1/jobs/{id}/trace             assembled span tree as Perfetto trace_event JSON
//	POST /v1/jobs/{id}/cancel            cancel a queued or running job
//	GET  /v1/artifacts/{digest}          stored blob by content address (tile result
//	                                     payload, or manifest JSON)
//	GET  /v1/artifacts/{digest}/verify   integrity proof: a record digest re-proves
//	                                     leaf bytes to Merkle root, a blob digest
//	                                     re-hashes the stored payload
//	GET  /healthz                        liveness probe
//
// GET /metrics and /debug/... expose the obs debug surface (Prometheus,
// pprof). Errors are the shared envelope
// {"error":{"code","message","retry_after?"}} — see the package doc.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, rt := range s.routes() {
		mux.HandleFunc(rt.pattern, rt.handler)
	}
	debug := obs.DebugHandler()
	mux.Handle("/debug/", debug)
	mux.Handle("/metrics", debug)
	return mux
}

// route is one mux registration; routes() is the single source the
// Handler and the doc-sync test share.
type route struct {
	pattern string
	handler http.HandlerFunc
}

// routes returns every API registration (the debug surface mounts
// separately — it is obs's handler, not a route of this API).
func (s *Server) routes() []route {
	return []route{
		{"POST /v1/jobs", s.handleSubmit},
		{"GET /v1/jobs", s.handleList},
		{"GET /v1/jobs/{id}", s.handleStatus},
		{"GET /v1/jobs/{id}/result", s.handleResult},
		{"GET /v1/jobs/{id}/mask", s.handleMask},
		{"GET /v1/jobs/{id}/provenance", s.handleProvenance},
		{"GET /v1/jobs/{id}/events", s.handleEvents},
		{"GET /v1/jobs/{id}/trace", s.handleTrace},
		{"POST /v1/jobs/{id}/cancel", s.handleCancel},
		{"GET /v1/artifacts/{digest}", s.handleArtifact},
		{"GET /v1/artifacts/{digest}/verify", s.handleArtifactVerify},
		{"GET /healthz", s.handleHealthz},
	}
}

// writeError maps service errors onto the shared envelope: over-capacity
// (queue full) answers 429 with a Retry-After hint, while a draining
// server answers 503 — the former means "try this instance again
// shortly", the latter "this instance is going away".
func writeError(w http.ResponseWriter, err error) {
	var qf *QueueFullError
	switch {
	case errors.Is(err, ErrNotFound):
		httpError(w, http.StatusNotFound, codeNotFound, err.Error())
	case errors.Is(err, ErrNoProvenance):
		httpError(w, http.StatusNotFound, codeNoArtifacts, err.Error())
	case errors.Is(err, ErrNotDone), errors.Is(err, ErrFinished):
		httpError(w, http.StatusConflict, codeConflict, err.Error())
	case errors.As(err, &qf):
		retryError(w, http.StatusTooManyRequests, codeQueueFull, err.Error(), qf.RetryAfter)
	case errors.Is(err, ErrDraining):
		httpError(w, http.StatusServiceUnavailable, codeDraining, err.Error())
	default:
		httpError(w, http.StatusInternalServerError, codeInternal, err.Error())
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if err := decodeSpec(http.MaxBytesReader(w, r.Body, 16<<20), &spec); err != nil {
		httpError(w, http.StatusBadRequest, codeBadRequest, "decoding spec: "+err.Error())
		return
	}
	st, err := s.Submit(spec)
	if err != nil {
		if errors.Is(err, ErrQueueFull) || errors.Is(err, ErrDraining) {
			writeError(w, err)
		} else {
			httpError(w, http.StatusBadRequest, codeBadRequest, err.Error())
		}
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

// JobPage is the paginated body of GET /v1/jobs: a page of statuses in
// submission order and the cursor resuming after it ("" on the last
// page, and then omitted).
type JobPage struct {
	Jobs       []*Status `json:"jobs"`
	NextCursor string    `json:"next_cursor,omitempty"`
}

// handleList serves GET /v1/jobs: one JobPage, narrowed by ?status=
// (filter by state), ?limit= (page size, default 100, max 1000) and
// ?cursor= (opaque, from a previous page).
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var filter State
	if v := q.Get("status"); v != "" {
		filter = State(v)
		switch filter {
		case StateQueued, StateRunning, StateDone, StateFailed, StateCanceled, StateInterrupted:
		default:
			httpError(w, http.StatusBadRequest, codeBadRequest,
				fmt.Sprintf("unknown status %q", v))
			return
		}
	}
	limit := 0
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			httpError(w, http.StatusBadRequest, codeBadRequest,
				fmt.Sprintf("limit %q is not a positive integer", v))
			return
		}
		limit = n
	}
	jobs, next, err := s.ListPage(filter, limit, q.Get("cursor"))
	if err != nil {
		httpError(w, http.StatusBadRequest, codeBadRequest, err.Error())
		return
	}
	if jobs == nil {
		jobs = []*Status{}
	}
	writeJSON(w, http.StatusOK, JobPage{Jobs: jobs, NextCursor: next})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.Status(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	sum, err := s.Summary(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, sum)
}

// Mask media types: the PGM image (the default, human-toolable) and the
// raw continuous mask as a self-describing MTGF frame (float64 bit
// patterns — the exact optimizer output, for programmatic consumers).
const (
	pgmMediaType      = "image/x-portable-graymap"
	maskGrayMediaType = "application/vnd.mosaic.maskgray"
)

// negotiateMask picks the mask representation for an Accept header:
// the first supported media type in the list wins, "" (no Accept) and
// wildcards mean PGM, and an Accept listing nothing we can produce
// returns "" (406). Quality factors are ignored — order expresses
// preference.
func negotiateMask(accept string) string {
	if strings.TrimSpace(accept) == "" {
		return pgmMediaType
	}
	for _, part := range strings.Split(accept, ",") {
		mt := strings.TrimSpace(part)
		if i := strings.IndexByte(mt, ';'); i >= 0 {
			mt = strings.TrimSpace(mt[:i])
		}
		switch mt {
		case pgmMediaType, "image/*", "*/*":
			return pgmMediaType
		case maskGrayMediaType, "application/octet-stream":
			return maskGrayMediaType
		}
	}
	return ""
}

// handleMask writes a finished job's mask in the negotiated
// representation.
func (s *Server) handleMask(w http.ResponseWriter, r *http.Request) {
	res, err := s.Result(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	mt := negotiateMask(r.Header.Get("Accept"))
	if mt == "" {
		httpError(w, http.StatusNotAcceptable, codeNotAcceptable,
			fmt.Sprintf("mask is available as %s or %s", pgmMediaType, maskGrayMediaType))
		return
	}
	w.Header().Set("Content-Type", mt)
	switch mt {
	case maskGrayMediaType:
		w.Write(artifact.EncodeFieldFrame(res.MaskGray))
	default:
		render.WritePGM(w, res.Mask)
	}
}

// ProvenanceBody is the JSON body of GET /v1/jobs/{id}/provenance: the
// anchored artifact record plus a cache-attribution rollup.
type ProvenanceBody struct {
	JobID          string                `json:"job_id"`
	ManifestDigest string                `json:"manifest_digest"`
	MerkleRoot     string                `json:"merkle_root"`
	CreatedAt      time.Time             `json:"created_at"`
	Leaves         []mosaic.ArtifactLeaf `json:"leaves"`
	Cache          CacheAttribution      `json:"cache"`
}

// CacheAttribution counts how the job's tiles were produced.
type CacheAttribution struct {
	// Hits counts tiles served from the tile cache (any tier).
	Hits int `json:"hits"`
	// Computed counts tiles actually optimized for this job.
	Computed int `json:"computed"`
	// Empty counts windows short-circuited for having no geometry.
	Empty int `json:"empty"`
	// Report tells where the job's scores came from: "hit" when the
	// store's quality side-car already held this anchored run's
	// evaluation, "miss" when the job evaluated the mask itself.
	Report string `json:"report"`
}

func (s *Server) handleProvenance(w http.ResponseWriter, r *http.Request) {
	rec, report, err := s.Provenance(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	body := ProvenanceBody{
		JobID:          rec.JobID,
		ManifestDigest: rec.Manifest.String(),
		MerkleRoot:     rec.Root.String(),
		CreatedAt:      rec.CreatedAt,
		Leaves:         rec.Leaves,
		Cache:          CacheAttribution{Report: report},
	}
	for _, l := range rec.Leaves {
		switch l.Class() {
		case tile.ClassHit:
			body.Cache.Hits++
		case tile.ClassEmpty:
			body.Cache.Empty++
		case tile.ClassComputed:
			body.Cache.Computed++
		}
	}
	writeJSON(w, http.StatusOK, body)
}

// artifactStore returns the configured store, answering the standard
// 404 when the server runs without one.
func (s *Server) artifactStore(w http.ResponseWriter) *mosaic.ArtifactStore {
	if s.cfg.ArtifactStore == nil {
		httpError(w, http.StatusNotFound, codeNoArtifacts,
			"this server has no artifact store configured")
		return nil
	}
	return s.cfg.ArtifactStore
}

// handleArtifact serves a stored blob by content address. Manifest
// blobs (JSON) are served as application/json, tile-result payloads as
// application/octet-stream; the digest doubles as a strong ETag since
// blobs are immutable by construction.
func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	store := s.artifactStore(w)
	if store == nil {
		return
	}
	d, err := artifact.ParseDigest(r.PathValue("digest"))
	if err != nil {
		httpError(w, http.StatusBadRequest, codeBadRequest, err.Error())
		return
	}
	payload, err := store.Blob(d)
	switch {
	case errors.Is(err, artifact.ErrNotFound):
		httpError(w, http.StatusNotFound, codeNotFound, err.Error())
		return
	case errors.Is(err, artifact.ErrCorrupt):
		httpError(w, http.StatusInternalServerError, codeCorruptArtifact, err.Error())
		return
	case err != nil:
		httpError(w, http.StatusInternalServerError, codeInternal, err.Error())
		return
	}
	ct := "application/octet-stream"
	for _, ref := range store.ByBlob(d) {
		if ref.Leaf == artifact.ManifestLeaf {
			ct = "application/json"
			break
		}
	}
	w.Header().Set("Content-Type", ct)
	w.Header().Set("ETag", `"`+d.String()+`"`)
	w.Write(payload)
}

// BlobVerifyBody is the verify response for a digest that names a
// single blob rather than an anchored record.
type BlobVerifyBody struct {
	Blob   string `json:"blob"`
	OK     bool   `json:"ok"`
	Reason string `json:"reason,omitempty"`
}

// handleArtifactVerify re-proves integrity. A digest resolving to an
// anchored record (Merkle root or manifest digest) re-walks the whole
// artifact from leaf bytes to root; a plain blob digest re-hashes that
// blob. Verification outcomes are data, not transport errors: a failed
// proof answers 200 with ok=false and the offending leaves named.
func (s *Server) handleArtifactVerify(w http.ResponseWriter, r *http.Request) {
	store := s.artifactStore(w)
	if store == nil {
		return
	}
	d, err := artifact.ParseDigest(r.PathValue("digest"))
	if err != nil {
		httpError(w, http.StatusBadRequest, codeBadRequest, err.Error())
		return
	}
	if rec, ok := store.Resolve(d); ok {
		writeJSON(w, http.StatusOK, store.Verify(rec))
		return
	}
	if len(store.ByBlob(d)) == 0 {
		// Not a root, not a manifest, not an anchored blob: unknown.
		if _, err := store.Blob(d); errors.Is(err, artifact.ErrNotFound) {
			httpError(w, http.StatusNotFound, codeNotFound, err.Error())
			return
		}
	}
	body := BlobVerifyBody{Blob: d.String(), OK: true}
	if err := store.VerifyBlob(d); err != nil {
		body.OK = false
		body.Reason = err.Error()
	}
	writeJSON(w, http.StatusOK, body)
}

// handleEvents streams a job's telemetry as Server-Sent Events. Each frame
// is `id: <seq>` + `event: <type>` + `data: <JobEvent JSON>`; a client
// reconnecting with a Last-Event-ID header (or ?after= query parameter)
// replays everything it missed from the retained ring before going live.
// The stream ends when the job reaches a terminal state.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, err := s.lookup(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, codeInternal, "streaming unsupported")
		return
	}
	var after int64
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		after, _ = strconv.ParseInt(v, 10, 64)
	} else if v := r.URL.Query().Get("after"); v != "" {
		after, _ = strconv.ParseInt(v, 10, 64)
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	replay, live, cancel := j.tel.subscribe(after)
	defer cancel()
	for _, ev := range replay {
		if err := writeSSE(w, ev); err != nil {
			return
		}
	}
	flusher.Flush()
	if live == nil {
		return // log closed: the replay was the whole story
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, ok := <-live:
			if !ok {
				return // log closed (job finished) or this subscriber overflowed
			}
			if err := writeSSE(w, ev); err != nil {
				return
			}
			// Drain whatever is already queued before flushing once.
			for len(live) > 0 {
				ev, ok := <-live
				if !ok {
					flusher.Flush()
					return
				}
				if err := writeSSE(w, ev); err != nil {
					return
				}
			}
			flusher.Flush()
		}
	}
}

// writeSSE emits one SSE frame.
func writeSSE(w http.ResponseWriter, ev JobEvent) error {
	data, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data)
	return err
}

// handleTrace exports the job's span tree as Chrome/Perfetto trace_event
// JSON.
// The buffer is bounded; Trace-Dropped-Events says how many events the
// export is short of.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, err := s.lookup(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	out := obs.PerfettoTrace("mosaicd", j.tel.buf.Events())
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", `attachment; filename="trace-`+j.id+`.json"`)
	w.Header().Set("Trace-Dropped-Events", strconv.FormatInt(j.tel.buf.Dropped(), 10))
	w.Write(out)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, err := s.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}
