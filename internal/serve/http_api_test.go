package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"mosaic"
	"mosaic/internal/artifact"
	"mosaic/internal/frame"
	"mosaic/internal/tile"
)

// TestErrorEnvelopeCodes pins the stable machine-readable code of every
// cheaply reachable error path. Clients switch on these codes; changing
// one is a breaking API change and must be deliberate.
func TestErrorEnvelopeCodes(t *testing.T) {
	s, err := New(testServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(path string) *http.Response {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	cases := []struct {
		name   string
		resp   func() *http.Response
		status int
		code   string
	}{
		{"unknown job status", func() *http.Response { return get("/v1/jobs/nope") }, 404, codeNotFound},
		{"unknown job result", func() *http.Response { return get("/v1/jobs/nope/result") }, 404, codeNotFound},
		{"unknown job mask", func() *http.Response { return get("/v1/jobs/nope/mask") }, 404, codeNotFound},
		{"unknown job provenance", func() *http.Response { return get("/v1/jobs/nope/provenance") }, 404, codeNotFound},
		{"malformed submit", func() *http.Response {
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader("{broken"))
			if err != nil {
				t.Fatal(err)
			}
			return resp
		}, 400, codeBadRequest},
		{"invalid spec", func() *http.Response {
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader("{}"))
			if err != nil {
				t.Fatal(err)
			}
			return resp
		}, 400, codeBadRequest},
		{"unknown list status", func() *http.Response { return get("/v1/jobs?status=bogus") }, 400, codeBadRequest},
		{"bad list limit", func() *http.Response { return get("/v1/jobs?limit=zero") }, 400, codeBadRequest},
		{"bad list cursor", func() *http.Response { return get("/v1/jobs?cursor=@@@") }, 400, codeBadRequest},
		{"artifact without store", func() *http.Response {
			return get("/v1/artifacts/" + strings.Repeat("ab", 32))
		}, 404, codeNoArtifacts},
		{"verify without store", func() *http.Response {
			return get("/v1/artifacts/" + strings.Repeat("ab", 32) + "/verify")
		}, 404, codeNoArtifacts},
		{"cancel unknown job", func() *http.Response {
			resp, err := http.Post(ts.URL+"/v1/jobs/nope/cancel", "application/json", nil)
			if err != nil {
				t.Fatal(err)
			}
			return resp
		}, 404, codeNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := tc.resp()
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.status)
			}
			if code := errorCode(t, resp); code != tc.code {
				t.Fatalf("error code %q, want %q", code, tc.code)
			}
		})
	}
}

// TestListPagination covers GET /v1/jobs: always a JobPage, the whole
// list on one default-sized page with no parameters, narrowed and walked
// under ?status=, ?limit=, ?cursor=.
func TestListPagination(t *testing.T) {
	s, err := New(testServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// One long blocker occupies the single worker; five quick jobs queue
	// behind it in a known submission order.
	blocker, err := s.Submit(JobSpec{Layout: testLayoutText, MaxIter: 100000})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Cancel(blocker.ID)
	waitFor(t, s, blocker.ID, 30*time.Second, func(st *Status) bool { return st.State == StateRunning })
	var queued []string
	for i := 0; i < 5; i++ {
		st, err := s.Submit(JobSpec{Layout: testLayoutText, MaxIter: 1, Priority: -1})
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, st.ID)
	}

	// No parameters: the same JobPage shape, everything on one page.
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := readAll(t, resp)
	var first JobPage
	if err := json.Unmarshal(raw, &first); err != nil {
		t.Fatalf("GET /v1/jobs without params must answer a JobPage: %v (%.60s)", err, raw)
	}
	all := first.Jobs
	if len(all) != 6 || first.NextCursor != "" {
		t.Fatalf("list returned %d jobs (next cursor %q), want 6 on one page", len(all), first.NextCursor)
	}

	// Paged: walk the full list two jobs at a time, collecting IDs.
	var paged []string
	cursor := ""
	pages := 0
	for {
		url := ts.URL + "/v1/jobs?limit=2"
		if cursor != "" {
			url += "&cursor=" + cursor
		}
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := readAll(t, resp)
		var page JobPage
		if err := json.Unmarshal(raw, &page); err != nil {
			t.Fatalf("page %d: %v (%s)", pages, err, raw)
		}
		for _, st := range page.Jobs {
			paged = append(paged, st.ID)
		}
		pages++
		if page.NextCursor == "" {
			break
		}
		cursor = page.NextCursor
		if pages > 10 {
			t.Fatal("pagination did not terminate")
		}
	}
	if len(paged) != 6 || pages != 3 {
		t.Fatalf("paged walk saw %d jobs over %d pages, want 6 over 3", len(paged), pages)
	}
	for i, st := range all {
		if paged[i] != st.ID {
			t.Fatalf("page order diverges from list order at %d: %s != %s", i, paged[i], st.ID)
		}
	}

	// Status filter: exactly the five queued jobs, in order.
	resp, err = http.Get(ts.URL + "/v1/jobs?status=queued")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = readAll(t, resp)
	var page JobPage
	if err := json.Unmarshal(raw, &page); err != nil {
		t.Fatal(err)
	}
	if len(page.Jobs) != 5 {
		t.Fatalf("status=queued returned %d jobs, want 5", len(page.Jobs))
	}
	for i, st := range page.Jobs {
		if st.ID != queued[i] || st.State != StateQueued {
			t.Fatalf("queued filter row %d = %s/%s, want %s/queued", i, st.ID, st.State, queued[i])
		}
	}
	resp, err = http.Get(ts.URL + "/v1/jobs?status=running")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = readAll(t, resp)
	page = JobPage{}
	if err := json.Unmarshal(raw, &page); err != nil {
		t.Fatal(err)
	}
	if len(page.Jobs) != 1 || page.Jobs[0].ID != blocker.ID {
		t.Fatalf("status=running = %+v, want just the blocker", page.Jobs)
	}
}

func readAll(t *testing.T, resp *http.Response) ([]byte, *http.Response) {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", resp.Request.URL, resp.StatusCode)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return buf.Bytes(), resp
}

// TestArtifactProvenanceEndToEnd is the full provenance proof over the
// HTTP API: a sharded job anchors an artifact; the provenance endpoint
// serves its digests; the manifest and every leaf are fetchable by
// content address; /verify proves the artifact clean; a warm re-run of
// the same spec anchors identical digests; and a single flipped byte in
// one stored blob fails verification naming the offending leaf while
// sibling blobs still verify clean.
func TestArtifactProvenanceEndToEnd(t *testing.T) {
	dir := t.TempDir()
	store, err := mosaic.OpenArtifactStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	cache, err := mosaic.OpenTileCache("", 0)
	if err != nil {
		t.Fatal(err)
	}

	cfg := testServerConfig()
	cfg.ArtifactStore = store
	cfg.TileCache = cache
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := JobSpec{Layout: testLayoutText, MaxIter: 2, TileNM: 256}
	runJob := func() *Status {
		t.Helper()
		st, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		return waitFor(t, s, st.ID, 120*time.Second, func(st *Status) bool { return st.State.terminal() })
	}

	cold := runJob()
	if cold.State != StateDone {
		t.Fatalf("cold job ended %s: %s", cold.State, cold.Error)
	}
	if cold.ManifestDigest == "" || cold.MerkleRoot == "" {
		t.Fatalf("done status misses artifact digests: %+v", cold)
	}

	// The provenance endpoint serves the anchored record.
	var prov ProvenanceBody
	raw, _ := readAll(t, mustGet(t, ts.URL+"/v1/jobs/"+cold.ID+"/provenance"))
	if err := json.Unmarshal(raw, &prov); err != nil {
		t.Fatal(err)
	}
	if prov.JobID != cold.ID || prov.ManifestDigest != cold.ManifestDigest || prov.MerkleRoot != cold.MerkleRoot {
		t.Fatalf("provenance %+v does not match status %+v", prov, cold)
	}
	if len(prov.Leaves) != 4 { // 512 nm layout at 256 nm tiles = 2x2
		t.Fatalf("provenance has %d leaves, want 4", len(prov.Leaves))
	}
	counted := prov.Cache.Hits + prov.Cache.Computed + prov.Cache.Empty
	if counted != 4 {
		t.Fatalf("cache attribution %+v does not cover all 4 leaves", prov.Cache)
	}
	// The rollup is tile.Provenance.Class's answer on the served leaves.
	sameRollup := func(what string, p ProvenanceBody) {
		t.Helper()
		byClass := map[tile.Class]int{}
		for _, l := range p.Leaves {
			byClass[l.Class()]++
		}
		want := CacheAttribution{Hits: byClass[tile.ClassHit], Computed: byClass[tile.ClassComputed],
			Empty: byClass[tile.ClassEmpty], Report: p.Cache.Report}
		if p.Cache != want {
			t.Fatalf("%s: rollup %+v, the leaves classify as %+v", what, p.Cache, want)
		}
	}
	sameRollup("cold run", prov)

	// The manifest blob is fetchable as JSON and matches the digest.
	resp := mustGet(t, ts.URL+"/v1/artifacts/"+prov.ManifestDigest)
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("manifest served as %q, want application/json", ct)
	}
	manRaw, _ := readAll(t, resp)
	man, err := artifact.DecodeManifest(manRaw)
	if err != nil {
		t.Fatal(err)
	}
	if man.Schema != artifact.ManifestSchema || !man.Tiling.Tiled || man.Tiling.Cols != 2 {
		t.Fatalf("manifest does not describe the run: %+v", man)
	}
	md, _ := artifact.ParseDigest(prov.ManifestDigest)
	if artifact.HashBlob(manRaw) != md {
		t.Fatal("served manifest bytes do not hash to their address")
	}

	// Each leaf blob decodes to a window-sized tile result.
	leafResp := mustGet(t, ts.URL+"/v1/artifacts/"+prov.Leaves[0].Blob.String())
	if ct := leafResp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("leaf served as %q, want application/octet-stream", ct)
	}
	leafRaw, _ := readAll(t, leafResp)
	tileRes, err := artifact.DecodeResult(leafRaw)
	if err != nil {
		t.Fatal(err)
	}
	if tileRes.MaskGray.W <= 0 || tileRes.MaskGray.W != tileRes.MaskGray.H {
		t.Fatalf("decoded tile window is %dx%d, want a positive square",
			tileRes.MaskGray.W, tileRes.MaskGray.H)
	}

	// Verify proves the whole artifact from bytes to root.
	var rep artifact.VerifyReport
	raw, _ = readAll(t, mustGet(t, ts.URL+"/v1/artifacts/"+prov.MerkleRoot+"/verify"))
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.OK || rep.RootRecomputed.String() != prov.MerkleRoot {
		t.Fatalf("clean verify failed: %s", raw)
	}
	// The manifest digest resolves to the same record.
	raw, _ = readAll(t, mustGet(t, ts.URL+"/v1/artifacts/"+prov.ManifestDigest+"/verify"))
	rep = artifact.VerifyReport{}
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.OK {
		t.Fatalf("verify by manifest digest failed: %s", raw)
	}

	// Warm re-run: same spec, fresh job ID, identical digests — the
	// artifact commits to the work, not to when or how it was served.
	warm := runJob()
	if warm.State != StateDone {
		t.Fatalf("warm job ended %s: %s", warm.State, warm.Error)
	}
	if warm.ManifestDigest != cold.ManifestDigest || warm.MerkleRoot != cold.MerkleRoot {
		t.Fatalf("warm run digests (%s, %s) differ from cold (%s, %s)",
			warm.ManifestDigest, warm.MerkleRoot, cold.ManifestDigest, cold.MerkleRoot)
	}
	var warmProv ProvenanceBody
	raw, _ = readAll(t, mustGet(t, ts.URL+"/v1/jobs/"+warm.ID+"/provenance"))
	if err := json.Unmarshal(raw, &warmProv); err != nil {
		t.Fatal(err)
	}
	if warmProv.Cache.Hits == 0 {
		t.Fatalf("warm run shows no cache hits: %+v", warmProv.Cache)
	}
	sameRollup("warm run", warmProv)

	// The warm run's scores come from the quality side-car the cold run
	// left beside the record, not from a second evaluation: same /result
	// body apart from the job's identity and its own wall time, no
	// tile.evaluate span in its trace, and the verdict on the provenance
	// rollup and the counters.
	summary := func(id string) ResultSummary {
		t.Helper()
		var sum ResultSummary
		raw, _ := readAll(t, mustGet(t, ts.URL+"/v1/jobs/"+id+"/result"))
		if err := json.Unmarshal(raw, &sum); err != nil {
			t.Fatal(err)
		}
		return sum
	}
	// sameScores fails unless got equals the cold run's body field by
	// field, except id, runtime_sec and the runtime term of score.
	coldSum := summary(cold.ID)
	sameScores := func(what string, got ResultSummary) {
		t.Helper()
		if got.ID == coldSum.ID {
			t.Fatalf("%s: result carries the cold job's id", what)
		}
		if gq, cq := got.Score-got.RuntimeSec, coldSum.Score-coldSum.RuntimeSec; math.Abs(gq-cq) > 1e-9 {
			t.Fatalf("%s: quality score %v, cold run %v", what, gq, cq)
		}
		got.ID, got.RuntimeSec, got.Score = coldSum.ID, coldSum.RuntimeSec, coldSum.Score
		if got != coldSum {
			t.Fatalf("%s: result %+v differs from the cold run's %+v", what, got, coldSum)
		}
	}
	hasEvaluateSpan := func(id string) bool {
		t.Helper()
		raw, _ := readAll(t, mustGet(t, ts.URL+"/v1/jobs/"+id+"/trace"))
		if !bytes.Contains(raw, []byte(`"serve.evaluate"`)) {
			t.Fatalf("job %s: serve.job span carries no serve.evaluate attribute", id)
		}
		return bytes.Contains(raw, []byte(`"name":"tile.evaluate"`))
	}
	sameScores("warm run", summary(warm.ID))
	if prov.Cache.Report != "miss" || warmProv.Cache.Report != "hit" {
		t.Fatalf("report verdicts cold=%q warm=%q, want miss then hit", prov.Cache.Report, warmProv.Cache.Report)
	}
	if !hasEvaluateSpan(cold.ID) || hasEvaluateSpan(warm.ID) {
		t.Fatal("tile.evaluate must be in the cold job's trace and absent from the warm job's")
	}

	// One flipped byte in the side-car: quarantined, evaluated again, the
	// same body — and the record still proves out, because the side-car
	// is no part of it.
	cars := sidecars(t, dir)
	if len(cars) != 1 {
		t.Fatalf("store holds %d side-cars, want exactly one for the one anchored run", len(cars))
	}
	var sidecar, intact string
	for rel, data := range cars {
		sidecar, intact = filepath.Join(dir, rel), data
	}
	flipped := []byte(intact)
	flipped[len(flipped)/2] ^= 0x01
	if err := os.WriteFile(sidecar, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	hits, misses, quarantined := mReportHits.Value(), mReportMisses.Value(), mReportQuarantined.Value()
	healed := runJob()
	if healed.State != StateDone {
		t.Fatalf("job over a corrupt side-car ended %s: %s", healed.State, healed.Error)
	}
	sameScores("run over a corrupt side-car", summary(healed.ID))
	if mReportHits.Value() != hits || mReportMisses.Value() != misses+1 || mReportQuarantined.Value() != quarantined+1 {
		t.Fatalf("report counters moved by hits %d misses %d quarantined %d, want 0/1/1",
			mReportHits.Value()-hits, mReportMisses.Value()-misses, mReportQuarantined.Value()-quarantined)
	}
	if _, err := os.Stat(sidecar + ".corrupt"); err != nil {
		t.Fatalf("corrupt side-car was not quarantined: %v", err)
	}
	if !reflect.DeepEqual(sidecars(t, dir), cars) {
		t.Fatal("recomputed side-car differs from the original bytes")
	}
	rec, _, err := s.Provenance(healed.ID)
	if err != nil {
		t.Fatal(err)
	}
	if rep := store.Verify(rec); !rep.OK {
		t.Fatalf("record fails verification after side-car corruption: %+v", rep)
	}

	// Digest-addressed error paths with a store present.
	resp, err = http.Get(ts.URL + "/v1/artifacts/nothex")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 400 || errorCode(t, resp) != codeBadRequest {
		t.Fatalf("bad digest: status %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/artifacts/" + strings.Repeat("00", 32))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 404 || errorCode(t, resp) != codeNotFound {
		t.Fatalf("unknown digest: status %d", resp.StatusCode)
	}

	// Corruption: flip one byte in the middle of leaf 2's stored blob.
	victim := prov.Leaves[2].Blob.String()
	path := filepath.Join(dir, "blobs", victim[:2], victim+".blob")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x20
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	rep = artifact.VerifyReport{}
	raw, _ = readAll(t, mustGet(t, ts.URL+"/v1/artifacts/"+prov.MerkleRoot+"/verify"))
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.OK {
		t.Fatal("verify passed over a corrupted blob")
	}
	if len(rep.Failures) != 1 || rep.Failures[0].Index != 2 {
		t.Fatalf("failures %+v do not name leaf 2", rep.Failures)
	}
	// Fetching the corrupt blob is refused with the dedicated code.
	resp, err = http.Get(ts.URL + "/v1/artifacts/" + victim)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 500 || errorCode(t, resp) != codeCorruptArtifact {
		t.Fatalf("corrupt blob fetch: status %d", resp.StatusCode)
	}
	// An untouched sibling blob still verifies clean in isolation.
	var bv BlobVerifyBody
	raw, _ = readAll(t, mustGet(t, ts.URL+"/v1/artifacts/"+prov.Leaves[0].Blob.String()+"/verify"))
	if err := json.Unmarshal(raw, &bv); err != nil {
		t.Fatal(err)
	}
	if !bv.OK {
		t.Fatalf("untouched sibling blob failed verification: %s", raw)
	}
}

// TestClusterAnchoredRecordStillReads: a daemon that dispatched its tiles
// to cluster workers anchored every leaf with a "worker" field, the
// worker's address, and this build has no such field. An anchor log
// holding such a record, written as that build wrote it, still opens; the
// record is listed under its blobs, resolves by its root and verifies
// clean, the field ignored. A Merkle leaf is the blob digest, so the same
// job run here anchors the same root, and GET /v1/jobs/{id}/provenance
// serves it with the evaluation the first run left beside that root.
func TestClusterAnchoredRecordStillReads(t *testing.T) {
	dir := t.TempDir()
	spec := JobSpec{Layout: testLayoutText, MaxIter: 2, TileNM: 256}
	// run starts a daemon on the store in dir, runs spec to the end and
	// returns the job's anchored record and its /provenance body.
	run := func() (*mosaic.ArtifactRecord, ProvenanceBody) {
		t.Helper()
		store, err := mosaic.OpenArtifactStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		cache, err := mosaic.OpenTileCache("", 0)
		if err != nil {
			t.Fatal(err)
		}
		cfg := testServerConfig()
		cfg.ArtifactStore = store
		cfg.TileCache = cache
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer shutdown(t, s)
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		st, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if st = waitFor(t, s, st.ID, 120*time.Second, func(st *Status) bool { return st.State.terminal() }); st.State != StateDone {
			t.Fatalf("job ended %s: %s", st.State, st.Error)
		}
		rec, _, err := s.Provenance(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		var prov ProvenanceBody
		raw, _ := readAll(t, mustGet(t, ts.URL+"/v1/jobs/"+st.ID+"/provenance"))
		if err := json.Unmarshal(raw, &prov); err != nil {
			t.Fatal(err)
		}
		return rec, prov
	}

	// The blobs and the manifest a cluster run stored are this build's:
	// a tile's bits do not depend on where it ran.
	rec, _ := run()
	if len(rec.Leaves) != 4 {
		t.Fatalf("record has %d leaves, want 4", len(rec.Leaves))
	}

	// The record that run anchored, as the cluster build wrote it: the
	// leaf's fields in that build's order, each naming its worker.
	type clusterLeaf struct {
		Index  int             `json:"index"`
		Blob   artifact.Digest `json:"blob"`
		Key    string          `json:"key,omitempty"`
		Worker string          `json:"worker,omitempty"`
		Tier   string          `json:"tier,omitempty"`
		Seed   string          `json:"seed,omitempty"`
	}
	old := struct {
		JobID     string          `json:"job_id"`
		Manifest  artifact.Digest `json:"manifest"`
		Root      artifact.Digest `json:"root"`
		Leaves    []clusterLeaf   `json:"leaves"`
		CreatedAt time.Time       `json:"created_at"`
	}{JobID: "cluster-job", Manifest: rec.Manifest, Root: rec.Root, CreatedAt: rec.CreatedAt}
	for _, l := range rec.Leaves {
		old.Leaves = append(old.Leaves, clusterLeaf{Index: l.Index, Blob: l.Blob, Key: l.Key,
			Worker: fmt.Sprintf("http://127.0.0.1:%d", 8081+l.Index%2), Tier: l.Tier, Seed: l.Seed})
	}
	payload, err := json.Marshal(old)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(payload, []byte(`","worker":"http://127.0.0.1:8081","tier":"miss"}`)) {
		t.Fatalf("the cluster build's leaf is not what it wrote: %s", payload)
	}
	const anchorMagic = 0x4e41544d // "MTAN"
	if err := os.WriteFile(filepath.Join(dir, "anchors.log"), frame.Encode(anchorMagic, payload), 0o644); err != nil {
		t.Fatal(err)
	}

	store, err := mosaic.OpenArtifactStore(dir)
	if err != nil {
		t.Fatalf("a log holding a cluster run's record does not open: %v", err)
	}
	got, ok := store.Resolve(rec.Root)
	if !ok || got.JobID != "cluster-job" || !reflect.DeepEqual(got.Leaves, rec.Leaves) {
		t.Fatalf("the cluster run's record resolves to %+v (%v), want job cluster-job with leaves %+v", got, ok, rec.Leaves)
	}
	for _, l := range rec.Leaves {
		if refs := store.ByBlob(l.Blob); !reflect.DeepEqual(refs, []artifact.BlobRef{{JobID: "cluster-job", Leaf: l.Index}}) {
			t.Errorf("leaf %d is listed under %+v", l.Index, refs)
		}
	}
	if rep := store.Verify(got); !rep.OK {
		t.Errorf("the cluster run's record fails verification: %+v", rep)
	}
	store.Close()

	again, prov := run()
	if again.Root != rec.Root || prov.MerkleRoot != rec.Root.String() {
		t.Fatalf("the job anchors root %s here, the cluster run anchored %s", prov.MerkleRoot, rec.Root)
	}
	if n := prov.Cache.Hits + prov.Cache.Computed + prov.Cache.Empty; n != 4 || prov.Cache.Report != "hit" {
		t.Fatalf("provenance attribution %+v, want 4 leaves and the first run's evaluation", prov.Cache)
	}
}

func mustGet(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestMaskContentNegotiation covers GET /v1/jobs/{id}/mask (Accept
// selects PGM or the raw MTGF frame).
func TestMaskContentNegotiation(t *testing.T) {
	s, err := New(testServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	st, err := s.Submit(JobSpec{Layout: testLayoutText, MaxIter: 1})
	if err != nil {
		t.Fatal(err)
	}
	done := waitFor(t, s, st.ID, 60*time.Second, func(st *Status) bool { return st.State.terminal() })
	if done.State != StateDone {
		t.Fatalf("job ended %s: %s", done.State, done.Error)
	}
	maskURL := ts.URL + "/v1/jobs/" + st.ID + "/mask"

	getAccept := func(url, accept string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, url, nil)
		if err != nil {
			t.Fatal(err)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Default and wildcard Accept serve PGM.
	for _, accept := range []string{"", "*/*", "image/*", "image/x-portable-graymap", "text/html, image/*"} {
		resp := getAccept(maskURL, accept)
		body, resp := readAll(t, resp)
		if ct := resp.Header.Get("Content-Type"); ct != "image/x-portable-graymap" {
			t.Fatalf("Accept %q served %q, want PGM", accept, ct)
		}
		if !bytes.HasPrefix(body, []byte("P")) {
			t.Fatalf("Accept %q body is not a PGM image: %.20q", accept, body)
		}
	}

	// The raw frame comes back for the dedicated type or octet-stream,
	// and decodes to the full-layout continuous mask.
	for _, accept := range []string{"application/vnd.mosaic.maskgray", "application/octet-stream"} {
		resp := getAccept(maskURL, accept)
		body, resp := readAll(t, resp)
		if ct := resp.Header.Get("Content-Type"); ct != "application/vnd.mosaic.maskgray" {
			t.Fatalf("Accept %q served %q, want the maskgray frame", accept, ct)
		}
		f, err := artifact.DecodeFieldFrame(body)
		if err != nil {
			t.Fatal(err)
		}
		if f.W != 64 || f.H != 64 {
			t.Fatalf("decoded mask is %dx%d, want 64x64", f.W, f.H)
		}
	}

	// An Accept we cannot satisfy answers 406 with the envelope.
	resp := getAccept(maskURL, "text/html")
	if resp.StatusCode != http.StatusNotAcceptable {
		t.Fatalf("Accept text/html: status %d, want 406", resp.StatusCode)
	}
	if code := errorCode(t, resp); code != codeNotAcceptable {
		t.Fatalf("406 code %q", code)
	}

	_ = fmt.Sprint() // keep fmt imported if unused elsewhere
}
