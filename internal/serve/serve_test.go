package serve

import (
	"bytes"
	"container/heap"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mosaic"
	"mosaic/internal/cache"
	"mosaic/internal/ilt"
	"mosaic/internal/obs"
	"mosaic/internal/tile"
)

// testLayoutText is a two-bar 512 nm clip in the text layout format.
const testLayoutText = `CLIP serve-test 512
RECT 64 120 384 80
RECT 64 312 384 80
`

// testServerConfig is a small server: 64 px grid, 6 SOCS kernels,
// single-kernel gradients.
func testServerConfig(dir string) Config {
	opt := mosaic.DefaultOptics()
	opt.GridSize = 64
	opt.PixelNM = 8
	opt.Kernels = 6
	return Config{
		Workers:       1,
		Optics:        opt,
		CheckpointDir: dir,
		Tune:          func(c *mosaic.Config) { c.GradKernels = 1 },
	}
}

// diskCache opens a tile cache with a disk tier, which New requires beside
// a checkpoint directory.
func diskCache(t *testing.T) *mosaic.TileCache {
	t.Helper()
	store, err := mosaic.OpenTileCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// waitFor polls a job's status until cond accepts it.
func waitFor(t *testing.T, s *Server, id string, timeout time.Duration, cond func(*Status) bool) *Status {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st, err := s.Status(id)
		if err != nil {
			t.Fatalf("status %s: %v", id, err)
		}
		if cond(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s (progress %+v, err %q)", id, st.State, st.Progress, st.Error)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func shutdown(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// finished waits for a job to end, requires it done and returns its result.
func finished(t *testing.T, s *Server, id, what string) *mosaic.LayoutResult {
	t.Helper()
	if fin := waitFor(t, s, id, 60*time.Second, func(st *Status) bool { return st.State.terminal() }); fin.State != StateDone {
		t.Fatalf("%s finished %s (%s), want done", what, fin.State, fin.Error)
	}
	res, err := s.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestHTTPRoundTrip(t *testing.T) {
	s, err := New(testServerConfig(""))
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(path, body string) (int, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.Bytes()
	}
	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.Bytes()
	}

	spec, _ := json.Marshal(JobSpec{Layout: testLayoutText, MaxIter: 4})
	code, body := post("/v1/jobs", string(spec))
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d, body %s", code, body)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("submit response: %v", err)
	}
	if st.ID == "" {
		t.Fatal("submit response lacks a job id")
	}

	// Poll to completion; the progress counters must advance to the budget.
	done := waitFor(t, s, st.ID, 60*time.Second, func(st *Status) bool { return st.State.terminal() })
	if done.State != StateDone {
		t.Fatalf("job finished %s (%s), want done", done.State, done.Error)
	}
	if done.Progress.Iter != 4 || done.Progress.MaxIter != 4 {
		t.Fatalf("progress %+v, want 4/4 iterations", done.Progress)
	}

	code, body = get("/v1/jobs/" + st.ID + "/result")
	if code != http.StatusOK {
		t.Fatalf("result: status %d, body %s", code, body)
	}
	var sum ResultSummary
	if err := json.Unmarshal(body, &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Testcase != "serve-test" || sum.MaskW != 64 || sum.MaskH != 64 || sum.Score <= 0 {
		t.Fatalf("implausible result summary: %+v", sum)
	}

	code, body = get("/v1/jobs/" + st.ID + "/mask")
	if code != http.StatusOK || !bytes.HasPrefix(body, []byte("P5\n64 64\n")) {
		t.Fatalf("mask: status %d, head %q", code, body[:min(len(body), 16)])
	}

	if code, body = get("/v1/jobs"); code != http.StatusOK || !bytes.Contains(body, []byte(st.ID)) {
		t.Fatalf("list: status %d, body %s", code, body)
	}
	if code, _ = get("/v1/jobs/nope"); code != http.StatusNotFound {
		t.Fatalf("unknown job: status %d, want 404", code)
	}
	if code, _ = get("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz: status %d", code)
	}
	if code, body = get("/metrics"); code != http.StatusOK || !bytes.Contains(body, []byte("serve_jobs_submitted_total")) {
		t.Fatalf("metrics: status %d, missing serve metrics", code)
	}

	// Malformed specs are rejected up front.
	if code, _ = post("/v1/jobs", `{"benchmark":"B1","layout":"CLIP x 512"}`); code != http.StatusBadRequest {
		t.Fatalf("ambiguous spec: status %d, want 400", code)
	}
	if code, _ = post("/v1/jobs", `{"benchmark":"B999"}`); code != http.StatusBadRequest {
		t.Fatalf("unknown benchmark: status %d, want 400", code)
	}
	if code, _ = post("/v1/jobs", `{"layout":"CLIP x 512","grid":48}`); code != http.StatusBadRequest {
		t.Fatalf("bad grid: status %d, want 400", code)
	}
}

func TestCancelFreesWorker(t *testing.T) {
	s, err := New(testServerConfig(""))
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// A job far too long to finish on its own.
	st, err := s.Submit(JobSpec{Layout: testLayoutText, MaxIter: 100000})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, s, st.ID, 30*time.Second, func(st *Status) bool { return st.State == StateRunning })

	resp, err := http.Post(ts.URL+"/v1/jobs/"+st.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: status %d", resp.StatusCode)
	}
	got := waitFor(t, s, st.ID, 10*time.Second, func(st *Status) bool { return st.State.terminal() })
	if got.State != StateCanceled {
		t.Fatalf("canceled job ended %s, want canceled", got.State)
	}

	// The (single) worker must be free again: a short job completes.
	st2, err := s.Submit(JobSpec{Layout: testLayoutText, MaxIter: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, s, st2.ID, 30*time.Second, func(st *Status) bool { return st.State == StateDone })

	// Cancelling a finished job conflicts.
	resp, err = http.Post(ts.URL+"/v1/jobs/"+st.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("cancel finished job: status %d, want 409", resp.StatusCode)
	}
}

func TestDeadlineFailsJob(t *testing.T) {
	s, err := New(testServerConfig(""))
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, s)
	st, err := s.Submit(JobSpec{Layout: testLayoutText, MaxIter: 100000, DeadlineMS: 1})
	if err != nil {
		t.Fatal(err)
	}
	got := waitFor(t, s, st.ID, 30*time.Second, func(st *Status) bool { return st.State.terminal() })
	if got.State != StateFailed || !strings.Contains(got.Error, "deadline") {
		t.Fatalf("got state %s (%q), want a deadline failure", got.State, got.Error)
	}
}

// TestJobSpecValidate: an accepted field is honoured or the submission is
// refused — and zero stays the "default" it is documented as. The rules
// about the numbers are mosaic.Admit's, so the spec goes the way every
// spec goes: through newJob.
func TestJobSpecValidate(t *testing.T) {
	s := &Server{cfg: Config{Optics: mosaic.DefaultOptics()}}
	admit := func(spec JobSpec) error {
		_, err := s.newJob("id", spec, time.Time{})
		return err
	}
	for _, tc := range []struct {
		name string
		spec JobSpec
		ok   bool
	}{
		{"zero options", JobSpec{Benchmark: "B1"}, true},
		{"explicit tiling", JobSpec{Benchmark: "B1", Grid: 64, TileNM: 512, TileWorkers: 1}, true},
		{"largest grid one frame holds", JobSpec{Benchmark: "B1", Grid: 8192}, true},
		{"grid beyond one frame", JobSpec{Benchmark: "B1", Grid: 16384}, false},
		{"grid that overflows", JobSpec{Benchmark: "B1", Grid: 1 << 62}, false},
		{"grid not a power of two", JobSpec{Benchmark: "B1", Grid: 48}, false},
		{"negative grid", JobSpec{Benchmark: "B1", Grid: -64}, false},
		{"grid without a pixel beside the calibration line", JobSpec{Benchmark: "B1", Grid: 1}, false},
		{"grid without a pixel inside the calibration line", JobSpec{Benchmark: "B1", Grid: 2}, false},
		{"smallest grid that calibrates", JobSpec{Benchmark: "B1", Grid: 4}, true},
		{"negative tile_nm", JobSpec{Benchmark: "B1", TileNM: -5}, false},
		{"negative tile_workers", JobSpec{Benchmark: "B1", TileWorkers: -1}, false},
		{"negative max_iter", JobSpec{Benchmark: "B1", MaxIter: -3}, false},
		{"negative deadline_ms", JobSpec{Benchmark: "B1", DeadlineMS: -1}, false},
		{"neither benchmark nor layout", JobSpec{}, false},
		{"both benchmark and layout", JobSpec{Benchmark: "B1", Layout: testLayoutText}, false},
		{"any priority", JobSpec{Benchmark: "B1", Priority: -7}, true},
		{"mode fast", JobSpec{Benchmark: "B1", Mode: "fast"}, true},
		{"mode exact", JobSpec{Benchmark: "B1", Mode: "exact"}, true},
		{"mode in another case", JobSpec{Benchmark: "B1", Mode: "Exact"}, false},
		{"unknown mode", JobSpec{Benchmark: "B1", Mode: "quick"}, false},
	} {
		if err := admit(tc.spec); (err == nil) != tc.ok {
			t.Errorf("%s: newJob = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
	if (&JobSpec{}).config().Mode != mosaic.ModeFast || (&JobSpec{Mode: "exact"}).config().Mode != mosaic.ModeExact {
		t.Error("config(): want fast by default and exact when the spec says so")
	}
}

// TestDaemonSurvivesItsInput is the regression test for two job bodies
// that took the whole process down (one panicked with makeslice on a worker
// goroutine, one never left the tile planner) and for the net under them:
// whatever validation misses — here a Tune hook that panics — fails one job
// and the server keeps serving.
func TestDaemonSurvivesItsInput(t *testing.T) {
	cfg := testServerConfig("")
	tune := cfg.Tune
	var bug atomic.Bool
	cfg.Tune = func(c *mosaic.Config) {
		if bug.Load() {
			panic("tune bug")
		}
		tune(c)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, body := range []string{
		`{"benchmark":"B1","grid":1073741824}`,
		`{"benchmark":"B1","grid":64,"tile_nm":1e-9}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusBadRequest {
			resp.Body.Close()
			continue
		}
		var st Status
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil || st.ID == "" {
			t.Fatalf("submit %s: status %d, no job (%v)", body, resp.StatusCode, err)
		}
		resp.Body.Close()
		got := waitFor(t, s, st.ID, 10*time.Second, func(st *Status) bool { return st.State.terminal() })
		if got.State != StateFailed || got.Error == "" {
			t.Fatalf("submit %s: job ended %s (%q), want failed with a reason", body, got.State, got.Error)
		}
	}

	bug.Store(true)
	st, err := s.Submit(JobSpec{Layout: testLayoutText, MaxIter: 2})
	if err != nil {
		t.Fatal(err)
	}
	got := waitFor(t, s, st.ID, 10*time.Second, func(st *Status) bool { return st.State.terminal() })
	if got.State != StateFailed || !strings.Contains(got.Error, "panic: tune bug") {
		t.Fatalf("panicking job ended %s (%q), want failed naming the panic", got.State, got.Error)
	}
	bug.Store(false)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after the bad jobs: %v, %v", resp, err)
	}
	resp.Body.Close()
	st, err = s.Submit(JobSpec{Layout: testLayoutText, MaxIter: 2})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, s, st.ID, 30*time.Second, func(st *Status) bool { return st.State == StateDone })
}

// TestFinishedJobsAreBounded: a daemon forgets its oldest finished jobs
// past the retention bound (their IDs answer 404) and nothing else —
// queued, running and interrupted jobs stay however old they are.
func TestFinishedJobsAreBounded(t *testing.T) {
	cfg := testServerConfig(t.TempDir())
	cfg.TileCache = diskCache(t)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.retain = 2
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	submit := func(maxIter int) string {
		t.Helper()
		st, err := s.Submit(JobSpec{Layout: testLayoutText, MaxIter: maxIter})
		if err != nil {
			t.Fatal(err)
		}
		return st.ID
	}
	gone := func(id string) {
		t.Helper()
		if _, err := s.Status(id); !errors.Is(err, ErrNotFound) {
			t.Errorf("job %s past the bound: Status = %v, want ErrNotFound", id, err)
		}
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET /v1/jobs/%s past the bound: status %d, want 404", id, resp.StatusCode)
		}
	}
	listed := func() []string {
		t.Helper()
		page, next, err := s.ListPage("", 0, "")
		if err != nil || next != "" {
			t.Fatalf("list: %v (next %q)", err, next)
		}
		var ids []string
		for _, st := range page {
			ids = append(ids, st.ID)
		}
		return ids
	}

	// The two oldest jobs never finish on their own: one holds the single
	// worker, one waits behind it. Three later ones are canceled while
	// queued, which makes them terminal without a worker.
	running := submit(100000)
	waitFor(t, s, running, 30*time.Second, func(st *Status) bool { return st.State == StateRunning })
	waiting := submit(100000)
	c := []string{submit(1), submit(1), submit(1)}
	for _, id := range c {
		if _, err := s.Cancel(id); err != nil {
			t.Fatal(err)
		}
	}
	gone(c[0])
	if got, want := listed(), []string{running, waiting, c[1], c[2]}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after three finished jobs the list is %v, want %v", got, want)
	}
	for _, id := range c[1:] {
		if st, err := s.Status(id); err != nil || st.State != StateCanceled {
			t.Fatalf("job %s within the bound: %+v, %v", id, st, err)
		}
	}

	// A job that finishes on a worker is counted the same way.
	if _, err := s.Cancel(running); err != nil {
		t.Fatal(err)
	}
	waitFor(t, s, running, 30*time.Second, func(st *Status) bool { return st.State == StateCanceled })
	gone(c[1])
	waitFor(t, s, waiting, 30*time.Second, func(st *Status) bool { return st.State == StateRunning })

	// A drain interrupts the running job; interrupted is not finished, so
	// even a bound of zero keeps it for the restart to resume.
	s.mu.Lock()
	s.retain = 0
	s.mu.Unlock()
	shutdown(t, s)
	if st, err := s.Status(waiting); err != nil || st.State != StateInterrupted {
		t.Fatalf("drained job: %+v, %v; want it kept as interrupted", st, err)
	}
	if got, want := listed(), []string{running, waiting, c[2]}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after the drain the list is %v, want %v", got, want)
	}
}

func TestQueueLimit(t *testing.T) {
	cfg := testServerConfig("")
	cfg.QueueLimit = 2
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, s)

	blocker, err := s.Submit(JobSpec{Layout: testLayoutText, MaxIter: 100000})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, s, blocker.ID, 30*time.Second, func(st *Status) bool { return st.State == StateRunning })

	for i := 0; i < 2; i++ {
		if _, err := s.Submit(JobSpec{Layout: testLayoutText, MaxIter: 1}); err != nil {
			t.Fatalf("queued submit %d: %v", i, err)
		}
	}
	_, err = s.Submit(JobSpec{Layout: testLayoutText, MaxIter: 1})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-limit submit: %v, want ErrQueueFull", err)
	}
	var qf *QueueFullError
	if !errors.As(err, &qf) || qf.Limit != 2 || qf.RetryAfter <= 0 {
		t.Fatalf("over-limit submit: %v, want *QueueFullError with Limit=2 and a retry hint", err)
	}
	if _, err := s.Cancel(blocker.ID); err != nil {
		t.Fatal(err)
	}
}

func TestQueueOrdersByPriority(t *testing.T) {
	var q jobQueue
	for i, pr := range []int{0, 5, 0, 5, -1} {
		heap.Push(&q, &job{id: fmt.Sprintf("j%d", i), spec: JobSpec{Priority: pr}, seq: int64(i)})
	}
	var order []string
	for q.Len() > 0 {
		order = append(order, heap.Pop(&q).(*job).id)
	}
	want := []string{"j1", "j3", "j0", "j2", "j4"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("pop order %v, want %v", order, want)
		}
	}
}

// drainMidRun submits spec to a server of *cfg, drains the server while
// the job is between its third and fourth iteration, and returns the
// job's id once its checkpoint — the .job, nothing else — is on disk. It
// gates the optimizer through cfg.Tune; the gate stays open afterwards, so
// a restarted server takes the same cfg.
func drainMidRun(t *testing.T, cfg *Config, spec JobSpec) string {
	t.Helper()
	// Gate the optimizer at the end of its third iteration so the drain
	// deterministically lands mid-run: the job blocks at the gate, the
	// drain cancels its (already blocked) context, and only then does the
	// gate open. A small job would otherwise finish before the drain.
	reached := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	baseTune := cfg.Tune
	cfg.Tune = func(c *mosaic.Config) {
		baseTune(c)
		c.OnIter = func(st mosaic.IterStats) {
			if st.Iter == 2 {
				once.Do(func() { close(reached) })
				<-release
			}
		}
	}

	s1, err := New(*cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-reached
	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drained <- s1.Shutdown(ctx)
	}()
	// Shutdown cancels the running job's context before waiting on it;
	// give that in-memory step a beat, then let the optimizer continue —
	// it observes the cancellation at the next loop top.
	time.Sleep(100 * time.Millisecond)
	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	got, err := s1.Status(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateInterrupted {
		t.Fatalf("drained job is %s, want interrupted", got.State)
	}
	checkpointed(t, cfg.CheckpointDir, st.ID)
	return st.ID
}

// checkpointed fails unless a drain left exactly the job's .job in dir.
func checkpointed(t *testing.T, dir, id string) {
	t.Helper()
	files, _ := filepath.Glob(filepath.Join(dir, id+".*"))
	if want := []string{filepath.Join(dir, id+".job")}; !reflect.DeepEqual(files, want) {
		t.Fatalf("drain left %v, want %v", files, want)
	}
}

// coldRun is the reference of the checkpoint tests: spec run
// uninterrupted under cfg's optics, tuning and warm-start library, in this
// same process, through the library directly.
func coldRun(t *testing.T, cfg Config, spec JobSpec) *mosaic.LayoutResult {
	t.Helper()
	layout, err := (&spec).resolveLayout()
	if err != nil {
		t.Fatal(err)
	}
	opt, _ := mosaic.JobOptics(cfg.Optics, spec.Grid, layout, spec.TileNM)
	setup, err := mosaic.NewSetup(opt)
	if err != nil {
		t.Fatal(err)
	}
	ref := spec.config()
	cfg.Tune(&ref)
	want, err := setup.OptimizeLayout(context.Background(), ref, layout,
		mosaic.TileOptions{TileNM: spec.TileNM, WarmStart: cfg.WarmStart})
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestDrainResumeBitIdentical is the acceptance test of the serving
// layer's fault tolerance: a drained server checkpoints its in-flight
// job, a restarted server resumes it — the window that was in flight runs
// again, all six iterations — and the final mask is bit-identical to an
// uninterrupted run of the same configuration.
func TestDrainResumeBitIdentical(t *testing.T) {
	dir := t.TempDir()
	cfg := testServerConfig(dir)
	cfg.TileCache = diskCache(t)
	spec := JobSpec{Layout: testLayoutText, MaxIter: 6}
	artDir := t.TempDir()
	art, err := mosaic.OpenArtifactStore(artDir)
	if err != nil {
		t.Fatal(err)
	}
	defer art.Close()
	cfg.ArtifactStore = art

	id := drainMidRun(t, &cfg, spec)

	// A fresh server picks the job up and finishes it.
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, s2)
	fin := waitFor(t, s2, id, 60*time.Second, func(st *Status) bool { return st.State.terminal() })
	if fin.State != StateDone {
		t.Fatalf("resumed job finished %s (%s), want done", fin.State, fin.Error)
	}
	if !fin.Resumed {
		t.Fatal("resumed job does not report Resumed")
	}
	if fin.Progress.Iter != 6 {
		t.Fatalf("resumed job reports %d iterations, want 6", fin.Progress.Iter)
	}
	res, err := s2.Result(id)
	if err != nil {
		t.Fatal(err)
	}

	want := coldRun(t, cfg, spec)
	for i, v := range want.Mask.Data {
		if res.Mask.Data[i] != v {
			t.Fatalf("resumed mask differs from uninterrupted run at pixel %d", i)
		}
	}
	for i, v := range want.MaskGray.Data {
		if res.MaskGray.Data[i] != v {
			t.Fatalf("resumed gray mask differs bitwise at pixel %d", i)
		}
	}

	// The finished job's checkpoint files are gone.
	if files, _ := filepath.Glob(filepath.Join(dir, id+".*")); len(files) != 0 {
		t.Fatalf("finished job left checkpoint files behind: %v", files)
	}

	// The resumed job anchored the same work as a cold, uninterrupted job
	// on another server with another store, so the quality side-car it
	// left is the same file: same key, same bytes.
	coldDir := t.TempDir()
	coldArt, err := mosaic.OpenArtifactStore(coldDir)
	if err != nil {
		t.Fatal(err)
	}
	defer coldArt.Close()
	coldCfg := testServerConfig("")
	coldCfg.ArtifactStore = coldArt
	s3, err := New(coldCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, s3)
	cst, err := s3.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if c := waitFor(t, s3, cst.ID, 60*time.Second, func(st *Status) bool { return st.State.terminal() }); c.State != StateDone {
		t.Fatalf("cold job finished %s (%s)", c.State, c.Error)
	}
	resumedCars, coldCars := sidecars(t, artDir), sidecars(t, coldDir)
	if len(resumedCars) != 1 || !reflect.DeepEqual(resumedCars, coldCars) {
		t.Fatalf("resumed run's side-cars %v differ from the cold run's %v", resumedCars, coldCars)
	}
}

// TestCheckpointOfAnotherGenerationRestarts: a checkpoint an older build
// left — a .job whose meta names a numeric generation (another one, this
// one, or none) and a tile journal beside it — resumes like any other. The
// journal is never read: its one record, a window whose gray mask is
// nudged, would show in the result if it were adopted. It is deleted with
// the job's other checkpoint files, and the job ends with the gray mask
// and the cache entry of a cold run.
func TestCheckpointOfAnotherGenerationRestarts(t *testing.T) {
	spec := JobSpec{Layout: testLayoutText, MaxIter: 6}
	var want *mosaic.LayoutResult
	for name, version := range map[string]any{
		"differs": cache.DigestVersion - 1,
		"absent":  nil,
		"same":    cache.DigestVersion,
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := testServerConfig(dir)
			store := diskCache(t)
			cfg.TileCache = store
			id := drainMidRun(t, &cfg, spec)
			if want == nil {
				want = coldRun(t, cfg, spec)
			}

			// The older build's journal: one MJRN frame holding window 0.
			foreign := want.MaskGray.Clone()
			for i := range foreign.Data {
				foreign.Data[i] += 0.25
			}
			w0 := want.Tiles[0]
			record := ilt.NewResultFrame(0, &mosaic.Result{Mask: w0.Mask, MaskGray: foreign, Objective: w0.Objective, Iterations: w0.Iterations})
			journal := filepath.Join(dir, id+".journal")
			if err := os.WriteFile(journal, record.Seal(0x4d4a524e), 0o644); err != nil {
				t.Fatal(err)
			}

			metaPath := filepath.Join(dir, id+".job")
			data, err := os.ReadFile(metaPath)
			if err != nil {
				t.Fatal(err)
			}
			var meta map[string]any
			if err := json.Unmarshal(data, &meta); err != nil {
				t.Fatal(err)
			}
			if v, ok := meta["digest_version"]; ok {
				t.Fatalf("drained meta carries digest_version %v: the cache keys are the generation guard", v)
			}
			if version != nil {
				meta["digest_version"] = version
				if data, err = json.Marshal(meta); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(metaPath, data, 0o644); err != nil {
					t.Fatal(err)
				}
			}

			s2, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer shutdown(t, s2)
			if res := finished(t, s2, id, "restarted job"); !res.MaskGray.Equal(want.MaskGray, 0) {
				t.Fatal("restarted job: gray mask differs from a cold run's")
			}
			// The entry the restarted job stored is what the next repeat is
			// served: resubmit and require a hit with the same bits.
			hits := store.Stats().Hits
			again, err := s2.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			if res := finished(t, s2, again.ID, "cached repeat"); !res.MaskGray.Equal(want.MaskGray, 0) {
				t.Fatal("cached repeat: gray mask differs from a cold run's")
			}
			if got := store.Stats().Hits - hits; got != 1 {
				t.Fatalf("repeat took %d cache hits, want 1", got)
			}
			// The one worker ended the restarted job before it took the
			// repeat, checkpoint files included.
			if _, err := os.Stat(journal); !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("the older build's journal outlived its job: %v", err)
			}
		})
	}
}

// TestResumedJobIsServedItsOwnKey: a drained job comes back through the
// chain a fresh submission takes, so what it stores under its cache key is
// what any computation of that key produces. Job B — a cell placed 8 nm off
// its base — is drained while it runs cold; before the restart the library
// learns the base cell, so the restarted B is handed a seed. The mask it
// finishes with, the one a repeat is served from the cache, and the one a
// server with the same library and an empty cache computes must be one
// mask. (A B continued from a per-iteration snapshot of its cold trajectory
// ignored the seed it was keyed under: 10 unseeded iterations stored where
// the honest run is 3 seeded ones.)
func TestResumedJobIsServedItsOwnKey(t *testing.T) {
	const (
		baseCell = "CLIP cell 512\nRECT 160 144 96 224\nRECT 312 144 56 224\n"
		jittered = "CLIP cell-jittered 512\nRECT 168 144 96 224\nRECT 320 144 56 224\n"
	)
	spec := JobSpec{Layout: jittered, MaxIter: 12}
	lib, err := mosaic.OpenWarmStartLibrary(t.TempDir(), 0, true)
	if err != nil {
		t.Fatal(err)
	}
	store, err := mosaic.OpenTileCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testServerConfig(t.TempDir())
	cfg.Tune = func(c *mosaic.Config) { c.GradKernels, c.SRAFInit, c.Jumps = 1, false, 0 }
	tune := cfg.Tune // drainMidRun adds its gate to cfg's
	cfg.TileCache, cfg.WarmStart = store, lib

	id := drainMidRun(t, &cfg, spec)

	// The library learns B's base cell, in this goroutine: no second server
	// whose worker could wait on a one-core pool.
	coldRun(t, Config{Optics: cfg.Optics, Tune: tune, WarmStart: lib}, JobSpec{Layout: baseCell, MaxIter: 12})

	type outcome struct {
		gray  *mosaic.Field
		iters int
		seed  string
	}
	finish := func(s *Server, id, what string) outcome {
		t.Helper()
		res := finished(t, s, id, what)
		return outcome{res.MaskGray, res.Iterations, res.Provenance[0].Seed}
	}
	same := func(got, want outcome, what string) {
		t.Helper()
		if got.iters != want.iters || got.seed != want.seed || !got.gray.Equal(want.gray, 0) {
			t.Fatalf("%s: %d iterations from seed %q, the resumed job %d from %q (gray masks equal: %v)",
				what, got.iters, got.seed, want.iters, want.seed, got.gray.Equal(want.gray, 0))
		}
	}

	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, s2)
	resumed := finish(s2, id, "resumed job")
	if resumed.seed == "" {
		t.Fatal("the resumed job was not seeded from the base cell the library learned")
	}
	hits := store.Stats().Hits
	again, err := s2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	same(finish(s2, again.ID, "cached repeat"), resumed, "cached repeat")
	if got := store.Stats().Hits - hits; got != 1 {
		t.Fatalf("repeat took %d cache hits, want 1", got)
	}

	fresh := testServerConfig("")
	fresh.Tune, fresh.WarmStart = tune, lib
	s3, err := New(fresh)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, s3)
	st, err := s3.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	same(finish(s3, st.ID, "fresh computation"), resumed, "fresh computation of the same key")
}

// twoWindowSpec is a sharded job whose first two windows hold distinct
// cells, each out of the other's halo, and whose last two are empty. At
// 16 nm pixels the λ/NA halo (143 nm, 9 px) pads a 32 px core to a 64 px
// window, a 256 nm halo: window 0 ends at x = 768 nm, window 1 starts at
// 256 nm and the second row at y = 256 nm.
var twoWindowSpec = JobSpec{
	Layout:      "CLIP two-cells 1024\nRECT 32 48 192 144\nRECT 800 32 144 192\n",
	MaxIter:     12,
	Grid:        32,
	TileNM:      512,
	TileWorkers: 1,
}

// gateRunner computes windows in-process, except that it holds one window
// until its run is canceled.
type gateRunner struct {
	window  int
	reached chan struct{} // closed when the held window arrives
}

func (g gateRunner) RunTile(ctx context.Context, req *tile.Request) (*mosaic.Result, error) {
	if req.Tile.Index != g.window {
		return tile.LocalRunner{}.RunTile(ctx, req)
	}
	close(g.reached)
	<-ctx.Done()
	return nil, ctx.Err()
}

// drainInWindow submits spec to a server of cfg, drains the server once
// window 0 is done and window 1 is in flight, and returns the job's id
// once its checkpoint is on disk. The gate is a TileRunner: Plan.Optimize
// strips OnIter from a sharded run, so drainMidRun's cannot stop one.
func drainInWindow(t *testing.T, cfg Config, spec JobSpec) string {
	t.Helper()
	reached := make(chan struct{})
	cfg.TileRunner = gateRunner{window: 1, reached: reached}
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-reached
	shutdown(t, s1)
	if got, err := s1.Status(st.ID); err != nil || got.State != StateInterrupted {
		t.Fatalf("drained job: %+v, %v; want it interrupted", got, err)
	}
	checkpointed(t, cfg.CheckpointDir, st.ID)
	return st.ID
}

// TestNewRefusesCheckpointDirWithoutDiskCache: a resumed job finds the
// windows it finished in the tile cache's disk tier, so a checkpoint dir
// without one is refused up front, naming the field.
func TestNewRefusesCheckpointDirWithoutDiskCache(t *testing.T) {
	memOnly, err := mosaic.OpenTileCache("", 0)
	if err != nil {
		t.Fatal(err)
	}
	for name, store := range map[string]*mosaic.TileCache{"no cache": nil, "memory only": memOnly} {
		cfg := testServerConfig(t.TempDir())
		cfg.TileCache = store
		var ce *mosaic.ConfigError
		if s, err := New(cfg); !errors.As(err, &ce) || ce.Field != "CheckpointDir" {
			if s != nil {
				shutdown(t, s)
			}
			t.Errorf("%s: New = %v, want a *ConfigError on CheckpointDir", name, err)
		}
	}
}

// TestResumedWindowsComeFromTheDiskTier: without warm-start, the window a
// drained job finished is served to the restarted server from the disk
// tier of a fresh store over the same directory, the window that was in
// flight is computed, and the stitched mask is a cold run's.
func TestResumedWindowsComeFromTheDiskTier(t *testing.T) {
	cacheDir := t.TempDir()
	cfg := testServerConfig(t.TempDir())
	var err error
	if cfg.TileCache, err = mosaic.OpenTileCache(cacheDir, 0); err != nil {
		t.Fatal(err)
	}
	id := drainInWindow(t, cfg, twoWindowSpec)

	if cfg.TileCache, err = mosaic.OpenTileCache(cacheDir, 0); err != nil {
		t.Fatal(err)
	}
	misses := obs.NewCounter("cache_misses_total")
	before := misses.Value()
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, s2)
	res := finished(t, s2, id, "resumed job")
	var tiers []string
	for _, p := range res.Provenance {
		tiers = append(tiers, p.Tier)
	}
	if want := []string{"disk", "miss", "empty", "empty"}; !reflect.DeepEqual(tiers, want) {
		t.Fatalf("resumed windows served from %v, want %v", tiers, want)
	}
	if got := misses.Value() - before; got != 1 {
		t.Fatalf("cache_misses_total rose by %v, want 1", got)
	}
	if !res.MaskGray.Equal(coldRun(t, cfg, twoWindowSpec).MaskGray, 0) {
		t.Fatal("resumed gray mask differs from a cold run's")
	}
}

// TestResumedShardedJobEqualsFresh: under a harvesting library, a drained
// job's finished window comes back the way a fresh submission computes it.
// The window harvested before the drain seeds itself on both servers, so
// the resumed job is a short seeded run of it, not the cold mask the drain
// left behind.
func TestResumedShardedJobEqualsFresh(t *testing.T) {
	libDir := t.TempDir()
	lib, err := mosaic.OpenWarmStartLibrary(libDir, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testServerConfig(t.TempDir())
	cfg.Tune = func(c *mosaic.Config) { c.GradKernels, c.SRAFInit, c.Jumps = 1, false, 0 }
	cfg.TileCache, cfg.WarmStart = diskCache(t), lib
	id := drainInWindow(t, cfg, twoWindowSpec)

	libCopy := t.TempDir()
	copyTree(t, libDir, libCopy)
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, s2)
	resumed := finished(t, s2, id, "resumed job")

	fresh := testServerConfig("")
	fresh.Tune = cfg.Tune
	if fresh.WarmStart, err = mosaic.OpenWarmStartLibrary(libCopy, 0, true); err != nil {
		t.Fatal(err)
	}
	s3, err := New(fresh)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, s3)
	st, err := s3.Submit(twoWindowSpec)
	if err != nil {
		t.Fatal(err)
	}
	want := finished(t, s3, st.ID, "fresh submission")
	if want.Provenance[0].Seed == "" {
		t.Fatal("the fresh submission did not seed window 0 from the library: the test shows nothing")
	}
	for i := range want.Provenance {
		if got, w := resumed.Provenance[i].Seed, want.Provenance[i].Seed; got != w {
			t.Errorf("window %d: resumed from seed %q, fresh from %q", i, got, w)
		}
	}
	if !resumed.MaskGray.Equal(want.MaskGray, 0) {
		t.Fatal("resumed gray mask differs from a fresh submission's")
	}
}

// copyTree copies the regular files under src to the same paths under dst.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// sidecars maps each quality side-car under an artifact dir (by its path
// below the dir) to its bytes.
func sidecars(t *testing.T, artifactDir string) map[string]string {
	t.Helper()
	paths, _ := filepath.Glob(filepath.Join(artifactDir, "quality", "*", "*.mtq"))
	out := make(map[string]string, len(paths))
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		rel, _ := filepath.Rel(artifactDir, p)
		out[rel] = string(data)
	}
	return out
}

// TestTiledJobUnderCheckpointDir runs a sharded job end to end under a
// checkpoint dir and checks the result is tiled, its progress complete and
// its checkpoint dir empty.
func TestTiledJobUnderCheckpointDir(t *testing.T) {
	dir := t.TempDir()
	cfg := testServerConfig(dir)
	cfg.TileCache = diskCache(t)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, s)

	st, err := s.Submit(JobSpec{Layout: testLayoutText, MaxIter: 2, Grid: 32, TileNM: 256, TileWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	fin := waitFor(t, s, st.ID, 120*time.Second, func(st *Status) bool { return st.State.terminal() })
	if fin.State != StateDone {
		t.Fatalf("tiled job finished %s (%s), want done", fin.State, fin.Error)
	}
	if fin.Progress.TilesDone != fin.Progress.TilesTotal || fin.Progress.TilesTotal != 4 {
		t.Fatalf("tile progress %d/%d, want 4/4", fin.Progress.TilesDone, fin.Progress.TilesTotal)
	}
	// Progress is read off the windows' ilt.iter instants, which a sharded
	// run emits like a one-window run (the OnIter hook is off across several).
	if fin.Progress.Iter != 2 || fin.Progress.MaxIter != 2 {
		t.Fatalf("iteration progress %d/%d, want that of the window that reported last, 2/2", fin.Progress.Iter, fin.Progress.MaxIter)
	}
	sum, err := s.Summary(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Tiled || sum.MaskW != 64 {
		t.Fatalf("summary %+v, want a tiled 64 px result", sum)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "*")); len(files) != 0 {
		t.Fatalf("finished tiled job left %v in its checkpoint dir", files)
	}
}

// TestRestoreSkipsTornCheckpoint: a .job cut short (what a crash during
// a non-atomic checkpoint write used to leave) must cost only itself —
// the intact checkpoint next to it is restored and runs to completion.
func TestRestoreSkipsTornCheckpoint(t *testing.T) {
	dir := t.TempDir()
	// The intact checkpoint is an older build's: its .job repeats the
	// priority beside the spec, and a per-iteration snapshot no build reads
	// any more lies next to it.
	meta, err := json.Marshal(struct {
		checkpointMeta
		Priority int `json:"priority"`
	}{checkpointMeta: checkpointMeta{
		ID:          "job-intact",
		Spec:        JobSpec{Layout: testLayoutText, MaxIter: 2},
		SubmittedAt: time.Now(),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "job-intact.snap"), []byte("a snapshot of a build long gone"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "job-intact.job"), meta, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "job-torn.job"), meta[:len(meta)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	cfg := testServerConfig(dir)
	cfg.TileCache = diskCache(t)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, s)
	if _, err := s.Status("job-torn"); err == nil {
		t.Fatal("a truncated checkpoint was restored")
	}
	fin := waitFor(t, s, "job-intact", 60*time.Second, func(st *Status) bool { return st.State.terminal() })
	if fin.State != StateDone || !fin.Resumed {
		t.Fatalf("intact checkpoint finished %s (resumed=%v, %s), want a resumed done job", fin.State, fin.Resumed, fin.Error)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "job-intact.*")); len(files) != 0 {
		t.Fatalf("finished job left checkpoint files behind: %v", files)
	}
}

// TestRestoreRefusesAnOptionItCannotHonour: a .job whose spec holds a field
// JobSpec does not have — an option an older build accepted and this one
// dropped — is skipped like a torn one, not resumed under options nobody
// submitted; POST /v1/jobs refuses the same spec. The valid .job beside it
// resumes: exactly one job comes back.
func TestRestoreRefusesAnOptionItCannotHonour(t *testing.T) {
	dir := t.TempDir()
	known := checkpointMeta{ID: "job-known", Spec: JobSpec{Layout: testLayoutText, MaxIter: 2}, SubmittedAt: time.Now()}
	type olderSpec struct {
		JobSpec
		SeamNM float64 `json:"seam_nm"`
	}
	foreign := struct {
		checkpointMeta
		Spec olderSpec `json:"spec"`
	}{checkpointMeta{ID: "job-foreign", SubmittedAt: known.SubmittedAt}, olderSpec{known.Spec, 160}}
	for id, meta := range map[string]any{known.ID: known, foreign.ID: foreign} {
		data, err := json.Marshal(meta)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, id+".job"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	cfg := testServerConfig(dir)
	cfg.TileCache = diskCache(t)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, s)
	page, _, err := s.ListPage("", 0, "")
	if err != nil || len(page) != 1 || page[0].ID != known.ID || !page[0].Resumed {
		t.Fatalf("restored %+v (%v), want the one resumed job %s", page, err, known.ID)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body, err := json.Marshal(foreign.Spec)
	if err != nil {
		t.Fatal(err)
	}
	if code, _ := postJob(t, ts.URL, string(body)); code != http.StatusBadRequest {
		t.Errorf("POST of the foreign spec: status %d, want 400", code)
	}
	waitFor(t, s, known.ID, 60*time.Second, func(st *Status) bool { return st.State == StateDone })
}
