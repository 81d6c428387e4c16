package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mosaic"
	"mosaic/internal/httpapi"
	"mosaic/internal/obs"
	"mosaic/internal/tile"
)

// postJob submits a raw body and returns the status code and, for an
// error, the envelope.
func postJob(t *testing.T, url, body string) (int, httpapi.ErrorBody) {
	t.Helper()
	resp, err := http.Post(url+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env httpapi.Envelope
	if resp.StatusCode >= 400 {
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatalf("POST %s: status %d without an error envelope: %v", body, resp.StatusCode, err)
		}
	}
	return resp.StatusCode, env.Error
}

// TestSubmitRefusesWhatCannotRun: a job no layer can run is a 400 naming
// the library field, never a queued job. The two bodies below were
// answered 202, took a worker, built and pinned a Setup for a pixel
// size nothing else uses and then failed with an untyped string; with them
// go the rows of the shared table (testdata/inadmissible.json, see the
// root package's TestAdmitRefusals). Nothing is enqueued and no kernel set
// is built — every body implies optics no other test of this process
// builds, so an unchanged miss count also says NewSetup was never called.
func TestSubmitRefusesWhatCannotRun(t *testing.T) {
	raw, err := os.ReadFile("../../testdata/inadmissible.json")
	if err != nil {
		t.Fatal(err)
	}
	type row struct {
		Name, Field string
		Job         json.RawMessage
	}
	var rows []row
	if err := json.Unmarshal(raw, &rows); err != nil {
		t.Fatal(err)
	}
	for _, body := range []string{
		`{"benchmark":"B1","tile_nm":300}`,
		`{"benchmark":"B1","tile_nm":1}`,
	} {
		rows = append(rows, row{Name: body, Job: json.RawMessage(body)})
	}

	misses := obs.NewCounter("optics_kernel_cache_misses_total")
	before, submitted := misses.Value(), mJobsSubmitted.Value()
	for _, row := range rows {
		s, err := New(testServerConfig(""))
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		code, env := postJob(t, ts.URL, string(row.Job))
		if code != http.StatusBadRequest || env.Code != httpapi.CodeBadRequest {
			t.Errorf("%s: status %d code %q, want 400 %s", row.Name, code, env.Code, httpapi.CodeBadRequest)
		}
		if row.Field != "" && !strings.Contains(env.Message, ": "+row.Field+": ") {
			t.Errorf("%s: message %q does not name %s", row.Name, env.Message, row.Field)
		}
		var spec JobSpec
		if err := json.Unmarshal(row.Job, &spec); err != nil {
			t.Fatal(err)
		}
		var ce *mosaic.ConfigError
		if _, err := s.Submit(spec); !errors.As(err, &ce) || (row.Field != "" && ce.Field != row.Field) {
			t.Errorf("%s: Submit = %v, want a *ConfigError on %q", row.Name, err, row.Field)
		}
		if page, _, err := s.ListPage("", 0, ""); err != nil || len(page) != 0 {
			t.Errorf("%s: %d jobs exist after the refusal (%v)", row.Name, len(page), err)
		}
		ts.Close()
		shutdown(t, s)
	}
	if built := misses.Value() - before; built != 0 {
		t.Errorf("%d kernel sets were built for jobs that were refused", built)
	}
	if n := mJobsSubmitted.Value() - submitted; n != 0 {
		t.Errorf("serve_jobs_submitted_total rose by %v", n)
	}
}

// lastStateEvent returns the data of the newest "state" event of a job.
func lastStateEvent(j *job) map[string]any {
	replay, _, cancel := j.tel.subscribe(0)
	cancel()
	for i := len(replay) - 1; i >= 0; i-- {
		if replay[i].Type == "state" {
			return replay[i].Data
		}
	}
	return nil
}

// TestEveryEndIsOneEnd: whichever way a job ends — canceled in the queue or
// on a worker, failed, past its deadline, done, or drained with and
// without a checkpoint directory — the observable end is the same one:
// the state event carries the error the status reports, the event log is
// closed exactly for terminal states, a terminal job leaves no checkpoint
// file and is retired, an interrupted one keeps its files, its log and
// its place. At the parent three copies of this transition disagreed: a
// job canceled in the queue published no error, a queued job canceled by
// a drain was never retired (or had its error published), and a queued job
// interrupted by a drain had its event log closed.
func TestEveryEndIsOneEnd(t *testing.T) {
	long := JobSpec{Layout: testLayoutText, MaxIter: 100000}
	running := func(t *testing.T, s *Server, spec JobSpec) string {
		t.Helper()
		st, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		waitFor(t, s, st.ID, 30*time.Second, func(st *Status) bool { return st.State == StateRunning })
		return st.ID
	}
	queued := func(t *testing.T, s *Server, spec JobSpec) string {
		t.Helper()
		st, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		return st.ID
	}
	type end struct {
		id    string
		state State
		err   string // substring of the error; "" = none
	}
	for _, tc := range []struct {
		name string
		dir  bool // with a checkpoint directory
		tune func(*mosaic.Config)
		run  func(t *testing.T, s *Server) []end
	}{
		{name: "cancel queued", dir: true, run: func(t *testing.T, s *Server) []end {
			blocker, id := running(t, s, long), queued(t, s, long)
			if _, err := s.Cancel(id); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Cancel(blocker); err != nil {
				t.Fatal(err)
			}
			return []end{{id, StateCanceled, "canceled by request"}, {blocker, StateCanceled, "canceled"}}
		}},
		{name: "cancel running", dir: true, run: func(t *testing.T, s *Server) []end {
			id := running(t, s, long)
			if _, err := s.Cancel(id); err != nil {
				t.Fatal(err)
			}
			return []end{{id, StateCanceled, "canceled"}}
		}},
		{name: "failed", dir: true, tune: func(*mosaic.Config) { panic("tune bug") }, run: func(t *testing.T, s *Server) []end {
			return []end{{queued(t, s, long), StateFailed, "tune bug"}}
		}},
		{name: "deadline", dir: true, run: func(t *testing.T, s *Server) []end {
			spec := long
			spec.DeadlineMS = 1
			return []end{{queued(t, s, spec), StateFailed, "deadline of 1 ms exceeded"}}
		}},
		{name: "done", dir: true, run: func(t *testing.T, s *Server) []end {
			return []end{{queued(t, s, JobSpec{Layout: testLayoutText, MaxIter: 1}), StateDone, ""}}
		}},
		{name: "drain with a checkpoint dir", dir: true, run: func(t *testing.T, s *Server) []end {
			a, b := running(t, s, long), queued(t, s, long)
			shutdown(t, s)
			return []end{{a, StateInterrupted, ""}, {b, StateInterrupted, ""}}
		}},
		{name: "drain without one", run: func(t *testing.T, s *Server) []end {
			a, b := running(t, s, long), queued(t, s, long)
			shutdown(t, s)
			return []end{{a, StateCanceled, "canceled"}, {b, StateCanceled, "drained"}}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := ""
			if tc.dir {
				dir = t.TempDir()
			}
			cfg := testServerConfig(dir)
			if tc.dir {
				cfg.TileCache = diskCache(t)
			}
			if tc.tune != nil {
				cfg.Tune = tc.tune
			}
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer shutdown(t, s) // a second Shutdown is a no-op
			for _, want := range tc.run(t, s) {
				st := waitFor(t, s, want.id, 30*time.Second, func(st *Status) bool { return st.State != StateQueued && st.State != StateRunning })
				if st.State != want.state || (want.err == "") != (st.Error == "") || !strings.Contains(st.Error, want.err) {
					t.Errorf("job ended %s (%q), want %s (%q)", st.State, st.Error, want.state, want.err)
				}
				j, err := s.lookup(want.id)
				if err != nil {
					t.Fatal(err)
				}
				ev := lastStateEvent(j)
				if ev["state"] != string(want.state) {
					t.Errorf("%s: last state event is %v", want.state, ev)
				}
				if msg, _ := ev["error"].(string); msg != st.Error {
					t.Errorf("%s: state event carries error %q, the status %q", want.state, msg, st.Error)
				}
				terminal := want.state.terminal()
				j.tel.mu.Lock()
				closed := j.tel.closed
				j.tel.mu.Unlock()
				if closed != terminal {
					t.Errorf("%s: event log closed = %v", want.state, closed)
				}
				if terminal != (st.FinishedAt != nil) {
					t.Errorf("%s: finished_at = %v", want.state, st.FinishedAt)
				}
				s.mu.Lock()
				retired := false
				for _, id := range s.finished {
					retired = retired || id == want.id
				}
				s.mu.Unlock()
				if retired != terminal {
					t.Errorf("%s: retired = %v", want.state, retired)
				}
				if dir != "" {
					files, _ := filepath.Glob(filepath.Join(dir, want.id+".*"))
					_, metaErr := os.Stat(s.checkpointPath(want.id, ".job"))
					if terminal && len(files) != 0 {
						t.Errorf("%s: checkpoint files left behind: %v", want.state, files)
					}
					if !terminal && metaErr != nil {
						t.Errorf("%s: no .job to resume from (%v)", want.state, files)
					}
				}
			}
		})
	}
}

// fuzzServer is what FuzzAdmit submits to: a 16 px base grid and two SOCS
// kernels keep the runs of what is admitted small.
func fuzzServer() *Server {
	opt := mosaic.DefaultOptics()
	opt.GridSize = 16
	opt.Kernels = 2
	return &Server{cfg: Config{Optics: opt, Tune: func(c *mosaic.Config) { c.GradKernels = 1 }}}
}

// FuzzAdmit fuzzes the admission inputs two ways — a job body through
// JSON decoding, JobSpec and newJob as POST /v1/jobs takes it, and grid,
// iteration budget and TileOptions straight into mosaic.Admit — with two
// oracles only: the request is refused with a typed error (a
// *mosaic.ConfigError from the gate; the API's own refusals of a body are
// the only untyped ones), or it runs to completion and, as a one-window
// plan, leaves the mask Optimize leaves. Every crash of this surface found
// by hand so far that a body can spell is a seed: two bodies that killed
// or wedged the daemon, grids 1 and 2, bodies that were accepted and then
// failed in a worker, and the two raster bounds a grid and tile_nm reach
// through the λ/NA halo (a window beyond one frame, a halo beyond any
// raster). What is admitted is run only when it is small (the
// window at most 64 px, at most 16 tiles, one iteration).
func FuzzAdmit(f *testing.F) {
	for _, seed := range []struct {
		body       string
		grid, iter int
		tileNM     float64
		workers    int
	}{
		{body: `{"benchmark":"B1"}`, grid: 16},
		{body: `{"layout":"CLIP t 512\nRECT 64 120 384 80\n","grid":16,"tile_nm":256,"max_iter":2}`, grid: 16, tileNM: 512, workers: 1},
		{body: `{"benchmark":"B1","tile_nm":300}`, grid: 64, tileNM: 300},
		{body: `{"benchmark":"B1","tile_nm":1}`, grid: 64, tileNM: 1},
		{body: `{"benchmark":"B1","grid":8192,"tile_nm":512}`, grid: 8192, tileNM: 512},
		{body: `{"layout":"CLIP t 100\nRECT 10 10 40 40\n","grid":8192,"tile_nm":25}`, grid: 8192, tileNM: 25},
		{body: `{"benchmark":"B1","grid":1073741824}`, grid: 1 << 30},
		{body: `{"benchmark":"B1","grid":64,"tile_nm":1e-9}`, grid: 64, tileNM: 1e-9},
		{body: `{"benchmark":"B1","grid":1}`, grid: 1},
		{body: `{"benchmark":"B1","grid":2}`, grid: 2},
		{body: `{"benchmark":"B1","grid":16,"tile_nm":256}`, grid: 16, tileNM: 256},
		{body: `{"benchmark":"B1","max_iter":-3,"tile_workers":-1,"deadline_ms":-1}`, grid: 16, iter: -3, workers: -1},
		{body: `{"benchmark":"B1","layout":"CLIP x 512"}`, grid: -16},
	} {
		f.Add([]byte(seed.body), seed.grid, seed.iter, seed.tileNM, seed.workers)
	}
	b1, err := mosaic.Benchmark("B1")
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body []byte, grid, iter int, tileNM float64, workers int) {
		s := fuzzServer()

		// The job API's way in.
		var spec JobSpec
		if decodeSpec(bytes.NewReader(body), &spec) == nil {
			j, err := s.newJob("fuzz", spec, time.Time{})
			var ce *mosaic.ConfigError
			switch {
			case err == nil:
				runAdmitted(t, s.cfg.Optics, spec.Grid, j.layout, spec.config(), s.tileOptions(&spec))
			case !errors.As(err, &ce) && spec.validate() == nil && !strings.HasPrefix(err.Error(), "parsing layout: ") && !errors.Is(err, mosaic.ErrUnknownBenchmark):
				t.Fatalf("newJob(%s) refused with an untyped error that is not the API's own: %v", body, err)
			}
		}

		// The library's.
		cfg := mosaic.DefaultConfig(mosaic.ModeFast)
		if iter != 0 {
			cfg.MaxIter = iter
		}
		opts := mosaic.TileOptions{TileNM: tileNM, Workers: workers}
		err := mosaic.Admit(s.cfg.Optics, grid, b1, cfg, opts)
		var ce *mosaic.ConfigError
		switch {
		case err == nil:
			runAdmitted(t, s.cfg.Optics, grid, b1, cfg, opts)
		case !errors.As(err, &ce):
			t.Fatalf("Admit(grid %d, iter %d, %+v) refused with an untyped error: %v", grid, iter, opts, err)
		}
	})
}

// runAdmitted holds Admit to its word on a request it let through: the run
// completes, and a run of one window equals Optimize. Requests whose plan
// is not small are left alone — admitted, but a fuzz iteration cannot
// afford them.
func runAdmitted(t *testing.T, base mosaic.OpticsConfig, grid int, layout *mosaic.Layout, cfg mosaic.Config, opts mosaic.TileOptions) {
	t.Helper()
	optics, sharded := mosaic.JobOptics(base, grid, layout, opts.TileNM)
	halo, tiles := 0.0, 1.0
	if sharded {
		halo = tile.DefaultHaloNM(optics)
		tiles = layout.SizeNM / opts.TileNM
	}
	if optics.GridSize > 32 || halo/optics.PixelNM > 16 || tiles > 4 {
		return
	}
	cfg.MaxIter = 1
	cfg.GradKernels = 1
	setup, err := mosaic.NewSetup(optics)
	if err != nil {
		t.Fatalf("admitted, but NewSetup(%+v) = %v", optics, err)
	}
	res, err := setup.OptimizeLayout(context.Background(), cfg, layout, opts)
	if err != nil {
		t.Fatalf("admitted, but OptimizeLayout(%+v, %+v) = %v", optics, opts, err)
	}
	if res.Tiled {
		return
	}
	want, err := setup.Optimize(cfg, layout)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range want.MaskGray.Data {
		if res.MaskGray.Data[i] != v {
			t.Fatalf("one-window run differs from Optimize at pixel %d (%+v, %+v)", i, optics, opts)
		}
	}
}
