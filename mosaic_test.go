package mosaic

import (
	"context"
	"errors"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"mosaic/internal/metrics"
	"mosaic/internal/obs"
	"mosaic/internal/par"
	"mosaic/internal/sim"
)

// smallOptics keeps the root-package tests fast: a 512 nm clip at 8 nm/px.
func smallOptics() OpticsConfig {
	c := DefaultOptics()
	c.GridSize = 64
	c.PixelNM = 8
	c.Kernels = 6
	return c
}

// smallLayout is a two-bar clip matching smallOptics' 512 nm field.
func smallLayout() *Layout {
	return &Layout{
		Name:   "api-test",
		SizeNM: 512,
		Polys: []Polygon{
			Rect{X: 160, Y: 144, W: 96, H: 224}.Polygon(),
			Rect{X: 312, Y: 144, W: 56, H: 224}.Polygon(),
		},
	}
}

func TestNewSetupCalibrates(t *testing.T) {
	s, err := NewSetup(smallOptics())
	if err != nil {
		t.Fatal(err)
	}
	if s.Sim.Resist.Threshold <= 0.05 || s.Sim.Resist.Threshold >= 0.8 {
		t.Fatalf("implausible calibrated threshold %g", s.Sim.Resist.Threshold)
	}
}

// TestNewSetupRejectsBadConfig: a grid Admit would refuse — not a power of
// two, or too small for the calibration line (1 used to panic inside
// sim.CalibrateThreshold, 2 to fail late with "implausible threshold 0") —
// is the same *ConfigError from NewSetup, before a kernel is built; 4 is
// the smallest grid that sets up.
func TestNewSetupRejectsBadConfig(t *testing.T) {
	misses := obs.NewCounter("optics_kernel_cache_misses_total")
	for _, tc := range []struct {
		grid        int
		ok          bool
		description string
	}{
		{77, false, "not a power of two"},
		{0, false, "unset"},
		{1, false, "no pixel beside the line"},
		{2, false, "no pixel inside the line"},
		{4, true, "smallest grid with a line"},
	} {
		c := smallOptics()
		c.GridSize = tc.grid
		before := misses.Value()
		_, err := NewSetup(c)
		if (err == nil) != tc.ok {
			t.Errorf("grid %d (%s): err = %v, want ok = %v", tc.grid, tc.description, err, tc.ok)
			continue
		}
		var ce *ConfigError
		if !tc.ok && (!errors.As(err, &ce) || ce.Field != "OpticsConfig.GridSize") {
			t.Errorf("grid %d (%s): err = %v, want a *ConfigError on OpticsConfig.GridSize", tc.grid, tc.description, err)
		}
		if built := misses.Value() - before; !tc.ok && built != 0 {
			t.Errorf("grid %d (%s): %d kernel sets built before the refusal", tc.grid, tc.description, built)
		}
	}
}

// TestNewSetupBuildsEveryPlane is the contract in NewSetup's doc comment:
// a fresh configuration costs two kernel builds in all (nominal and
// defocused), both inside NewSetup, whether or not a second core is there
// to overlap them — asking for any default process corner afterwards is a
// cache hit. Not parallel: it sets GOMAXPROCS for the whole process.
func TestNewSetupBuildsEveryPlane(t *testing.T) {
	par.Capacity() // size the pool on the whole machine before GOMAXPROCS drops to 1
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	misses := obs.NewCounter("optics_kernel_cache_misses_total")
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		c := smallOptics()
		c.WavelengthNM += float64(procs) / 4 // a configuration no other test has built
		before := misses.Value()
		s, err := NewSetup(c)
		if err != nil {
			t.Fatal(err)
		}
		if got := misses.Value() - before; got != 2 {
			t.Errorf("GOMAXPROCS %d: NewSetup built %d kernel sets, want 2", procs, got)
		}
		for _, corner := range sim.ProcessCorners(s.Params.DefocusNM, s.Params.DoseDelta) {
			if _, err := s.Sim.Kernels(corner.DefocusNM); err != nil {
				t.Fatal(err)
			}
		}
		if got := misses.Value() - before; got != 2 {
			t.Errorf("GOMAXPROCS %d: %d kernel sets built once every corner was asked for, want the 2 of NewSetup", procs, got)
		}
	}
}

// TestOptimizeLayoutBuildsEveryWindowPlane is the sharded twin: the window
// grid differs from the setup grid, so Plan.Optimize owes one build per
// focus plane of the window simulator — before the first tile, at any core
// count — and a second run of the plan builds none. Not parallel: it sets
// GOMAXPROCS for the whole process.
func TestOptimizeLayoutBuildsEveryWindowPlane(t *testing.T) {
	par.Capacity() // size the pool on the whole machine before GOMAXPROCS drops to 1
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	misses := obs.NewCounter("optics_kernel_cache_misses_total")
	cfg := DefaultConfig(ModeFast)
	cfg.MaxIter = 1
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		c := smallOptics()
		c.WavelengthNM -= float64(procs) / 4 // a configuration no other test has built
		s, err := NewSetup(c)
		if err != nil {
			t.Fatal(err)
		}
		before := misses.Value()
		for run := 1; run <= 2; run++ {
			if _, err := s.OptimizeLayout(context.Background(), cfg, cacheLayout(), TileOptions{TileNM: 512}); err != nil {
				t.Fatal(err)
			}
			if got := misses.Value() - before; got != 2 {
				t.Errorf("GOMAXPROCS %d: %d window-grid kernel sets built after run %d, want 2", procs, got, run)
			}
		}
	}
}

func TestOptimizeAndEvaluate(t *testing.T) {
	s, err := NewSetup(smallOptics())
	if err != nil {
		t.Fatal(err)
	}
	layout := smallLayout()
	cfg := DefaultConfig(ModeFast)
	cfg.MaxIter = 8
	res, err := s.Optimize(cfg, layout)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Evaluate(res.Mask, layout, res.RuntimeSec)
	if err != nil {
		t.Fatal(err)
	}
	target := layout.Rasterize(64, 8)
	rep0, err := s.Evaluate(target, layout, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Score >= rep0.Score {
		t.Fatalf("OPC did not improve the score: %g -> %g", rep0.Score, rep.Score)
	}
}

// TestOptimizeLayoutUntiledDelegation: a layout that fits the setup grid
// with tiling unset is the one-window plan, whose mask is the bare
// optimizer's and whose score is the bare scorer's (metrics.Evaluate on the
// setup simulator), bit for bit: the plan's crop is the identity.
func TestOptimizeLayoutUntiledDelegation(t *testing.T) {
	s, err := NewSetup(smallOptics())
	if err != nil {
		t.Fatal(err)
	}
	layout := smallLayout()
	cfg := DefaultConfig(ModeFast)
	cfg.MaxIter = 6
	res, err := s.OptimizeLayout(context.Background(), cfg, layout, TileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tiled || len(res.Tiles) != 1 || res.Workers != 1 {
		t.Fatalf("expected untiled delegation, got tiled=%v tiles=%d workers=%d",
			res.Tiled, len(res.Tiles), res.Workers)
	}
	ref := bareOptimize(t, s, cfg, layout)
	for i := range res.Mask.Data {
		if res.Mask.Data[i] != ref.Mask.Data[i] {
			t.Fatalf("delegated mask differs from the bare optimizer at pixel %d", i)
		}
	}
	rep, err := s.EvaluateLayout(res.Mask, layout, TileOptions{}, res.RuntimeSec)
	if err != nil {
		t.Fatal(err)
	}
	ref2, err := metrics.Evaluate(s.Sim, ref.Mask, layout, s.Params, res.RuntimeSec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Score != ref2.Score || rep.EPEViolations != ref2.EPEViolations || rep.PVBandNM2 != ref2.PVBandNM2 {
		t.Fatalf("EvaluateLayout diverged from the bare scorer: score %g vs %g, EPE %d vs %d, PVB %g vs %g",
			rep.Score, ref2.Score, rep.EPEViolations, ref2.EPEViolations, rep.PVBandNM2, ref2.PVBandNM2)
	}
	for i, v := range ref2.AerialNominal.Data {
		if rep.AerialNominal.Data[i] != v {
			t.Fatalf("nominal aerial image differs from the bare scorer's at pixel %d", i)
		}
	}
}

func TestBenchmarkAccess(t *testing.T) {
	names := BenchmarkNames()
	if len(names) != 10 {
		t.Fatalf("%d benchmarks", len(names))
	}
	l, err := Benchmark("B4")
	if err != nil {
		t.Fatal(err)
	}
	if l.Name != "B4" || l.SizeNM != 1024 {
		t.Fatalf("%+v", l)
	}
	all, err := Benchmarks()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 10 {
		t.Fatalf("%d layouts", len(all))
	}
	if _, err := Benchmark("nope"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestMethodsRoster(t *testing.T) {
	ms := Methods()
	if len(ms) != 5 {
		t.Fatalf("%d methods", len(ms))
	}
	want := []string{"RuleBased", "ModelBased", "PlainILT", "MOSAIC_fast", "MOSAIC_exact"}
	for i, m := range ms {
		if m.Name() != want[i] {
			t.Fatalf("method %d: %s, want %s", i, m.Name(), want[i])
		}
	}
}

func TestRunMethod(t *testing.T) {
	s, err := NewSetup(smallOptics())
	if err != nil {
		t.Fatal(err)
	}
	rr, err := s.Run(Methods()[0], smallLayout()) // RuleBased: fast
	if err != nil {
		t.Fatal(err)
	}
	if rr.Report == nil || rr.Method != "RuleBased" {
		t.Fatalf("%+v", rr)
	}
}

// TestRunAndEvaluate: Run identifies the method and the clip, times the
// synthesis and threads that runtime into the report.
func TestRunAndEvaluate(t *testing.T) {
	s, err := NewSetup(smallOptics())
	if err != nil {
		t.Fatal(err)
	}
	rr, err := s.Run(Methods()[0], smallLayout()) // RuleBased
	if err != nil {
		t.Fatal(err)
	}
	if rr.Method != "RuleBased" || rr.Testcase != "api-test" {
		t.Fatalf("identification wrong: %+v", rr)
	}
	if rr.RuntimeSec < 0 || rr.Report == nil {
		t.Fatal("missing runtime or report")
	}
	if rr.Report.RuntimeSec != rr.RuntimeSec {
		t.Fatal("runtime not threaded into the report")
	}
}

func TestLayoutFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "clip.layout")
	l := smallLayout()
	if err := SaveLayout(path, l); err != nil {
		t.Fatal(err)
	}
	got, err := LoadLayout(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.SizeNM != l.SizeNM || len(got.Polys) != len(l.Polys) {
		t.Fatalf("%+v", got)
	}
	if _, err := LoadLayout(filepath.Join(dir, "missing.layout")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestJobOptics pins the imaging configuration every front-end runs a job
// at — cmd/mosaic, cmd/evaluate and the daemon each derived it by hand
// before — to the values those copies produced.
func TestJobOptics(t *testing.T) {
	base := DefaultOptics() // 512 px
	served := smallOptics() // a daemon started with -grid 64
	for _, tc := range []struct {
		name      string
		base      OpticsConfig
		grid      int
		sizeNM    float64
		tileNM    float64
		wantGrid  int
		wantPixel float64
		sharded   bool
	}{
		{"the grid covers the layout", base, 512, 1024, 0, 512, 2, false},
		{"grid 0 keeps the base grid", served, 0, 1024, 0, 64, 16, false},
		{"grid overrides the base grid", served, 256, 1024, 0, 256, 4, false},
		{"a pitch the layout fits inside leaves it whole", served, 0, 1024, 2048, 64, 16, false},
		{"a pitch equal to the layout leaves it whole", served, 0, 1024, 1024, 64, 16, false},
		{"a smaller pitch shards: the grid covers one core", served, 0, 1024, 512, 64, 8, true},
		{"sharded under a grid override", base, 128, 2048, 512, 128, 4, true},
		{"a negative pitch is Admit's to refuse, not a shard", served, 0, 1024, -5, 64, 16, false},
		{"so is a negative grid, which is carried", served, -64, 1024, 0, -64, -16, false},
	} {
		layout := &Layout{Name: "l", SizeNM: tc.sizeNM}
		got, sharded := JobOptics(tc.base, tc.grid, layout, tc.tileNM)
		want := tc.base
		want.GridSize, want.PixelNM = tc.wantGrid, tc.wantPixel
		if got != want || sharded != tc.sharded {
			t.Errorf("%s: got %+v sharded=%v, want %+v sharded=%v", tc.name, got, sharded, want, tc.sharded)
		}
	}
}

// TestParseMode: one reading of fast|exact for the job API ("" is the
// default there) and the command line (which lower-cases -mode first, as
// it always has; the API stays case-sensitive).
func TestParseMode(t *testing.T) {
	for in, want := range map[string]Mode{"": ModeFast, "fast": ModeFast, "exact": ModeExact} {
		if got, err := ParseMode(in); err != nil || got != want {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{"quick", "FAST", "Exact", "fast ", "0"} {
		_, err := ParseMode(in)
		var ce *ConfigError
		if !errors.As(err, &ce) || ce.Field != "mode" || !strings.Contains(err.Error(), strconv.Quote(in)) {
			t.Errorf("ParseMode(%q) = %v; want a *ConfigError on mode quoting the input", in, err)
		}
	}
}
