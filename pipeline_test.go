package mosaic

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"mosaic/internal/ilt"
	"mosaic/internal/metrics"
	"mosaic/internal/tile"
)

// bareOptimize is the bare optimizer on a clip the setup grid covers —
// ilt.New and RunRasterCtx on the clip's raster and EPE samples — the
// reference every one-window run reproduces bit for bit.
func bareOptimize(t *testing.T, s *Setup, cfg Config, layout *Layout) *Result {
	t.Helper()
	o, err := ilt.New(s.Sim, cfg)
	if err != nil {
		t.Fatal(err)
	}
	target := layout.Rasterize(s.Sim.Cfg.GridSize, s.Sim.Cfg.PixelNM)
	res, err := o.RunRasterCtx(context.Background(), layout, target, layout.SamplePoints(metrics.DefaultParams().EPESampleNM))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// sameRun reports the first way got differs from the bare optimizer's
// result want: its iteration count, its history or a gray-mask pixel.
func sameRun(got, want *Result) string {
	switch {
	case got.Iterations != want.Iterations:
		return fmt.Sprintf("%d iterations, the bare optimizer took %d", got.Iterations, want.Iterations)
	case len(got.History) != len(want.History):
		return fmt.Sprintf("%d history entries, the bare optimizer has %d", len(got.History), len(want.History))
	}
	for i := range want.History {
		if got.History[i] != want.History[i] {
			return fmt.Sprintf("history entry %d differs: %+v vs %+v", i, got.History[i], want.History[i])
		}
	}
	for i, v := range want.MaskGray.Data {
		if got.MaskGray.Data[i] != v {
			return fmt.Sprintf("continuous mask differs at pixel %d", i)
		}
	}
	return ""
}

// flakyRunner is an in-process TileRunner that counts its calls and fails
// the first failures of them.
type flakyRunner struct {
	calls, failures atomic.Int32
}

func (r *flakyRunner) RunTile(ctx context.Context, req *tile.Request) (*Result, error) {
	if r.calls.Add(1) <= r.failures.Load() {
		return nil, errors.New("injected tile failure")
	}
	return tile.LocalRunner{}.RunTile(ctx, req)
}

// TestOneWindowRunHonoursEveryOption pins that a layout fitting the setup
// grid goes through the same pipeline as a sharded one: every TileOptions
// field and every per-optimizer Config hook the call accepts takes effect,
// and whatever served the window, the bits are the bare optimizer's.
func TestOneWindowRunHonoursEveryOption(t *testing.T) {
	s, err := NewSetup(smallOptics())
	if err != nil {
		t.Fatal(err)
	}
	layout := smallLayout()
	cfg := warmCfg(6)
	ctx := context.Background()
	ref := bareOptimize(t, s, cfg, layout)
	// run is OptimizeLayout plus the invariants of any one-window result.
	run := func(t *testing.T, ctx context.Context, cfg Config, opts TileOptions) *LayoutResult {
		t.Helper()
		res, err := s.OptimizeLayout(ctx, cfg, layout, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Tiled || res.Workers != 1 || res.SeamNM != 0 || len(res.Tiles) != 1 || len(res.Provenance) != 1 {
			t.Fatalf("not a one-window result: tiled=%v workers=%d seam=%g tiles=%d provenance=%d",
				res.Tiled, res.Workers, res.SeamNM, len(res.Tiles), len(res.Provenance))
		}
		if res.Iterations != ref.Iterations {
			t.Fatalf("%d iterations, the bare optimizer took %d", res.Iterations, ref.Iterations)
		}
		for i, v := range ref.MaskGray.Data {
			if res.MaskGray.Data[i] != v {
				t.Fatalf("continuous mask differs from the bare optimizer at pixel %d", i)
			}
		}
		return res
	}

	t.Run("Cache", func(t *testing.T) {
		dir := t.TempDir()
		var store *TileCache
		for _, want := range []string{"miss", "mem", "disk"} {
			if want != "mem" { // cold, and again for the disk tier: a fresh store over the directory
				var err error
				if store, err = OpenTileCache(dir, 64<<20); err != nil {
					t.Fatal(err)
				}
			}
			if got := run(t, ctx, cfg, TileOptions{Cache: store}).Provenance[0].Tier; got != want {
				t.Fatalf("served from tier %q, want %q", got, want)
			}
		}
	})

	t.Run("Runner", func(t *testing.T) {
		r := &flakyRunner{}
		run(t, ctx, cfg, TileOptions{Runner: r})
		if n := r.calls.Load(); n != 1 {
			t.Fatalf("custom runner invoked %d times, want 1", n)
		}
	})

	// A window runs once: the runner's error is the run's, never retried.
	t.Run("Retries", func(t *testing.T) {
		r := &flakyRunner{}
		r.failures.Store(1)
		if _, err := s.OptimizeLayout(ctx, cfg, layout, TileOptions{Runner: r}); err == nil {
			t.Fatal("a failing tile did not fail the run")
		}
		if n := r.calls.Load(); n != 1 {
			t.Fatalf("failing runner invoked %d times, want 1", n)
		}
	})

	t.Run("OnIter and TrackMetrics", func(t *testing.T) {
		hooked := cfg
		hooked.TrackMetrics = true
		fired := 0
		hooked.OnIter = func(IterStats) { fired++ }
		start := time.Now()
		res := run(t, ctx, hooked, TileOptions{})
		wall := time.Since(start).Seconds()
		if fired != res.Iterations {
			t.Fatalf("OnIter fired %d times over %d iterations", fired, res.Iterations)
		}
		tr := res.Tiles[0]
		if len(tr.History) != res.Iterations {
			t.Fatalf("%d history entries over %d iterations", len(tr.History), res.Iterations)
		}
		if last := tr.History[len(tr.History)-1]; last.Score == 0 || tr.DiagnosticsSec <= 0 {
			t.Fatalf("TrackMetrics did not run: last score %g, diagnostics %gs", last.Score, tr.DiagnosticsSec)
		}
		// The run's runtime is the pipeline's wall time less the time spent
		// in diagnostics, as the optimizer's own is.
		if res.RuntimeSec < tr.RuntimeSec || res.RuntimeSec > wall-tr.DiagnosticsSec {
			t.Fatalf("RuntimeSec %g outside [optimizer %g, wall %g - diagnostics %g]",
				res.RuntimeSec, tr.RuntimeSec, wall, tr.DiagnosticsSec)
		}
	})
}

// TestOptimizeIsTheBareOptimizer pins Setup.Optimize, a one-window plan of
// the tile pipeline, to the bare optimizer on every benchmark clip in both
// modes: the same iterations, history and continuous mask, bit for bit.
func TestOptimizeIsTheBareOptimizer(t *testing.T) {
	o := DefaultOptics()
	o.GridSize = 64
	o.PixelNM = 16
	s, err := NewSetup(o)
	if err != nil {
		t.Fatal(err)
	}
	layouts, err := Benchmarks()
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{ModeFast, ModeExact} {
		cfg := DefaultConfig(mode)
		cfg.MaxIter = 3
		for _, layout := range layouts {
			got, err := s.Optimize(cfg, layout)
			if err != nil {
				t.Fatal(err)
			}
			if diff := sameRun(got, bareOptimize(t, s, cfg, layout)); diff != "" {
				t.Errorf("%s %s: %s", layout.Name, mode, diff)
			}
		}
	}
}
