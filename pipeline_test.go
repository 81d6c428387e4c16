package mosaic

import (
	"context"
	"errors"
	"fmt"
	"reflect"
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

// logIters returns cfg with an OnIter that collects the run's iterations,
// each lent mask cloned, into the returned slice.
func logIters(cfg Config) (Config, *[]IterStats) {
	iters := new([]IterStats)
	cfg.OnIter = func(st IterStats) {
		st.MaskGray = st.MaskGray.Clone()
		*iters = append(*iters, st)
	}
	return cfg, iters
}

// sameRun reports the first way a run differs from the bare optimizer's:
// its iteration count, an iteration's statistics or lent mask in the two
// OnIter streams, or a pixel of the result's continuous mask.
func sameRun(got, want *Result, gotIters, wantIters []IterStats) string {
	switch {
	case got.Iterations != want.Iterations:
		return fmt.Sprintf("%d iterations, the bare optimizer took %d", got.Iterations, want.Iterations)
	case len(gotIters) != len(wantIters):
		return fmt.Sprintf("OnIter fired %d times, for the bare optimizer %d", len(gotIters), len(wantIters))
	}
	for i, w := range wantIters {
		g := gotIters[i]
		if !reflect.DeepEqual(g.MaskGray.Data, w.MaskGray.Data) {
			return fmt.Sprintf("iteration %d lent a different mask", i)
		}
		if g.MaskGray, w.MaskGray = nil, nil; g != w {
			return fmt.Sprintf("iteration %d differs: %+v vs %+v", i, g, w)
		}
	}
	if !reflect.DeepEqual(got.MaskGray.Data, want.MaskGray.Data) {
		return "continuous mask differs"
	}
	return ""
}

// differingField names the first exported field in which two results
// differ, or returns "".
func differingField(a, b *Result) string {
	va, vb := reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem()
	for i := 0; i < va.NumField(); i++ {
		if f := va.Type().Field(i); f.IsExported() && !reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
			return f.Name
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

	// Whichever tier serves the window, the result is the cold one, field
	// by field; only the provenance names the tier.
	t.Run("Cache", func(t *testing.T) {
		dir := t.TempDir()
		var store *TileCache
		var cold *Result
		for _, want := range []string{"miss", "mem", "disk"} {
			if want != "mem" { // cold, and again for the disk tier: a fresh store over the directory
				var err error
				if store, err = OpenTileCache(dir, 64<<20); err != nil {
					t.Fatal(err)
				}
			}
			res := run(t, ctx, cfg, TileOptions{Cache: store})
			if got := res.Provenance[0].Tier; got != want {
				t.Fatalf("served from tier %q, want %q", got, want)
			}
			if cold == nil {
				cold = res.Tiles[0]
			} else if f := differingField(res.Tiles[0], cold); f != "" {
				t.Fatalf("the %s hit differs from the cold result in %s", want, f)
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

	t.Run("OnIter", func(t *testing.T) {
		hooked, iters := logIters(cfg)
		start := time.Now()
		res := run(t, ctx, hooked, TileOptions{})
		wall := time.Since(start).Seconds()
		refCfg, refIters := logIters(cfg)
		if diff := sameRun(res.Tiles[0], bareOptimize(t, s, refCfg, layout), *iters, *refIters); diff != "" {
			t.Fatal(diff)
		}
		// The run's runtime is the pipeline's wall time, which holds the
		// optimizer's.
		if tr := res.Tiles[0]; res.RuntimeSec < tr.RuntimeSec || res.RuntimeSec > wall {
			t.Fatalf("RuntimeSec %g outside [optimizer %g, wall %g]", res.RuntimeSec, tr.RuntimeSec, wall)
		}
	})
}

// TestOptimizeIsTheBareOptimizer pins Setup.Optimize, a one-window plan of
// the tile pipeline, to the bare optimizer on every benchmark clip in both
// modes: the same OnIter streams and continuous mask, bit for bit.
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
			gotCfg, gotIters := logIters(cfg)
			got, err := s.Optimize(gotCfg, layout)
			if err != nil {
				t.Fatal(err)
			}
			wantCfg, wantIters := logIters(cfg)
			if diff := sameRun(got, bareOptimize(t, s, wantCfg, layout), *gotIters, *wantIters); diff != "" {
				t.Errorf("%s %s: %s", layout.Name, mode, diff)
			}
		}
	}
}
