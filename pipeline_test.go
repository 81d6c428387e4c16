package mosaic

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"mosaic/internal/tile"
)

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
// and whatever served the window, the bits are those of Setup.Optimize.
func TestOneWindowRunHonoursEveryOption(t *testing.T) {
	s, err := NewSetup(smallOptics())
	if err != nil {
		t.Fatal(err)
	}
	layout := smallLayout()
	cfg := warmCfg(6)
	ctx := context.Background()
	ref, err := s.Optimize(cfg, layout)
	if err != nil {
		t.Fatal(err)
	}
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
			t.Fatalf("%d iterations, Optimize took %d", res.Iterations, ref.Iterations)
		}
		for i, v := range ref.MaskGray.Data {
			if res.MaskGray.Data[i] != v {
				t.Fatalf("continuous mask differs from Optimize at pixel %d", i)
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
