package cache

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"mosaic/internal/geom"
	"mosaic/internal/ilt"
	"mosaic/internal/optics"
	"mosaic/internal/par"
	"mosaic/internal/resist"
	"mosaic/internal/sim"
	"mosaic/internal/tile"
)

// e2ePlan builds a repeated-cell workload for the real pipeline: a
// 1024 nm layout tiled 2x2 at 512 nm pitch with zero halo (64 px windows
// stay cheap under -race and keep windows disjoint), the same cell in the
// SW and NE tiles and the other two tiles empty.
func e2ePlan(t *testing.T) (*tile.Plan, *sim.Simulator, ilt.Config) {
	t.Helper()
	cell := func(x, y float64) geom.Polygon {
		return geom.Rect{X: x + 160, Y: y + 144, W: 160, H: 96}.Polygon()
	}
	l := &geom.Layout{
		Name:   "repeat-e2e",
		SizeNM: 1024,
		Polys:  []geom.Polygon{cell(0, 0), cell(512, 512)},
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	p, err := tile.NewPlan(l, 8, 512, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.WindowPx != 64 || len(p.Tiles) != 4 {
		t.Fatalf("plan window %d px, %d tiles; want 64 px, 4 tiles", p.WindowPx, len(p.Tiles))
	}

	oc := optics.Default()
	oc.GridSize = p.WindowPx
	oc.PixelNM = p.PixelNM
	oc.Kernels = 6
	ws, err := sim.New(oc, resist.Default())
	if err != nil {
		t.Fatal(err)
	}
	thr, err := ws.CalibrateThreshold()
	if err != nil {
		t.Fatal(err)
	}
	ws.Resist.Threshold = thr

	// GradKernels = 1 keeps the runs cheap.
	cfg := ilt.DefaultConfig(ilt.ModeFast)
	cfg.MaxIter = 4
	cfg.GradKernels = 1
	cfg.SRAFInit = false
	return p, ws, cfg
}

// sameMasks fails unless the stitched full-layout rasters are
// bit-identical.
func sameMasks(t *testing.T, a, b *tile.Result) {
	t.Helper()
	for i := range a.Mask.Data {
		if a.Mask.Data[i] != b.Mask.Data[i] {
			t.Fatalf("stitched Mask differs at pixel %d", i)
		}
	}
	for i := range a.MaskGray.Data {
		if a.MaskGray.Data[i] != b.MaskGray.Data[i] {
			t.Fatalf("stitched MaskGray differs at pixel %d", i)
		}
	}
}

// tiers tallies how a run's windows were served, from its provenance.
func tiers(res *tile.Result) map[string]int {
	n := map[string]int{}
	for _, pv := range res.Prov {
		n[pv.Tier]++
	}
	return n
}

// sameTiers fails unless res's windows were served as want says.
func sameTiers(t *testing.T, what string, res *tile.Result, want map[string]int) {
	t.Helper()
	if got := tiers(res); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s served its windows %v, want %v", what, got, want)
	}
}

// TestOptimizeCachedBitIdentical is the key correctness property of the
// whole subsystem: a run served (partly, then fully) from the cache is
// bit-identical to a cold run, and the repeated cell occupies one entry —
// the second copy never runs the optimizer.
func TestOptimizeCachedBitIdentical(t *testing.T) {
	p, ws, cfg := e2ePlan(t)
	ctx := context.Background()
	// Workers=1 makes the hit/miss split deterministic (no flight tier).
	cold, err := p.Optimize(ctx, ws, cfg, tile.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	store := mustOpen(t, Options{})
	warm, err := p.Optimize(ctx, ws, cfg, tile.Options{Workers: 1, Runner: NewRunner(store, nil, nil)})
	if err != nil {
		t.Fatal(err)
	}
	sameMasks(t, cold, warm)
	// The repeated cell costs one miss and one hit; two windows are empty.
	sameTiers(t, "first cached run", warm, map[string]int{tile.TierMiss: 1, tile.TierMem: 1, tile.TierEmpty: 2})
	if warm.Tiles[0] != warm.Tiles[3] {
		t.Fatal("SW and NE tiles did not share one cache entry")
	}
	// The repeated cell's cached bits equal what a cold optimization of
	// the second copy produced — the acceptance property, per tile.
	for i := range cold.Tiles[3].MaskGray.Data {
		if cold.Tiles[3].MaskGray.Data[i] != warm.Tiles[3].MaskGray.Data[i] {
			t.Fatalf("cached NE tile differs from its cold optimization at pixel %d", i)
		}
	}

	// Fully warm: every non-empty tile is a hit, nothing recomputes.
	warm2, err := p.Optimize(ctx, ws, cfg, tile.Options{Workers: 1, Runner: NewRunner(store, nil, nil)})
	if err != nil {
		t.Fatal(err)
	}
	sameMasks(t, cold, warm2)
	sameTiers(t, "fully warm run", warm2, map[string]int{tile.TierMem: 2, tile.TierEmpty: 2})
}

// TestOptimizeCachePersistsAcrossStores is the durable tier through the
// real pipeline: a second process (a fresh Store over the same directory)
// serves the whole layout from disk, bit-identically.
func TestOptimizeCachePersistsAcrossStores(t *testing.T) {
	p, ws, cfg := e2ePlan(t)
	ctx := context.Background()
	dir := t.TempDir()

	s1 := mustOpen(t, Options{Dir: dir})
	first, err := p.Optimize(ctx, ws, cfg, tile.Options{Workers: 1, Runner: NewRunner(s1, nil, nil)})
	if err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, Options{Dir: dir})
	second, err := p.Optimize(ctx, ws, cfg, tile.Options{Workers: 1, Runner: NewRunner(s2, nil, nil)})
	if err != nil {
		t.Fatal(err)
	}
	sameMasks(t, first, second)
	// The repeated cell is read off disk once, then served from memory.
	sameTiers(t, "restarted store", second, map[string]int{tile.TierDisk: 1, tile.TierMem: 1, tile.TierEmpty: 2})
}

// TestCachedRunTakesNoCore: the compute-pool reservation is taken where a
// tile computes (tile.RunWindow), so a run served whole from the cache
// finishes while every core is reserved by other work — a hit job never
// queues behind another job's running tile.
func TestCachedRunTakesNoCore(t *testing.T) {
	p, ws, cfg := e2ePlan(t)
	store := mustOpen(t, Options{})
	cold, err := p.Optimize(context.Background(), ws, cfg, tile.Options{Runner: NewRunner(store, nil, nil)})
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < par.Capacity(); i++ {
		res, err := par.Reserve(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		defer res.Release()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	warm, err := p.Optimize(ctx, ws, cfg, tile.Options{Runner: NewRunner(store, nil, nil)})
	if err != nil {
		t.Fatalf("all-hit run with the pool saturated: %v", err)
	}
	sameMasks(t, cold, warm)

	// A miss does wait for a core.
	ctx, cancel = context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := p.Optimize(ctx, ws, cfg, tile.Options{Runner: NewRunner(mustOpen(t, Options{}), nil, nil)}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cold run with the pool saturated: %v, want it to wait for a reservation", err)
	}
}
