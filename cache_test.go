package mosaic

import (
	"context"
	"path/filepath"
	"testing"
)

// cacheLayout is a 1024 nm tiled workload for the façade cache tests: the
// small two-bar clip in every quadrant, so a 512 nm tiling yields four
// non-empty windows.
func cacheLayout() *Layout {
	l := &Layout{Name: "cache-test", SizeNM: 1024}
	for _, off := range []Point{{X: 0, Y: 0}, {X: 512, Y: 0}, {X: 0, Y: 512}, {X: 512, Y: 512}} {
		for _, p := range smallLayout().Polys {
			q := make(Polygon, len(p))
			for i, v := range p {
				q[i] = Point{X: v.X + off.X, Y: v.Y + off.Y}
			}
			l.Polys = append(l.Polys, q)
		}
	}
	return l
}

// tierCounts tallies how a run's tiles were served, from its provenance.
func tierCounts(res *LayoutResult) map[string]int {
	n := map[string]int{}
	for _, pv := range res.Provenance {
		n[pv.Tier]++
	}
	return n
}

// TestOptimizeLayoutTileCache drives the whole façade path: a Setup with
// TileOptions.Cache and a disk directory must serve a repeated run
// entirely from the cache, bit-identically, and persist entries a fresh
// store can read back.
func TestOptimizeLayoutTileCache(t *testing.T) {
	s, err := NewSetup(smallOptics())
	if err != nil {
		t.Fatal(err)
	}
	layout := cacheLayout()
	cfg := DefaultConfig(ModeFast)
	cfg.MaxIter = 4
	// The gradient keeps DefaultConfig's kernel count: the cold == cached
	// identity is checked on the paper's multi-kernel adjoint, the setting
	// a single-kernel test cannot see a chunk-order bug in.
	cfg.SRAFInit = false

	dir := t.TempDir()
	store, err := OpenTileCache(dir, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	topts := TileOptions{TileNM: 512, Workers: 1, Cache: store}

	ctx := context.Background()
	cold, err := s.OptimizeLayout(ctx, cfg, layout, topts)
	if err != nil {
		t.Fatal(err)
	}
	if !cold.Tiled || len(cold.Tiles) != 4 {
		t.Fatalf("expected a 4-tile run, got tiled=%v tiles=%d", cold.Tiled, len(cold.Tiles))
	}
	if n := tierCounts(cold); n["miss"] == 0 {
		t.Fatalf("cold run served its tiles %v: nothing entered the cache", n)
	}

	warm, err := s.OptimizeLayout(ctx, cfg, layout, topts)
	if err != nil {
		t.Fatal(err)
	}
	if n := tierCounts(warm); n["mem"] != 4 {
		t.Fatalf("warm run served its tiles %v: want every non-empty tile from the memory tier", n)
	}
	for i := range cold.Mask.Data {
		if cold.Mask.Data[i] != warm.Mask.Data[i] {
			t.Fatalf("cached run differs from cold run at pixel %d", i)
		}
	}
	for i := range cold.MaskGray.Data {
		if cold.MaskGray.Data[i] != warm.MaskGray.Data[i] {
			t.Fatalf("cached continuous mask differs from cold run at pixel %d", i)
		}
	}

	// The durable tier: a fresh store over the same directory serves the
	// run without a single recompute — the mosaicd restart scenario.
	store2, err := OpenTileCache(dir, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	topts.Cache = store2
	again, err := s.OptimizeLayout(ctx, cfg, layout, topts)
	if err != nil {
		t.Fatal(err)
	}
	if n := tierCounts(again); n["miss"] != 0 || n["disk"] == 0 {
		t.Fatalf("restarted-store run served its tiles %v: want everything off disk", n)
	}
	for i := range cold.Mask.Data {
		if cold.Mask.Data[i] != again.Mask.Data[i] {
			t.Fatalf("disk-served run differs from cold run at pixel %d", i)
		}
	}
	if entries, err := filepath.Glob(filepath.Join(dir, "*", "*.mtc")); err != nil || len(entries) == 0 {
		t.Fatalf("no durable entries under %s (%v)", dir, err)
	}
}

// TestOpenTileCacheDisabled pins the façade's off switch: a nil cache in
// TileOptions is simply not consulted.
func TestOpenTileCacheNilIsOff(t *testing.T) {
	s, err := NewSetup(smallOptics())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(ModeFast)
	cfg.MaxIter = 2
	cfg.GradKernels = 1
	cfg.SRAFInit = false
	res, err := s.OptimizeLayout(context.Background(), cfg, cacheLayout(), TileOptions{TileNM: 512, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Tiled {
		t.Fatal("expected a tiled run")
	}
}
