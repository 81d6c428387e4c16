package mosaic

import (
	"context"
	"reflect"
	"testing"

	"mosaic/internal/cache"
	"mosaic/internal/obs"
	"mosaic/internal/tile"
)

// warmCfg is the shared optimizer configuration for the warm-start façade
// tests: single-kernel gradients and no SRAF seeding keep runs cheap.
func warmCfg(maxIter int) Config {
	cfg := DefaultConfig(ModeFast)
	cfg.MaxIter = maxIter
	cfg.GradKernels = 1
	cfg.SRAFInit = false
	return cfg
}

// translated returns layout with every polygon shifted by (dx, dy) nm.
func translated(l *Layout, dx, dy float64) *Layout {
	out := &Layout{Name: l.Name + "-shifted", SizeNM: l.SizeNM}
	for _, p := range l.Polys {
		q := make(Polygon, len(p))
		for i, v := range p {
			q[i] = Point{X: v.X + dx, Y: v.Y + dy}
		}
		out.Polys = append(out.Polys, q)
	}
	return out
}

// TestWarmStartEmptyLibraryBitIdentical pins the subsystem's safety
// property: a run against an empty library — even one that harvests as it
// goes — is bit-identical to a run with warm-start disabled.
func TestWarmStartEmptyLibraryBitIdentical(t *testing.T) {
	s, err := NewSetup(smallOptics())
	if err != nil {
		t.Fatal(err)
	}
	cfg := warmCfg(6)
	layout := smallLayout()
	ctx := context.Background()

	base, err := s.OptimizeLayout(ctx, cfg, layout, TileOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	lib, err := OpenWarmStartLibrary(t.TempDir(), 0, true)
	if err != nil {
		t.Fatal(err)
	}
	lookups, hits, harvested := libCounter("lookups"), libCounter("hits"), libCounter("harvested")
	empty, err := s.OptimizeLayout(ctx, cfg, layout, TileOptions{Workers: 1, WarmStart: lib})
	if err != nil {
		t.Fatal(err)
	}
	for i := range base.MaskGray.Data {
		if base.MaskGray.Data[i] != empty.MaskGray.Data[i] {
			t.Fatalf("empty-library run differs from disabled at pixel %d", i)
		}
	}
	if base.Iterations != empty.Iterations {
		t.Fatalf("empty-library run took %d iterations, disabled took %d", empty.Iterations, base.Iterations)
	}
	lookups, hits, harvested = libCounter("lookups")-lookups, libCounter("hits")-hits, libCounter("harvested")-harvested
	if hits != 0 || harvested != 1 || lookups != 1 {
		t.Fatalf("empty-library run: %d lookups, %d hits, %d harvests; want 1, 0, 1", lookups, hits, harvested)
	}
	if empty.Provenance[0].Seed != "" {
		t.Fatalf("unseeded run carries seed provenance %q", empty.Provenance[0].Seed)
	}
}

// TestWarmStartIterationCut pins the subsystem's payoff on its target
// workload — a repeated cell with placement jitter, the six pixel-aligned
// placements BenchmarkWarmStartSeeded cycles through: every placement must
// be seeded from the library, score no worse than its own cold run, and the
// iterations spent, summed over the placements, are pinned cold and seeded.
// The counts are bit-deterministic on a build, so the slack (one iteration a
// placement) is for platforms, not for noise: a move means the optimizer or
// the seeding changed, which is when someone should look.
func TestWarmStartIterationCut(t *testing.T) {
	const wantCold, wantSeeded = 72, 42
	jitters := [][2]float64{{8, 0}, {0, 8}, {8, 8}, {16, 8}, {8, 16}, {24, 0}}

	s, err := NewSetup(smallOptics())
	if err != nil {
		t.Fatal(err)
	}
	cfg := warmCfg(12)
	ctx := context.Background()
	lib, err := OpenWarmStartLibrary(t.TempDir(), 0, true)
	if err != nil {
		t.Fatal(err)
	}
	// Prime the library with the cell's converged mask.
	if _, err := s.OptimizeLayout(ctx, cfg, smallLayout(), TileOptions{Workers: 1, WarmStart: lib}); err != nil {
		t.Fatal(err)
	}

	coldIters, seededIters := 0, 0
	for _, j := range jitters {
		// The same cell a few pixels away: a translated repeat, the common
		// case in a real layout.
		jittered := translated(smallLayout(), j[0], j[1])
		cold, err := s.OptimizeLayout(ctx, cfg, jittered, TileOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		hits := libCounter("hits")
		warm, err := s.OptimizeLayout(ctx, cfg, jittered, TileOptions{Workers: 1, WarmStart: lib})
		if err != nil {
			t.Fatal(err)
		}
		if hits = libCounter("hits") - hits; hits != 1 || warm.Provenance[0].Seed == "" {
			t.Fatalf("jitter %v: translated repeat was not seeded: %d library hits, provenance %+v", j, hits, warm.Provenance[0])
		}
		coldIters += cold.Iterations
		seededIters += warm.Iterations

		coldRep, err := s.Evaluate(cold.Mask, jittered, 0)
		if err != nil {
			t.Fatal(err)
		}
		warmRep, err := s.Evaluate(warm.Mask, jittered, 0)
		if err != nil {
			t.Fatal(err)
		}
		if warmRep.Score > coldRep.Score {
			t.Errorf("jitter %v: seeded run scored %.0f, worse than cold %.0f", j, warmRep.Score, coldRep.Score)
		}
		if warmRep.EPEViolations > coldRep.EPEViolations {
			t.Errorf("jitter %v: seeded run has %d EPE violations, cold has %d", j, warmRep.EPEViolations, coldRep.EPEViolations)
		}
	}
	t.Logf("iterations over %d placements: cold %d, seeded %d", len(jitters), coldIters, seededIters)
	slack := len(jitters)
	if d := coldIters - wantCold; d < -slack || d > slack {
		t.Errorf("cold runs took %d iterations, pinned at %d±%d", coldIters, wantCold, slack)
	}
	if d := seededIters - wantSeeded; d < -slack || d > slack {
		t.Errorf("seeded runs took %d iterations, pinned at %d±%d", seededIters, wantSeeded, slack)
	}
}

// TestWarmStartTiled drives the library through the tiled scheduler path
// (cache.Runner seeding each window it runs): a second run over a
// repeated-cell layout must seed every window from the first run's
// harvest and never score worse.
func TestWarmStartTiled(t *testing.T) {
	s, err := NewSetup(smallOptics())
	if err != nil {
		t.Fatal(err)
	}
	cfg := warmCfg(6)
	layout := cacheLayout()
	ctx := context.Background()
	lib, err := OpenWarmStartLibrary(t.TempDir(), 0, true)
	if err != nil {
		t.Fatal(err)
	}
	topts := TileOptions{TileNM: 512, Workers: 1, WarmStart: lib}

	hits, harvested := libCounter("hits"), libCounter("harvested")
	cold, err := s.OptimizeLayout(ctx, cfg, layout, topts)
	if err != nil {
		t.Fatal(err)
	}
	if !cold.Tiled || len(cold.Tiles) != 4 {
		t.Fatalf("expected a 4-tile run, got tiled=%v tiles=%d", cold.Tiled, len(cold.Tiles))
	}
	// The epoch is captured at run start: in-run harvests are invisible,
	// so the first run is all misses even where windows repeat.
	if hits, harvested = libCounter("hits")-hits, libCounter("harvested")-harvested; hits != 0 || harvested == 0 {
		t.Fatalf("cold tiled run: %d library hits, %d harvests; want misses only, with harvests", hits, harvested)
	}

	hits = libCounter("hits")
	warm, err := s.OptimizeLayout(ctx, cfg, layout, topts)
	if err != nil {
		t.Fatal(err)
	}
	if hits = libCounter("hits") - hits; hits != 4 {
		t.Fatalf("second tiled run: %d library hits, want every window seeded (4)", hits)
	}
	seeded := 0
	for _, p := range warm.Provenance {
		if p.Seed != "" {
			seeded++
		}
	}
	if seeded != 4 {
		t.Fatalf("%d of 4 tiles carry seed provenance", seeded)
	}
	if warm.Iterations > cold.Iterations {
		t.Fatalf("seeded tiled run took %d iterations, cold took %d", warm.Iterations, cold.Iterations)
	}

	coldRep, err := s.EvaluateLayout(cold.Mask, layout, topts, 0)
	if err != nil {
		t.Fatal(err)
	}
	warmRep, err := s.EvaluateLayout(warm.Mask, layout, topts, 0)
	if err != nil {
		t.Fatal(err)
	}
	if warmRep.Score > coldRep.Score {
		t.Fatalf("seeded tiled run scored %.0f, worse than cold %.0f", warmRep.Score, coldRep.Score)
	}
}

// TestAnchoredLeavesAreTheTileProvenance: a leaf of the anchored record is
// the attribution the scheduler reported for that tile — one record, not a
// copy of some of its fields (the copy dropped the warm-start seed) — and
// it is what a reopened store replays from anchors.log.
func TestAnchoredLeavesAreTheTileProvenance(t *testing.T) {
	s, err := NewSetup(smallOptics())
	if err != nil {
		t.Fatal(err)
	}
	cfg := warmCfg(6)
	layout := cacheLayout()
	ctx := context.Background()
	lib, err := OpenWarmStartLibrary(t.TempDir(), 0, true)
	if err != nil {
		t.Fatal(err)
	}
	// Prime the library: the next run's windows are all seeded from it.
	if _, err := s.OptimizeLayout(ctx, cfg, layout, TileOptions{TileNM: 512, Workers: 1, WarmStart: lib}); err != nil {
		t.Fatal(err)
	}
	tiles, err := OpenTileCache("", 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	artDir := t.TempDir()
	art, err := OpenArtifactStore(artDir)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.OptimizeLayout(ctx, cfg, layout, TileOptions{TileNM: 512, Workers: 1, WarmStart: lib, Cache: tiles, Artifact: art})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Artifact.Leaves) != 4 || len(res.Provenance) != 4 {
		t.Fatalf("%d leaves, %d provenance records; want 4 of each", len(res.Artifact.Leaves), len(res.Provenance))
	}
	for i, leaf := range res.Artifact.Leaves {
		p := res.Provenance[i]
		if p.Seed == "" || p.Key == "" || p.Tier != "miss" {
			t.Fatalf("tile %d: provenance %+v, want a seeded cache miss with its key", i, p)
		}
		if leaf.Index != i || leaf.Provenance != p {
			t.Errorf("leaf %d carries %+v, the run reported %+v", leaf.Index, leaf.Provenance, p)
		}
	}
	if err := art.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenArtifactStore(artDir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	rec, ok := reopened.Resolve(res.Artifact.Root)
	if !ok || !reflect.DeepEqual(rec.Leaves, res.Artifact.Leaves) {
		t.Fatalf("replayed leaves %+v, anchored %+v", rec, res.Artifact.Leaves)
	}
}

// TestWarmStartRejectedSeedRunsCold: a seed the optimizer's probe rejects
// leaves the run the cold run — no seed provenance, one fallback counted,
// every gray pixel and the iteration count equal. The library's only entry
// for the window is an all-open mask, which lights the whole window and so
// probes worse than the default init, and the budget is long enough for the
// descent to plateau: a rejected seed that still carried the seeded run's
// plateau stop ended such a run early, on another mask.
func TestWarmStartRejectedSeedRunsCold(t *testing.T) {
	s, err := NewSetup(smallOptics())
	if err != nil {
		t.Fatal(err)
	}
	cfg := warmCfg(20)
	layout := smallLayout()
	ctx := context.Background()
	cold, err := s.OptimizeLayout(ctx, cfg, layout, TileOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	lib, err := OpenWarmStartLibrary(t.TempDir(), 0, true)
	if err != nil {
		t.Fatal(err)
	}
	n := s.Sim.Cfg.GridSize
	_, att := lib.Prepare(lib.Epoch(), cfg, s.Sim, n, s.Sim.Cfg.PixelNM, layout)
	if att == nil {
		t.Fatal("the window was not looked up")
	}
	open := &Field{W: n, H: n, Data: make([]float64, n*n)}
	for i := range open.Data {
		open.Data[i] = 1
	}
	att.Finish(&Result{MaskGray: open})

	fallbacks := obs.NewCounter("warmstart_fallbacks_total")
	before, hits := fallbacks.Value(), libCounter("hits")
	res, err := s.OptimizeLayout(ctx, cfg, layout, TileOptions{Workers: 1, WarmStart: lib})
	if err != nil {
		t.Fatal(err)
	}
	if hits = libCounter("hits") - hits; hits != 1 {
		t.Fatalf("the all-open entry was not retrieved: %d library hits, want 1", hits)
	}
	if res.Provenance[0].Seed != "" {
		t.Fatalf("rejected seed left provenance %+v", res.Provenance[0])
	}
	if got := fallbacks.Value() - before; got != 1 {
		t.Fatalf("warmstart_fallbacks_total rose by %d, want 1", got)
	}
	if res.Iterations != cold.Iterations {
		t.Errorf("fallback run took %d iterations, cold %d", res.Iterations, cold.Iterations)
	}
	for i, v := range cold.MaskGray.Data {
		if res.MaskGray.Data[i] != v {
			t.Fatalf("fallback run differs from the cold run at pixel %d", i)
		}
	}
}

// libCounter reads the warm-start library's process-wide counter
// warmstart_<name>_total.
func libCounter(name string) int64 {
	return obs.NewCounter("warmstart_" + name + "_total").Value()
}

// cacheTraffic reads cache_hits_total + cache_misses_total.
func cacheTraffic() int64 {
	return obs.NewCounter("cache_hits_total").Value() + obs.NewCounter("cache_misses_total").Value()
}

// TestExactRepeatIsALookup: with a cache and a harvesting library, a second
// identical run computes no window and returns the first run's bits. Its
// windows are looked up under their unseeded keys before the library is
// consulted; seeded from their own harvest, they would miss and descend
// again. Either way each window counts once in the cache's traffic.
func TestExactRepeatIsALookup(t *testing.T) {
	s, err := NewSetup(smallOptics())
	if err != nil {
		t.Fatal(err)
	}
	cfg := warmCfg(6)
	layout := cacheLayout()
	ctx := context.Background()
	lib, err := OpenWarmStartLibrary(t.TempDir(), 0, true)
	if err != nil {
		t.Fatal(err)
	}
	store, err := OpenTileCache("", 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	topts := TileOptions{TileNM: 512, Workers: 1, Cache: store, WarmStart: lib}

	traffic := cacheTraffic()
	first, err := s.OptimizeLayout(ctx, cfg, layout, topts)
	if err != nil {
		t.Fatal(err)
	}
	if n := tierCounts(first); n["miss"] != 4 {
		t.Fatalf("first run served its windows %v, want 4 computed", n)
	}
	if got := cacheTraffic() - traffic; got != 4 {
		t.Fatalf("first run: cache hits + misses rose by %d, want one a window (4)", got)
	}

	traffic, lookups := cacheTraffic(), libCounter("lookups")
	again, err := s.OptimizeLayout(ctx, cfg, layout, topts)
	if err != nil {
		t.Fatal(err)
	}
	if n := tierCounts(again); n["mem"] != 4 {
		t.Fatalf("repeat served its windows %v, want all 4 from the memory tier", n)
	}
	if got := cacheTraffic() - traffic; got != 4 {
		t.Fatalf("repeat: cache hits + misses rose by %d, want one a window (4)", got)
	}
	if got := libCounter("lookups"); got != lookups {
		t.Fatalf("repeat consulted the library %d times, want none", got-lookups)
	}
	for i, p := range again.Provenance {
		if p.Seed != "" || p.Key != first.Provenance[i].Key {
			t.Fatalf("window %d: repeat provenance %+v, first run %+v", i, p, first.Provenance[i])
		}
	}
	if !again.MaskGray.Equal(first.MaskGray, 0) || !again.Mask.Equal(first.Mask, 0) {
		t.Fatal("repeat's mask differs from the first run's")
	}
}

// seedRecorder computes windows in-process and keeps the last request it
// was handed: the request as cache.Runner seeded it.
type seedRecorder struct{ last tile.Request }

func (r *seedRecorder) RunTile(ctx context.Context, req *tile.Request) (*Result, error) {
	r.last = *req
	return tile.LocalRunner{}.RunTile(ctx, req)
}

// TestNearRepeatIsStillSeeded: a translated repeat of a harvested cell
// misses the unseeded lookup and is seeded as before (provenance and the
// span's tile.warmstart attribute say so), counts once in the cache's
// traffic, and its result is stored under its seeded key only: the unseeded key of the same window still misses,
// so a cold request is never served a seeded mask.
func TestNearRepeatIsStillSeeded(t *testing.T) {
	s, err := NewSetup(smallOptics())
	if err != nil {
		t.Fatal(err)
	}
	cfg := warmCfg(6)
	ctx := context.Background()
	lib, err := OpenWarmStartLibrary(t.TempDir(), 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.OptimizeLayout(ctx, cfg, smallLayout(), TileOptions{Workers: 1, WarmStart: lib}); err != nil {
		t.Fatal(err)
	}
	store, err := OpenTileCache("", 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	rec := &seedRecorder{}
	buf := obs.NewSpanBuffer(0)
	traffic := cacheTraffic()
	res, err := s.OptimizeLayout(obs.ContextWithBuffer(ctx, buf), cfg, translated(smallLayout(), 8, 0),
		TileOptions{Workers: 1, Cache: store, WarmStart: lib, Runner: rec})
	if err != nil {
		t.Fatal(err)
	}
	if p := res.Provenance[0]; p.Seed == "" || p.Tier != tile.TierMiss {
		t.Fatalf("translated repeat: provenance %+v, want a seeded miss", p)
	}
	if got := cacheTraffic() - traffic; got != 1 {
		t.Fatalf("cache hits + misses rose by %d for one window looked up twice, want 1", got)
	}
	state := ""
	for _, ev := range buf.Events() {
		for _, a := range ev.Attrs {
			if ev.Name == "tile.optimize" && a.Key == "tile.warmstart" {
				state, _ = a.Value.(string)
			}
		}
	}
	if state != "seeded" {
		t.Fatalf("tile.optimize span reads tile.warmstart=%q, want seeded", state)
	}

	seeded := rec.last
	if seeded.Cfg.SeedMask == nil {
		t.Fatal("the runner was handed an unseeded request")
	}
	if _, _, ok := store.Lookup(cache.RequestKey(&seeded)); !ok {
		t.Fatal("the seeded result is not under its seeded key")
	}
	unseeded := seeded
	unseeded.Cfg.SeedMask = nil
	if _, tier, ok := store.Lookup(cache.RequestKey(&unseeded)); ok {
		t.Fatalf("the seeded result is also served under the window's unseeded key (tier %s)", tier)
	}
}
