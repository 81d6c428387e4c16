package tile

import (
	"context"
	"strings"
	"sync"
	"testing"

	"mosaic/internal/geom"
	"mosaic/internal/ilt"
)

// countingRunner records the tiles it is handed and runs them in-process.
type countingRunner struct {
	mu    sync.Mutex
	tiles []int
}

func (r *countingRunner) RunTile(ctx context.Context, req *Request) (*ilt.Result, error) {
	r.mu.Lock()
	r.tiles = append(r.tiles, req.Tile.Index)
	r.mu.Unlock()
	return LocalRunner{}.RunTile(ctx, req)
}

// TestEmptyWindowsBypassRunner: the scheduler decides emptiness once and
// routes an empty window to RunWindow itself, so the runner — a cache or a
// warm-start library — is only handed windows that hold
// geometry, each exactly once, and every empty window is attributed
// TierEmpty and counted under tile_empty_total.
func TestEmptyWindowsBypassRunner(t *testing.T) {
	l := &geom.Layout{Name: "sparse", SizeNM: 1024, Polys: []geom.Polygon{
		geom.Rect{X: 100, Y: 100, W: 160, H: 96}.Polygon(),
	}}
	p, err := NewPlan(l, 8, 512, DefaultHaloNM(testOptics(64)))
	if err != nil {
		t.Fatal(err)
	}
	empties := 0
	for i := range p.Tiles {
		if len(p.Tiles[i].Layout.Polys) == 0 {
			empties++
		}
	}
	if empties == 0 || empties == len(p.Tiles) {
		t.Fatalf("want a plan with empty and non-empty windows, got %d of %d empty", empties, len(p.Tiles))
	}
	ws := testSim(t, p.WindowPx)
	r := &countingRunner{}
	before := tileEmpty.Value()
	res, err := p.Optimize(context.Background(), ws, testConfig(), Options{Workers: 2, Runner: r})
	if err != nil {
		t.Fatal(err)
	}
	if got := tileEmpty.Value() - before; got != int64(empties) {
		t.Fatalf("tile_empty_total rose by %d, want %d", got, empties)
	}
	if len(r.tiles) != len(p.Tiles)-empties {
		t.Fatalf("runner handed tiles %v, want each of the %d non-empty windows once", r.tiles, len(p.Tiles)-empties)
	}
	for _, i := range r.tiles {
		if len(p.Tiles[i].Layout.Polys) == 0 {
			t.Fatalf("runner handed empty tile %d", i)
		}
	}
	for i, pv := range res.Prov {
		if empty := len(p.Tiles[i].Layout.Polys) == 0; empty != (pv.Tier == TierEmpty) {
			t.Fatalf("tile %d (empty %v) attributed tier %q", i, empty, pv.Tier)
		}
	}

	ref, err := p.Optimize(context.Background(), ws, testConfig(), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range ref.MaskGray.Data {
		if res.MaskGray.Data[i] != v {
			t.Fatal("a run through a runner differs from the default in-process run")
		}
	}
}

type panicRunner struct{}

func (panicRunner) RunTile(context.Context, *Request) (*ilt.Result, error) { panic("runner bug") }

// TestOptimizeTurnsRunnerPanicIntoTileError: the scheduler's goroutines
// have no caller to unwind into, so a panicking runner used to end the
// process; it is that tile's error.
func TestOptimizeTurnsRunnerPanicIntoTileError(t *testing.T) {
	p, err := NewPlan(testLayout(), 8, 512, DefaultHaloNM(testOptics(64)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Optimize(context.Background(), testSim(t, p.WindowPx), testConfig(), Options{Runner: panicRunner{}})
	if err == nil || res != nil || !strings.Contains(err.Error(), "panic: runner bug") {
		t.Fatalf("panicking runner returned (%v, %v), want an error naming the panic", res, err)
	}
}
