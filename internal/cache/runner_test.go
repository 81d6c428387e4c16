package cache

import (
	"context"
	"sync/atomic"
	"testing"

	"mosaic/internal/geom"
	"mosaic/internal/grid"
	"mosaic/internal/ilt"
	"mosaic/internal/optics"
	"mosaic/internal/resist"
	"mosaic/internal/sim"
	"mosaic/internal/tile"
)

// countingRunner is a fake inner runner standing in for the local one:
// every call counted.
type countingRunner struct {
	calls atomic.Int64
	res   *ilt.Result
}

func (c *countingRunner) RunTile(ctx context.Context, req *tile.Request) (*ilt.Result, error) {
	c.calls.Add(1)
	return c.res, nil
}

func TestRunnerServesRepeatsFromCache(t *testing.T) {
	inner := &countingRunner{res: fakeResult(8, 1)}
	r := NewRunner(mustOpen(t, Options{}), inner)
	bg := context.Background()

	a := digestReq(nil)
	// Same content at a different layout position: Name and plan
	// coordinates differ, the window-local inputs do not.
	b := digestReq(func(q *tile.Request) {
		q.Tile.Layout.Name = "layout_t5x5"
		q.Tile.Index, q.Tile.Col, q.Tile.Row = 30, 5, 5
	})
	// Genuinely different geometry.
	c := digestReq(func(q *tile.Request) { q.Tile.Layout.Polys[0][0].X += 16 })

	resA, err := r.RunTile(bg, a)
	if err != nil {
		t.Fatal(err)
	}
	resB, err := r.RunTile(bg, b)
	if err != nil {
		t.Fatal(err)
	}
	if resA != resB {
		t.Fatal("translation-shifted repeat not served from the cache")
	}
	if got := inner.calls.Load(); got != 1 {
		t.Fatalf("inner runner ran %d times for one unique tile, want 1", got)
	}
	if _, err := r.RunTile(bg, c); err != nil {
		t.Fatal(err)
	}
	if got := inner.calls.Load(); got != 2 {
		t.Fatalf("inner runner ran %d times for two unique tiles, want 2", got)
	}
}

// TestRunnerEmptyWindowBypassesCache: windows with no geometry are the
// scheduler's short-circuit, not cache traffic — no lookup, no entry, no
// hit-rate inflation on sparse layouts. The scheduler never hands them to
// the runner, so the e2e plan's two empty windows leave the store with
// exactly its two non-empty windows' traffic.
func TestRunnerEmptyWindowBypassesCache(t *testing.T) {
	p, ws, cfg := e2ePlan(t)
	store := mustOpen(t, Options{})
	res, err := p.Optimize(context.Background(), ws, cfg, tile.Options{Workers: 1, Runner: NewRunner(store, nil)})
	if err != nil {
		t.Fatal(err)
	}
	if n := tiers(res); n[tile.TierMiss] != 1 || n[tile.TierEmpty] != 2 || n[tile.TierMem]+n[tile.TierFlight] != 1 {
		t.Fatalf("windows served %v: want the repeated cell computed once and the two empty windows not looked up", n)
	}
	for i, pv := range res.Prov {
		if empty := len(p.Tiles[i].Layout.Polys) == 0; empty != (pv.Tier == tile.TierEmpty) || (empty && pv.Key != "") {
			t.Fatalf("tile %d (empty %v) attributed %+v", i, empty, pv)
		}
	}
}

// TestRunnerNilStorePassThrough: a disabled cache is a transparent
// decorator.
func TestRunnerNilStorePassThrough(t *testing.T) {
	inner := &countingRunner{res: fakeResult(8, 3)}
	r := NewRunner(nil, inner)
	req := digestReq(nil)
	for i := 0; i < 2; i++ {
		res, err := r.RunTile(context.Background(), req)
		if err != nil || res != inner.res {
			t.Fatalf("pass-through call %d: res=%p err=%v", i, res, err)
		}
	}
	if got := inner.calls.Load(); got != 2 {
		t.Fatalf("nil store cached anyway: %d inner calls, want 2", got)
	}
}

// TestRunnerNilInnerRunsWindow: with no inner runner the decorator falls
// back to tile.RunWindow; for an empty window that is the shared all-dark
// mask, needing no forward model at all.
func TestRunnerNilInnerRunsWindow(t *testing.T) {
	r := NewRunner(mustOpen(t, Options{}), nil)
	req := &tile.Request{
		Plan: &tile.Plan{WindowPx: 16, PixelNM: 8},
		Tile: &tile.Tile{Layout: &geom.Layout{Name: "empty", SizeNM: 128}},
		Sim:  &sim.Simulator{Cfg: optics.Default(), Resist: resist.Default()},
		Cfg:  ilt.DefaultConfig(ilt.ModeFast),
	}
	res, err := r.RunTile(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mask == nil || res.Mask.W != 16 {
		t.Fatalf("empty window result: %+v", res)
	}
	for _, v := range res.Mask.Data {
		if v != 0 {
			t.Fatal("empty window produced a non-dark mask")
		}
	}
}

// TestUnseededMissIsKeyedOnce: on a miss the lookup hands its key to the
// cache runner on the request, and the runner files the result under that
// key without hashing the request again — a key planted on the request is
// where the result goes — unless a seed was attached after the lookup,
// which changes the key and is hashed anew.
func TestUnseededMissIsKeyedOnce(t *testing.T) {
	inner := &countingRunner{res: fakeResult(8, 1)}
	store := mustOpen(t, Options{})
	bg := context.Background()

	req := digestReq(nil)
	want := RequestKey(req)
	if _, err := NewLookupRunner(store, NewRunner(store, inner)).RunTile(bg, req); err != nil {
		t.Fatal(err)
	}
	if req.Key != want {
		t.Fatalf("the lookup left Key %x on the request, want its RequestKey %s", req.Key, want)
	}
	if _, _, ok := store.Lookup(want); !ok {
		t.Fatal("the miss was not filed under its unseeded key")
	}

	for _, seeded := range []bool{false, true} {
		planted := Key{1}
		if seeded {
			planted = Key{2}
		}
		q := digestReq(func(q *tile.Request) {
			q.Tile.Layout.Polys[0][0].X += 16
			q.Key = planted
			if seeded {
				q.Cfg.SeedMask = grid.New(64, 64)
			}
		})
		if _, err := NewRunner(store, inner).RunTile(bg, q); err != nil {
			t.Fatal(err)
		}
		_, _, underPlanted := store.Lookup(planted)
		_, _, underHashed := store.Lookup(RequestKey(q))
		if underPlanted == seeded || underHashed != seeded {
			t.Fatalf("seeded=%v: filed under the carried key %v, under a fresh hash %v", seeded, underPlanted, underHashed)
		}
	}
	if got := inner.calls.Load(); got != 3 {
		t.Fatalf("inner runner ran %d times for three misses, want 3", got)
	}
}
