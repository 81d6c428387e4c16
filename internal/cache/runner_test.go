package cache

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"mosaic/internal/geom"
	"mosaic/internal/ilt"
	"mosaic/internal/obs"
	"mosaic/internal/optics"
	"mosaic/internal/resist"
	"mosaic/internal/sim"
	"mosaic/internal/tile"
	"mosaic/internal/warmstart"
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
	r := NewRunner(mustOpen(t, Options{}), nil, inner)
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
	res, err := p.Optimize(context.Background(), ws, cfg, tile.Options{Workers: 1, Runner: NewRunner(store, nil, nil)})
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

// TestRunnerNilStorePassThrough: with no store and no library the runner
// is transparent.
func TestRunnerNilStorePassThrough(t *testing.T) {
	inner := &countingRunner{res: fakeResult(8, 3)}
	r := NewRunner(nil, nil, inner)
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

// TestRunnerNilInnerRunsWindow: with no inner runner the runner falls
// back to tile.RunWindow; for an empty window that is the shared all-dark
// mask, needing no forward model at all.
func TestRunnerNilInnerRunsWindow(t *testing.T) {
	r := NewRunner(mustOpen(t, Options{}), nil, nil)
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

// recordingRunner is a fake inner runner that keeps every request it is
// handed and returns a window-sized result, seeded exactly when the
// request is.
type recordingRunner struct {
	mu     sync.Mutex
	handed []tile.Request
}

func (r *recordingRunner) RunTile(ctx context.Context, req *tile.Request) (*ilt.Result, error) {
	r.mu.Lock()
	r.handed = append(r.handed, *req)
	r.mu.Unlock()
	res := fakeResult(req.Plan.WindowPx, 1)
	res.Seeded = req.Cfg.SeedMask != nil
	return res, nil
}

// TestRunnerPolicy is the window policy as a table over {store, nil} x
// {library, nil} x {an entry under the window's unseeded key, a library
// hit, a library miss}. An entry is served before the library is asked
// (no lookup, no harvest, no inner call); any other window is seeded when
// the library holds a near pattern, computed by inner, filed under the
// key of the request inner was handed (a seeded result under its seeded
// key only) and harvested. A nil store serves and files nothing, and a
// nil library seeds nothing. The caller's request is never seeded.
func TestRunnerPolicy(t *testing.T) {
	lookups := obs.NewCounter("warmstart_lookups_total")
	harvested := obs.NewCounter("warmstart_harvested_total")
	bg := context.Background()
	for _, withStore := range []bool{true, false} {
		for _, withLib := range []bool{true, false} {
			for _, state := range []string{"entry", "library-hit", "library-miss"} {
				name := fmt.Sprintf("store=%v/library=%v/%s", withStore, withLib, state)
				t.Run(name, func(t *testing.T) {
					req := digestReq(nil)
					var store *Store
					var stored *ilt.Result
					if withStore {
						store = mustOpen(t, Options{})
						if state == "entry" {
							stored = fakeResult(64, 9)
							store.Put(RequestKey(req), stored)
						}
					}
					var lib *warmstart.Library
					seedKey := ""
					if withLib {
						var err error
						if lib, err = warmstart.Open(warmstart.Options{Dir: t.TempDir(), Harvest: true}); err != nil {
							t.Fatal(err)
						}
						if state != "library-miss" {
							seedKey = plantNearPattern(t, lib, req)
						}
					}
					served := withStore && state == "entry"
					seeded := !served && seedKey != ""
					wantCalls, wantAsked := 1, int64(0)
					if served {
						wantCalls = 0
					} else if withLib {
						wantAsked = 1
					}
					wantTier, wantSeed := "", ""
					if withStore {
						wantTier = tile.TierMiss
					}
					if served {
						wantTier = tile.TierMem
					}
					if seeded {
						wantSeed = seedKey
					}

					inner := &recordingRunner{}
					lookups0, harvested0 := lookups.Value(), harvested.Value()
					var prov tile.Provenance
					req.Prov = &prov
					res, err := NewRunner(store, lib, inner).RunTile(bg, req)
					if err != nil {
						t.Fatal(err)
					}

					if len(inner.handed) != wantCalls {
						t.Fatalf("inner ran %d times, want %d", len(inner.handed), wantCalls)
					}
					if served && res != stored {
						t.Fatal("the entry under the unseeded key was not what was served")
					}
					if !served && (inner.handed[0].Cfg.SeedMask != nil) != seeded {
						t.Fatalf("inner was handed a seed: %v, want %v", !seeded, seeded)
					}
					if req.Cfg.SeedMask != nil {
						t.Fatal("the caller's request was seeded")
					}
					if prov.Tier != wantTier || prov.Seed != wantSeed {
						t.Errorf("provenance tier %q seed %q, want %q and %q", prov.Tier, prov.Seed, wantTier, wantSeed)
					}
					if got := lookups.Value() - lookups0; got != wantAsked {
						t.Errorf("library looked up %d times, want %d", got, wantAsked)
					}
					if got := harvested.Value() - harvested0; got != wantAsked {
						t.Errorf("library harvested %d windows, want %d", got, wantAsked)
					}
					if !withStore {
						if prov.Key != "" {
							t.Errorf("no store, but Prov.Key %q", prov.Key)
						}
						return
					}
					// The key of the request inner ran, seeded or not, or
					// of the unseeded request an entry was served under.
					filed := req
					if !served {
						filed = &inner.handed[0]
					}
					if prov.Key != RequestKey(filed).String() {
						t.Errorf("Prov.Key %q, want %s", prov.Key, RequestKey(filed))
					}
					if _, _, ok := store.Lookup(RequestKey(filed)); !ok {
						t.Error("the result is not filed under the key of the request inner ran")
					}
					if _, _, ok := store.Lookup(RequestKey(req)); ok == seeded {
						t.Errorf("result seeded %v: filed under the unseeded key %v", seeded, ok)
					}
				})
			}
		}
	}
}

// plantNearPattern harvests into lib a pattern near req's window but not
// the same (its second rect one pixel shorter), so that req is seeded
// from it and its own harvest is a new entry, and returns the entry's key.
func plantNearPattern(t *testing.T, lib *warmstart.Library, req *tile.Request) string {
	t.Helper()
	near := digestReq(func(q *tile.Request) { q.Tile.Layout.Polys[1] = geom.Rect{X: 312, Y: 144, W: 56, H: 216}.Polygon() })
	_, att := lib.Prepare(lib.Epoch(), near.Cfg, near.Sim, 64, 8, near.Tile.Layout)
	att.Finish(fakeResult(64, 2))
	_, probe := lib.Prepare(lib.Epoch(), req.Cfg, req.Sim, 64, 8, req.Tile.Layout)
	if probe == nil || probe.SeedKey == "" {
		t.Fatal("the planted pattern is not near enough to seed the window")
	}
	return probe.SeedKey
}
