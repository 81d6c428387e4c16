package cache

import (
	"context"

	"mosaic/internal/ilt"
	"mosaic/internal/obs"
	"mosaic/internal/tile"
	"mosaic/internal/warmstart"
)

// Runner is the one policy that decides how a window runs: served from
// the tile cache, computed seeded from the warm-start library, or
// computed cold, and a computed result filed in the cache. The scheduler
// sees an ordinary tile.Runner, so stitching and the bit-identity
// guarantee are untouched, and it never hands a runner an empty window,
// so those are never cache or library traffic.
type Runner struct {
	store *Store
	lib   *warmstart.Library
	epoch int64
	inner tile.Runner
}

// NewRunner wraps inner with store and lib. A nil inner is the in-process
// tile.LocalRunner, the scheduler's default; a nil store computes every
// window uncached, and a nil lib never seeds one. The library epoch is
// captured here, once per run: entries harvested while this runner is in
// flight stay invisible to it, keeping a run against an initially-empty
// library bit-identical to a disabled one.
func NewRunner(store *Store, lib *warmstart.Library, inner tile.Runner) *Runner {
	if inner == nil {
		inner = tile.LocalRunner{}
	}
	return &Runner{store: store, lib: lib, epoch: lib.Epoch(), inner: inner}
}

// RunTile serves one window. A window the store holds under the key of
// the request as it arrives is returned from there, and never reaches
// the library: an exact repeat is a lookup, not a descent seeded from its
// own harvest into a key nothing was stored under. Any other window may
// be seeded, which changes its key, so seeded and unseeded runs of one
// window are distinct entries; it is computed by inner (or joins a
// concurrent computation of its key), filed, and harvested back into the
// library.
func (r *Runner) RunTile(ctx context.Context, req *tile.Request) (*ilt.Result, error) {
	var key Key
	if r.store != nil {
		key = RequestKey(req)
		if res, tier, ok := r.store.Lookup(key); ok {
			attribute(ctx, req, key, tier)
			return res, nil
		}
	}
	run := req
	cfg, att := r.lib.Prepare(r.epoch, req.Cfg, req.Sim, req.Plan.WindowPx, req.Plan.PixelNM, req.Tile.Layout)
	if att != nil && att.SeedKey != "" {
		seeded := *req
		seeded.Cfg = cfg
		run = &seeded
		if r.store != nil {
			key = requestKey(run, att.SeedDigest)
		}
	}
	var res *ilt.Result
	var err error
	if r.store == nil {
		res, err = r.inner.RunTile(ctx, run)
	} else {
		var tier string
		res, tier, err = r.store.GetOrCompute(ctx, key, func() (*ilt.Result, error) {
			return r.inner.RunTile(ctx, run)
		})
		if err == nil {
			attribute(ctx, req, key, tier)
		}
	}
	if err != nil {
		return nil, err
	}
	if att != nil {
		state := "miss"
		if att.SeedKey != "" {
			state = "fallback"
			if res.Seeded {
				state = "seeded"
				if req.Prov != nil {
					req.Prov.Seed = att.SeedKey
				}
			}
		}
		obs.CurrentSpan(ctx).SetAttrs(obs.String("tile.warmstart", state))
		att.Finish(res)
	}
	return res, nil
}

// attribute records how the store served a window: the span's tile.cache
// attribute and, when the request carries provenance, the serving tier
// and the content key, so the artifact store can cross-link the anchored
// leaf to its cache entry.
func attribute(ctx context.Context, req *tile.Request, key Key, tier string) {
	obs.CurrentSpan(ctx).SetAttrs(obs.String("tile.cache", tier))
	if req.Prov != nil {
		req.Prov.Tier = tier
		req.Prov.Key = key.String()
	}
}
