package warmstart

import (
	"context"

	"mosaic/internal/ilt"
	"mosaic/internal/obs"
	"mosaic/internal/tile"
)

// Runner wraps any tile.Runner with the warm-start library: before each
// window runs, the library is consulted for a near-identical past
// pattern and, on a hit, the request's optimizer config is seeded from
// the stored mask; after the window completes, its converged mask is
// harvested back. It composes outside the cache runner — the seed is
// attached before the cache computes its content key, so seeded and
// unseeded runs of one window occupy distinct cache entries — and inside
// cache.LookupRunner, so a window the cache already holds under its
// unseeded key is served from there and never seeded.
type Runner struct {
	lib   *Library
	inner tile.Runner
	epoch int64
}

// NewRunner wraps inner with lib. A nil inner is the in-process
// tile.LocalRunner, the scheduler's default; a nil lib passes requests
// through untouched. The library epoch is captured here, once per run:
// entries harvested while this runner is in flight stay invisible to it,
// keeping a run against an initially-empty library bit-identical to a
// disabled one.
func NewRunner(lib *Library, inner tile.Runner) *Runner {
	if inner == nil {
		inner = tile.LocalRunner{}
	}
	return &Runner{lib: lib, inner: inner, epoch: lib.Epoch()}
}

// RunTile consults the library, runs the (possibly seeded) request, and
// finishes the attempt — histograms, fallback accounting, harvest. The
// seed rides Config.SeedMask and its digest Request.SeedDigest, so the
// cache key takes the seed by the digest the library hashed it to once.
func (r *Runner) RunTile(ctx context.Context, req *tile.Request) (*ilt.Result, error) {
	if r.lib == nil {
		return r.inner.RunTile(ctx, req)
	}
	cfg, att := r.lib.Prepare(r.epoch, req.Cfg, req.Sim, req.Plan.WindowPx, req.Plan.PixelNM, req.Tile.Layout)
	if att == nil {
		return r.inner.RunTile(ctx, req)
	}
	seeded := *req
	seeded.Cfg = cfg
	seeded.SeedDigest = att.SeedDigest
	res, err := r.inner.RunTile(ctx, &seeded)
	if err != nil {
		return nil, err
	}
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
	return res, nil
}
