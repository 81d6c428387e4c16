package cache

import (
	"context"

	"mosaic/internal/ilt"
	"mosaic/internal/obs"
	"mosaic/internal/tile"
)

// Runner wraps any tile.Runner with a content-addressed cache: a hit
// decodes the stored mask and skips optimization entirely; a miss runs the
// inner runner and persists its result. The scheduler sees an ordinary Runner, so
// stitching and the bit-identity guarantee are untouched, and it never
// hands a runner an empty window, so those are never cache traffic.
type Runner struct {
	store *Store
	inner tile.Runner
}

// NewRunner wraps inner with store. A nil inner is the in-process
// tile.LocalRunner, the scheduler's default; a nil store returns inner's
// results uncached.
func NewRunner(store *Store, inner tile.Runner) *Runner {
	if inner == nil {
		inner = tile.LocalRunner{}
	}
	return &Runner{store: store, inner: inner}
}

// RunTile serves the request from the cache when possible.
func (r *Runner) RunTile(ctx context.Context, req *tile.Request) (*ilt.Result, error) {
	if r.store == nil {
		return r.inner.RunTile(ctx, req)
	}
	key := RequestKey(req)
	res, tier, err := r.store.GetOrCompute(ctx, key, func() (*ilt.Result, error) {
		return r.inner.RunTile(ctx, req)
	})
	if err != nil {
		return nil, err
	}
	obs.CurrentSpan(ctx).SetAttrs(obs.String("tile.cache", tier))
	if req.Prov != nil {
		// Attribute the serving tier and the content key so the artifact
		// store can cross-link the anchored leaf to its cache entry. A
		// miss keeps whatever the inner runner recorded (the warm-start
		// seed) and adds the tier on top.
		req.Prov.Tier = tier
		req.Prov.Key = key.String()
	}
	return res, nil
}
