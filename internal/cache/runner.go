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
	key := keyOf(req)
	res, tier, err := r.store.GetOrCompute(ctx, key, func() (*ilt.Result, error) {
		return r.inner.RunTile(ctx, req)
	})
	if err != nil {
		return nil, err
	}
	attribute(ctx, req, key, tier)
	return res, nil
}

// keyOf is RequestKey(req), or the key req.Key carries while no seed
// has been attached since the lookup hashed it.
func keyOf(req *tile.Request) Key {
	if req.Key != (Key{}) && req.Cfg.SeedMask == nil {
		return req.Key
	}
	return RequestKey(req)
}

// attribute records how a window was served: the span's tile.cache
// attribute and, when the request carries provenance, the serving tier
// and the content key, so the artifact store can cross-link the anchored
// leaf to its cache entry. A miss keeps whatever the inner runners
// recorded (the warm-start seed) and adds the tier on top.
func attribute(ctx context.Context, req *tile.Request, key Key, tier string) {
	obs.CurrentSpan(ctx).SetAttrs(obs.String("tile.cache", tier))
	if req.Prov != nil {
		req.Prov.Tier = tier
		req.Prov.Key = key.String()
	}
}

// LookupRunner serves a window the store already holds under the key of
// the request as it arrives, and hands every other window to inner
// unchanged. It goes outside the warm-start runner, which attaches a seed
// and so changes the key: an exact repeat of a window is then a lookup of
// its unseeded key rather than a seeded descent from its own converged
// mask. The lookup never computes or stores a result; a miss runs inner
// (library, then the cache Runner) exactly as it would without it, the
// key riding on req.Key so that an unseeded miss is hashed once.
type LookupRunner struct {
	store *Store
	inner tile.Runner
}

// NewLookupRunner wraps inner with a lookup in store.
func NewLookupRunner(store *Store, inner tile.Runner) *LookupRunner {
	return &LookupRunner{store: store, inner: inner}
}

// RunTile answers from the store on a hit and runs inner on a miss.
func (r *LookupRunner) RunTile(ctx context.Context, req *tile.Request) (*ilt.Result, error) {
	key := RequestKey(req)
	res, tier, ok := r.store.Lookup(key)
	if !ok {
		req.Key = key
		return r.inner.RunTile(ctx, req)
	}
	attribute(ctx, req, key, tier)
	return res, nil
}
