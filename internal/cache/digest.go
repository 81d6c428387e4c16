// Package cache is a content-addressed store for optimized tile results:
// the key is a canonical digest of every input that determines a tile's
// bits, so any two windows with the same clipped geometry (in
// window-local coordinates) under the same imaging, resist, and
// optimizer configuration share one entry — including the same standard
// cell repeated at different layout positions. A warm cache turns an
// O(tiles) layout into O(unique tiles).
//
// The store has two tiers: an in-process LRU with a byte budget, and an
// optional durable on-disk tier (sharded by digest prefix, atomic-rename
// writes, corrupt entries quarantined and recomputed — a damaged cache
// can cost time, never correctness). Runner is the one window policy: it
// wraps any tile.Runner, looks a window up under its unseeded key, lets
// the warm-start library seed a miss, and files what it computes, leaving
// the scheduler and stitching untouched. The disk tier is also where a
// resumed job finds the windows it finished before a drain: it asks for
// them under their keys like any repeat does.
package cache

import (
	"crypto/sha256"
	"encoding/hex"

	"mosaic/internal/frame"
	"mosaic/internal/geom"
	"mosaic/internal/ilt"
	"mosaic/internal/tile"
)

// DigestVersion is folded into every key. Bump it whenever the numeric
// path changes the bits a tile produces for the same request — FFT or
// convolution changes, optimizer update-rule changes, resist model
// changes, codec changes — so stale entries miss instead of serving the
// old bits. The rule: if a change would fail a bit-identity test against
// the previous build, it needs a version bump.
const DigestVersion = 10

// Key is the content address of one tile result: a SHA-256 over the
// canonical encoding of the request (see RequestKey).
type Key [sha256.Size]byte

// String renders the key as lowercase hex (the on-disk entry name).
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// RequestKey computes the content address of a tile request. The digest
// covers exactly the inputs RunWindow's bits depend on:
//
//   - the digest version (numeric-path generation)
//   - window grid size and pixel pitch
//   - the imaging configuration and calibrated resist model
//   - every optimizer parameter ilt.Bits lists (the OnIter hook
//     excluded, exactly as the scheduler forces it off for tiled runs)
//     and the warm-start seed, if any, by its size and digest
//   - the window's clipped geometry in window-local coordinates, and its
//     window-local EPE samples, both in order
//
// Deliberately excluded: the window layout's Name (it embeds the tile's
// position in the full layout, and position must not affect the key —
// translation-shifted copies of a cell share one entry), the tile's
// plan coordinates, and anything about where or when the request runs —
// the host's core count included: no sum in the numeric path is folded in
// an order that depends on it (TestBitsIndependentOfCoreCount).
// Polygon and sample order are hashed as given rather than sorted: a
// reordering changes the key and costs a recompute, never a wrong hit.
//
// A seed enters as its W, H and frame.FieldDigest, not as its samples,
// hashed here from the bits. An unseeded key writes the -1 of a nil
// Writer.Field, as it always has.
func RequestKey(req *tile.Request) Key { return requestKey(req, nil) }

// requestKey is RequestKey with the seed taken by seedDigest, the
// frame.FieldDigest its maker already hashed (the warm-start library's
// Attempt.SeedDigest); nil hashes the seed's bits. Both routes write the
// same bytes.
func requestKey(req *tile.Request, seedDigest *[sha256.Size]byte) Key {
	return frame.Digest(func(w *frame.Writer) {
		w.I64(DigestVersion)
		w.I64(int64(req.Plan.WindowPx))
		w.F64(req.Plan.PixelNM)
		ilt.Bits{Optics: &req.Sim.Cfg, Resist: &req.Sim.Resist, Cfg: &req.Cfg}.Append(w)
		if seed := req.Cfg.SeedMask; seed == nil {
			w.Field(nil)
		} else {
			d := seedDigest
			if d == nil {
				fd := frame.FieldDigest(seed)
				d = &fd
			}
			w.I64(int64(seed.W))
			w.I64(int64(seed.H))
			w.Raw(d[:])
		}
		req.Tile.Layout.AppendBits(w)
		geom.AppendSamples(w, req.Samples)
	})
}
