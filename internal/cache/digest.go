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
// can cost time, never correctness). Runner wraps any tile.Runner with
// the cache, leaving the scheduler, retries, journaling, and stitching
// untouched.
package cache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"

	"mosaic/internal/tile"
)

// DigestVersion is folded into every key. Bump it whenever the numeric
// path changes the bits a tile produces for the same request — FFT or
// convolution changes, optimizer update-rule changes, resist model
// changes, codec changes — so stale entries miss instead of serving the
// old bits. The rule: if a change would fail a bit-identity test against
// the previous build, it needs a version bump.
const DigestVersion = 4

// Key is the content address of one tile result: a SHA-256 over the
// canonical encoding of the request (see RequestKey).
type Key [sha256.Size]byte

// String renders the key as lowercase hex (the on-disk entry name).
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// digester streams the canonical encoding into a SHA-256. Scalars are
// 8-byte little-endian; floats are IEEE-754 bit patterns so equal bits —
// and only equal bits — hash equal, mirroring the journal and cluster
// codecs.
type digester struct{ h hash.Hash }

func newDigest() *digester { return &digester{h: sha256.New()} }

func (d *digester) i64(v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	d.h.Write(b[:])
}

func (d *digester) f64(v float64) { d.i64(int64(math.Float64bits(v))) }

func (d *digester) boolean(v bool) {
	if v {
		d.i64(1)
	} else {
		d.i64(0)
	}
}

func (d *digester) sum() Key {
	var k Key
	copy(k[:], d.h.Sum(nil))
	return k
}

// RequestKey computes the content address of a tile request. The digest
// covers exactly the inputs RunWindow's bits depend on:
//
//   - the digest version (numeric-path generation)
//   - window grid size and pixel pitch
//   - the imaging configuration and calibrated resist model
//   - every optimizer parameter that crosses the cluster wire (the
//     encodeTileJob field set — hooks and diagnostics excluded, exactly
//     as the scheduler forces them off for tiled runs)
//   - the window's clipped geometry in window-local coordinates, and its
//     window-local EPE samples, both in order
//
// Deliberately excluded: the window layout's Name (it embeds the tile's
// position in the full layout, and position must not affect the key —
// translation-shifted copies of a cell share one entry), the tile's
// plan coordinates, and anything about where or when the request runs.
// Polygon and sample order are hashed as given rather than sorted: a
// reordering changes the key and costs a recompute, never a wrong hit.
func RequestKey(req *tile.Request) Key {
	d := newDigest()
	d.i64(DigestVersion)
	d.i64(int64(req.Plan.WindowPx))
	d.f64(req.Plan.PixelNM)

	oc := req.Sim.Cfg
	d.f64(oc.WavelengthNM)
	d.f64(oc.NA)
	d.f64(oc.SigmaIn)
	d.f64(oc.SigmaOut)
	d.f64(oc.PixelNM)
	d.i64(int64(oc.GridSize))
	d.i64(int64(oc.Kernels))

	d.f64(req.Sim.Resist.Threshold)
	d.f64(req.Sim.Resist.ThetaZ)

	c := req.Cfg
	d.i64(int64(c.Mode))
	d.f64(c.Alpha)
	d.f64(c.Beta)
	d.f64(c.Gamma)
	d.f64(c.SmoothWeight)
	d.f64(c.ThetaM)
	d.f64(c.ThetaEPE)
	d.f64(c.StepSize)
	d.f64(c.StepDecay)
	d.f64(c.Momentum)
	d.i64(int64(c.MaxIter))
	d.f64(c.GradTol)
	d.i64(int64(c.Jumps))
	d.f64(c.JumpFactor)
	d.boolean(c.SRAFInit)
	d.f64(c.SRAFRules.BiasNM)
	d.f64(c.SRAFRules.SRAFDistNM)
	d.f64(c.SRAFRules.SRAFWidthNM)
	d.f64(c.SRAFRules.SRAFMinLenNM)
	d.i64(int64(c.GradKernels))
	d.f64(c.EPEThresholdNM)
	d.f64(c.EPESampleNM)
	d.f64(c.DefocusNM)
	d.f64(c.DoseDelta)
	d.f64(c.ObjTol)
	// A warm-start seed determines the descent trajectory, so seeded and
	// unseeded runs of one window must occupy distinct entries.
	if c.SeedMask != nil {
		d.boolean(true)
		d.i64(int64(c.SeedMask.W))
		d.i64(int64(c.SeedMask.H))
		for _, v := range c.SeedMask.Data {
			d.f64(v)
		}
	} else {
		d.boolean(false)
	}

	l := req.Tile.Layout
	d.f64(l.SizeNM)
	d.i64(int64(len(l.Polys)))
	for _, p := range l.Polys {
		d.i64(int64(len(p)))
		for _, pt := range p {
			d.f64(pt.X)
			d.f64(pt.Y)
		}
	}

	d.i64(int64(len(req.Samples)))
	for _, s := range req.Samples {
		d.f64(s.Pt.X)
		d.f64(s.Pt.Y)
		d.boolean(s.Horizontal)
		d.f64(s.InwardX)
		d.f64(s.InwardY)
	}
	return d.sum()
}
