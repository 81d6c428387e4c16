// The pins live in an external test package: internal/artifact imports
// internal/cache, so an in-package test that derives a manifest digest
// would be an import cycle.
package cache_test

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"mosaic/internal/artifact"
	"mosaic/internal/cache"
	"mosaic/internal/geom"
	"mosaic/internal/grid"
	"mosaic/internal/ilt"
	"mosaic/internal/optics"
	"mosaic/internal/resist"
	"mosaic/internal/sim"
	"mosaic/internal/tile"
	"mosaic/internal/warmstart"
)

// goldenRequest is a tile request with every bits-determining field
// written out, so the pinned bytes below do not move when a default does.
func goldenRequest(seeded bool) *tile.Request {
	req := &tile.Request{
		Plan: &tile.Plan{WindowPx: 16, PixelNM: 8},
		Tile: &tile.Tile{Index: 5, Layout: &geom.Layout{
			Name:   "golden_t1x1",
			SizeNM: 128,
			Polys: []geom.Polygon{
				geom.Rect{X: 16, Y: 24, W: 48, H: 32}.Polygon(),
				geom.Rect{X: 80, Y: 8, W: 24, H: 96}.Polygon(),
			},
		}},
		Sim: &sim.Simulator{
			Cfg:    optics.Config{WavelengthNM: 193, NA: 1.35, SigmaIn: 0.6, SigmaOut: 0.9, PixelNM: 8, GridSize: 16, Kernels: 6},
			Resist: resist.Model{Threshold: 0.2265625, ThetaZ: 50},
		},
		Cfg: ilt.Config{
			Mode: ilt.ModeExact, Beta: 0.35, Gamma: 4,
			MaxIter: 20, SRAFInit: true,
			GradKernels: 8, DefocusNM: 25, DoseDelta: 0.02,
		},
		Samples: []geom.Sample{
			{Pt: geom.Point{X: 16, Y: 40}, InwardX: 1},
			{Pt: geom.Point{X: 40, Y: 24}, Horizontal: true, InwardY: 1},
			{Pt: geom.Point{X: 104, Y: 56}, InwardX: -1},
		},
	}
	if seeded {
		req.Cfg.SeedMask = goldenField(0.25)
	}
	return req
}

func goldenField(base float64) *grid.Field {
	g := grid.New(16, 16)
	for i := range g.Data {
		g.Data[i] = base + float64(i)/512
	}
	return g
}

func goldenResult() *ilt.Result {
	g := goldenField(0.125)
	return &ilt.Result{MaskGray: g, Mask: g.Threshold(0.5), Objective: 8243.25, Iterations: 17, RuntimeSec: 1.625, Seeded: true}
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// TestGoldenBytes pins the formats that must stay byte-identical across
// builds: the tile-cache key (a moved key silently cools every live
// cache) and the MTCE entry file. The hex values were captured at the
// commit before the shared encoding kernel landed; if one moves, the
// format changed — bump its version instead of re-pinning. The two
// RequestKey values are the exception by design: cache.DigestVersion is
// their first field, so they are re-pinned at each of its bumps (at 7,
// 8 and 9, each time the ilt.Bits stream lost rows that became constants;
// at 9 the seed also became one frame.Writer.Field; at 10, when best-focus
// stacks began to image paired and gray masks moved at rounding level).
// The seeded value was re-pinned once more without a bump, when the seed
// began to enter the key as its W, H and frame.FieldDigest instead of its
// samples: no tile's bits moved, and an older seeded entry can only miss.
// Both were re-pinned without a bump when the stream lost its grad_tol
// and jumps rows (the th_g stop no run reached, and a jump count that
// became the constant every run used): again no tile's bits moved, and a
// key without those rows cannot equal one with them, so an older entry
// can only miss. MTCE did not move.
func TestGoldenBytes(t *testing.T) {
	check := func(name, got, want string) {
		t.Helper()
		if got != want {
			t.Errorf("%s = %s, want %s", name, got, want)
		}
	}
	check("RequestKey(unseeded)", cache.RequestKey(goldenRequest(false)).String(), "2d6d35ddbae2529e616c8932891b8bd49469fc85549a2fb23cd6fad71f6554a7")
	check("RequestKey(seeded)", cache.RequestKey(goldenRequest(true)).String(), "6cadd24ed86a1f5c5ba546373083a203ecc70b39ec1593a1534be0b94bd872c9")

	dir := t.TempDir()
	store, err := cache.Open(cache.Options{Dir: dir, MemBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	key := cache.RequestKey(goldenRequest(false))
	store.Put(key, goldenResult())
	h := key.String()
	entry, err := os.ReadFile(filepath.Join(dir, h[:2], h+".mtc"))
	if err != nil {
		t.Fatal(err)
	}
	check("MTCE entry file", sha(entry), "ae91f21ffa2e2ffa61d3cd5d89bc637efb3f859ac283f1ac641b9a21f111c8f8")
}

// TestBitsFieldSensitivity perturbs every row of ilt.Bits.Fields in turn
// and requires everything derived from that one list to notice: the
// tile-cache key, the provenance manifest digest and the warm-start
// family. The seed is the one input the family deliberately ignores (a
// library is looked up before a seed exists).
func TestBitsFieldSensitivity(t *testing.T) {
	type derived struct {
		key      cache.Key
		manifest artifact.Digest
		family   warmstart.Family
	}
	derive := func(req *tile.Request) derived {
		t.Helper()
		man, err := artifact.NewManifest(req.Tile.Layout, req.Sim, req.Cfg, req.Plan, 0).Encode()
		if err != nil {
			t.Fatal(err)
		}
		return derived{
			key:      cache.RequestKey(req),
			manifest: artifact.HashBlob(man),
			family:   warmstart.FamilyKey(req.Sim, req.Plan.WindowPx, req.Plan.PixelNM, req.Cfg),
		}
	}
	base := derive(goldenRequest(false))

	rows := 0
	ilt.Bits{Optics: &optics.Config{}, Resist: &resist.Model{}, Cfg: &ilt.Config{}}.Fields(func(string, string, any) { rows++ })
	for i := 0; i < rows; i++ {
		req := goldenRequest(false)
		var field string
		row := 0
		ilt.Bits{Optics: &req.Sim.Cfg, Resist: &req.Sim.Resist, Cfg: &req.Cfg}.Fields(func(section, name string, p any) {
			if row++; row-1 != i {
				return
			}
			field = section + "." + name
			switch p := p.(type) {
			case *float64:
				*p += 0.125
			case *int:
				*p++
			case *bool:
				*p = !*p
			default:
				t.Fatalf("%s: unexpected field kind %T", field, p)
			}
		})
		got := derive(req)
		if got.key == base.key || got.manifest == base.manifest || got.family == base.family {
			t.Errorf("%s: key moved %v, manifest moved %v, family moved %v — all three must",
				field, got.key != base.key, got.manifest != base.manifest, got.family != base.family)
		}
	}

	seeded := derive(goldenRequest(true))
	if seeded.key == base.key || seeded.manifest == base.manifest {
		t.Error("a warm-start seed must move the cache key and the manifest digest")
	}
	if seeded.family != base.family {
		t.Error("a warm-start seed must not move the library family")
	}
	other := goldenRequest(true)
	other.Cfg.SeedMask.Data[3] += 0.5
	if got := derive(other); got.key == seeded.key || got.manifest == seeded.manifest {
		t.Error("the seed's values, not just its presence, must reach the key and the manifest")
	}
}
