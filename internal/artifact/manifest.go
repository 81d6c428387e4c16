package artifact

import (
	"encoding/json"
	"fmt"

	"mosaic/internal/cache"
	"mosaic/internal/frame"
	"mosaic/internal/geom"
	"mosaic/internal/ilt"
	"mosaic/internal/obs"
	"mosaic/internal/sim"
	"mosaic/internal/tile"
)

// ManifestSchema versions the manifest JSON layout. 1: hand-listed
// parameter sections. 2: the sections are derived from ilt.Bits (gaining
// obj_tol, optics.pixel_nm and optics.grid_size) and a seeded run records
// its seed's digest; the optimizer section later shed, under the same
// number, every row whose parameter became a constant (obj_tol, momentum,
// smooth_weight, the four SRAF rules, alpha, theta_m, theta_epe, the step
// schedule and the two EPE lengths). 3: the optimizer section also loses
// grad_tol and jumps, leaving mode, beta, gamma, max_iter, sraf_init,
// grad_kernels, defocus_nm and dose_delta.
const ManifestSchema = 3

// Manifest is the canonical record of every input that determined a
// run's bits: the target geometry, the imaging and resist models and the
// full optimizer parameter set (rendered from ilt.Bits, the same list
// the tile-cache digest is derived from), any warm-start seed, the tiling
// decomposition, the cache digest generation, and the build that ran it.
// It deliberately excludes job IDs, timestamps, worker counts, and
// runtimes: two runs of the same work must anchor the same manifest
// digest whether they were cold or cached, on one host or another.
//
// The payload is the manifest's JSON — Go's json.Marshal is
// deterministic for a fixed struct (field order, shortest-round-trip
// floats), so equal manifests produce equal bytes and one digest.
type Manifest struct {
	Schema        int    `json:"schema"`
	DigestVersion int    `json:"digest_version"` // cache/numeric-path generation
	Build         string `json:"build"`          // version @ VCS revision of the binary

	Layout ManifestLayout `json:"layout"`
	// Optics, Resist and Opt are the ilt.Bits sections: one key per
	// bits-determining parameter.
	Optics map[string]any `json:"optics"`
	Resist map[string]any `json:"resist"`
	Opt    map[string]any `json:"optimizer"`
	// Seed is the digest of Config.SeedMask (frame.Writer.Field) when
	// the run was handed one; per-tile library seeds are attributed on
	// the tile provenance instead.
	Seed   *Digest        `json:"seed,omitempty"`
	Tiling ManifestTiling `json:"tiling"`
}

// ManifestLayout pins the target: full-chip geometry is summarized as
// a digest over every coordinate so the manifest stays small while
// still committing to every nanometer.
type ManifestLayout struct {
	Name     string  `json:"name"`
	SizeNM   float64 `json:"size_nm"`
	Polygons int     `json:"polygons"`
	Geometry Digest  `json:"geometry"`
}

// ManifestTiling is the decomposition the run used; a clip that fits
// the simulation grid records its 1x1 zero-halo plan.
type ManifestTiling struct {
	Tiled    bool    `json:"tiled"`
	WindowPx int     `json:"window_px"`
	PixelNM  float64 `json:"pixel_nm"`
	CoreNM   float64 `json:"core_nm,omitempty"`
	HaloNM   float64 `json:"halo_nm,omitempty"`
	SeamNM   float64 `json:"seam_nm,omitempty"`
	Cols     int     `json:"cols,omitempty"`
	Rows     int     `json:"rows,omitempty"`
}

// NewManifest assembles the canonical manifest for one run: ws is the
// window simulator the plan's tiles ran on and seamNM is the stitch band
// actually used after clamping.
func NewManifest(layout *geom.Layout, ws *sim.Simulator, cfg ilt.Config, plan *tile.Plan, seamNM float64) *Manifest {
	bi := obs.ReadBuild()
	m := &Manifest{
		Schema:        ManifestSchema,
		DigestVersion: cache.DigestVersion,
		Build:         bi.Version + "@" + bi.Revision,
		Layout: ManifestLayout{
			Name:     layout.Name,
			SizeNM:   layout.SizeNM,
			Polygons: len(layout.Polys),
			Geometry: frame.Digest(layout.AppendBits),
		},
		Tiling: ManifestTiling{
			Tiled:    len(plan.Tiles) > 1,
			WindowPx: ws.Cfg.GridSize,
			PixelNM:  ws.Cfg.PixelNM,
			CoreNM:   plan.CoreNM,
			HaloNM:   plan.HaloNM,
			SeamNM:   seamNM,
			Cols:     plan.Cols,
			Rows:     plan.Rows,
		},
	}
	sections := ilt.Bits{Optics: &ws.Cfg, Resist: &ws.Resist, Cfg: &cfg}.Sections()
	m.Optics, m.Resist, m.Opt = sections["optics"], sections["resist"], sections["optimizer"]
	if cfg.SeedMask != nil {
		d := Digest(frame.FieldDigest(cfg.SeedMask))
		m.Seed = &d
	}
	return m
}

// Encode renders the manifest as its canonical JSON payload.
func (m *Manifest) Encode() ([]byte, error) {
	out, err := json.Marshal(m)
	if err != nil {
		return nil, fmt.Errorf("artifact: encoding manifest: %w", err)
	}
	return out, nil
}

// DecodeManifest parses a stored manifest payload.
func DecodeManifest(payload []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(payload, &m); err != nil {
		return nil, fmt.Errorf("artifact: decoding manifest: %w", err)
	}
	return &m, nil
}
