// Package opc implements conventional OPC baselines against which MOSAIC is
// compared. The ICCAD 2013 contest winners' binaries are not available, so
// the comparison rows of Table 2/3 are regenerated with the standard
// approaches those teams built on:
//
//   - RuleBased: edge bias + scatter-bar SRAFs only (Sec. 1, "rule-based
//     OPC is simple and fast, but only suitable for less aggressive
//     designs").
//   - ModelBased: forward model-based OPC by edge fragmentation and
//     iterative edge movement driven by simulated EPE (Sec. 1, the
//     conventional strong baseline; our stand-in for the contest winners).
//   - PlainILT: pixel ILT with the quadratic image-difference objective
//     (gamma = 2), no process-window term and no SRAF seeding — the prior
//     gradient-descent ILT work MOSAIC extends.
package opc

import (
	"context"
	"math"

	"mosaic/internal/geom"
	"mosaic/internal/grid"
	"mosaic/internal/ilt"
	"mosaic/internal/metrics"
	"mosaic/internal/sim"
	"mosaic/internal/sraf"
	"mosaic/internal/tile"
)

// Method is one mask synthesis approach: it turns a target layout into a
// mask on the simulator grid.
type Method interface {
	// Name identifies the method in result tables.
	Name() string
	// Optimize produces a binary mask for layout.
	Optimize(s *sim.Simulator, layout *geom.Layout) (*grid.Field, error)
}

// RuleBased is OPC by fixed rules only: uniform edge bias plus scatter
// bars (sraf.DefaultRules). It needs no simulation and is nearly free, but
// cannot adapt to local imaging context.
type RuleBased struct{}

// NewRuleBased returns the rule-based baseline.
func NewRuleBased() *RuleBased { return &RuleBased{} }

// Name implements Method.
func (r *RuleBased) Name() string { return "RuleBased" }

// Optimize implements Method.
func (r *RuleBased) Optimize(s *sim.Simulator, layout *geom.Layout) (*grid.Field, error) {
	if err := layout.Validate(); err != nil {
		return nil, err
	}
	target := layout.Rasterize(s.Cfg.GridSize, s.Cfg.PixelNM)
	return sraf.Apply(target, s.Cfg.PixelNM, sraf.DefaultRules()), nil
}

// fragment is one movable piece of a feature edge in the model-based
// engine.
type fragment struct {
	s      geom.Sample // control point and inward normal
	a, b   geom.Point  // fragment endpoints on the original edge
	biasNM float64     // current outward displacement (positive = grow)
}

// ModelBased is conventional forward model-based OPC: every feature edge is
// fragmented, each fragment carries a bias, and the biases are updated
// iteratively from the simulated edge placement error at the fragment's
// control point until the pattern prints on target. Scatter bars
// (sraf.DefaultRules) go on before any edge moves.
type ModelBased struct{}

// The model-based engine's conventional settings.
const (
	mbMaxIter    = 8   // bias update iterations
	mbFragmentNM = 40  // fragment length (one control point each)
	mbStepFactor = 0.6 // bias update gain on the measured signed EPE
	mbMaxBiasNM  = 32  // bias clamp (mask rule surrogate)
)

// NewModelBased returns the model-based baseline.
func NewModelBased() *ModelBased { return &ModelBased{} }

// Name implements Method.
func (m *ModelBased) Name() string { return "ModelBased" }

// Optimize implements Method.
func (m *ModelBased) Optimize(s *sim.Simulator, layout *geom.Layout) (*grid.Field, error) {
	if err := layout.Validate(); err != nil {
		return nil, err
	}
	px := s.Cfg.PixelNM
	target := layout.Rasterize(s.Cfg.GridSize, px)
	frags := fragments(layout, mbFragmentNM)
	base := sraf.Apply(target, px, sraf.DefaultRules())

	mp := metrics.DefaultParams()
	mask := base.Clone()
	for iter := 0; iter < mbMaxIter; iter++ {
		aerial, err := s.Aerial(mask, sim.Nominal())
		if err != nil {
			return nil, err
		}
		samples := make([]geom.Sample, len(frags))
		for i, f := range frags {
			samples[i] = f.s
		}
		res := metrics.MeasureEPE(aerial, 1, s.Resist.Threshold, px, samples, mp)
		moved := false
		for i := range frags {
			e := res[i].SignedNM
			if math.IsInf(e, 0) {
				// No printed edge found: grow aggressively to pull the
				// feature into existence.
				e = mp.EPESearchNM
			}
			if math.Abs(e) < px/2 {
				continue
			}
			// Positive signed EPE means the printed edge sits inside the
			// feature (under-printing): move the mask edge outward.
			nb := clamp(frags[i].biasNM+mbStepFactor*e, -mbMaxBiasNM, mbMaxBiasNM)
			if nb != frags[i].biasNM {
				frags[i].biasNM = nb
				moved = true
			}
		}
		if !moved {
			break
		}
		mask = applyBiases(base, frags, px)
	}
	return mask, nil
}

// fragments cuts every layout edge into fragNM pieces with a control
// point at each piece's midpoint.
func fragments(layout *geom.Layout, fragNM float64) []fragment {
	var out []fragment
	for _, p := range layout.Polys {
		// SamplePoints with the fragment pitch gives us midpoints and
		// normals; reconstruct the fragment spans around each sample.
		one := &geom.Layout{Name: "f", SizeNM: layout.SizeNM, Polys: []geom.Polygon{p}}
		for _, s := range one.SamplePoints(fragNM) {
			half := fragNM / 2
			var a, b geom.Point
			if s.Horizontal {
				a = geom.Point{X: s.Pt.X - half, Y: s.Pt.Y}
				b = geom.Point{X: s.Pt.X + half, Y: s.Pt.Y}
			} else {
				a = geom.Point{X: s.Pt.X, Y: s.Pt.Y - half}
				b = geom.Point{X: s.Pt.X, Y: s.Pt.Y + half}
			}
			out = append(out, fragment{s: s, a: a, b: b})
		}
	}
	return out
}

// applyBiases rasterizes the fragment biases on top of the base mask:
// positive bias fills a strip outside the edge, negative bias clears a
// strip inside it.
func applyBiases(base *grid.Field, frags []fragment, px float64) *grid.Field {
	mask := base.Clone()
	n := mask.W
	for _, f := range frags {
		if f.biasNM == 0 {
			continue
		}
		// The strip extends from the edge along the normal: outward
		// (-inward) for growth, inward for shrink.
		depth := math.Abs(f.biasNM)
		dirX, dirY := -f.s.InwardX, -f.s.InwardY // outward
		fill := 1.0
		if f.biasNM < 0 {
			dirX, dirY = f.s.InwardX, f.s.InwardY
			fill = 0
		}
		// Walk the strip in pixel steps.
		alongX := f.b.X - f.a.X
		alongY := f.b.Y - f.a.Y
		alongLen := math.Abs(alongX) + math.Abs(alongY)
		steps := int(alongLen/px) + 1
		depthSteps := int(depth/px) + 1
		for i := 0; i <= steps; i++ {
			t := float64(i) / float64(steps)
			ex := f.a.X + alongX*t
			ey := f.a.Y + alongY*t
			for d := 0; d < depthSteps; d++ {
				qx := ex + dirX*(float64(d)+0.5)*px
				qy := ey + dirY*(float64(d)+0.5)*px
				ix := int(qx / px)
				iy := int(qy / px)
				if ix >= 0 && ix < n && iy >= 0 && iy < n {
					mask.Set(ix, iy, fill)
				}
			}
		}
	}
	return mask
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// ILT adapts an ilt configuration to the Method interface, so MOSAIC and
// the PlainILT baseline run through one harness: each is tile.RunWindow,
// the optimizer's one entry point, on the whole clip.
type ILT struct {
	Label string
	Cfg   ilt.Config
}

// NewPlainILT returns the prior-work ILT baseline: gradient-descent pixel
// ILT with the quadratic image-difference objective only (gamma = 2,
// beta = 0), combined-kernel gradients and no SRAF seeding, under the
// paper's iteration budget. It represents the class of approaches in refs.
// [9]-[14] that "only optimized image contour".
func NewPlainILT() *ILT {
	cfg := ilt.DefaultConfig(ilt.ModeFast)
	cfg.Gamma = 2
	cfg.Beta = 0
	cfg.SRAFInit = false
	cfg.GradKernels = 0 // Eq. 21 combined kernel, as in prior fast-ILT work
	return &ILT{Label: "PlainILT", Cfg: cfg}
}

// NewMOSAIC returns the paper's configuration for the given mode.
func NewMOSAIC(mode ilt.Mode) *ILT { return &ILT{Label: mode.String(), Cfg: ilt.DefaultConfig(mode)} }

// Name implements Method.
func (m *ILT) Name() string { return m.Label }

// Optimize implements Method. A layout without polygons gets RunWindow's
// shared, read-only all-dark mask.
func (m *ILT) Optimize(s *sim.Simulator, layout *geom.Layout) (*grid.Field, error) {
	samples := layout.SamplePoints(metrics.DefaultParams().EPESampleNM)
	res, err := tile.RunWindow(context.Background(), s, m.Cfg, layout, s.Cfg.GridSize, s.Cfg.PixelNM, samples)
	if err != nil {
		return nil, err
	}
	return res.Mask, nil
}
