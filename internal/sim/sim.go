// Package sim composes the optical projection model and the photoresist
// model into the forward lithography simulator of Fig. 1: mask M -> aerial
// image I -> printed pattern Z, evaluated at arbitrary process corners
// (defocus and dose). It provides both the full SOCS imaging path of Eq. 2
// and the combined single-kernel fast path of Eq. 21, plus threshold
// calibration so printed features land on target for well-resolved shapes.
package sim

import (
	"context"
	"fmt"

	"mosaic/internal/fft"
	"mosaic/internal/grid"
	"mosaic/internal/obs"
	"mosaic/internal/optics"
	"mosaic/internal/par"
	"mosaic/internal/resist"
)

// Corner is one lithography process condition. Dose scales the aerial
// image intensity before resist thresholding; DefocusNM selects the
// defocused optical kernel set.
type Corner struct {
	Name      string
	DefocusNM float64
	Dose      float64
}

// Nominal returns the nominal process condition (best focus, unit dose).
func Nominal() Corner { return Corner{Name: "nominal", DefocusNM: 0, Dose: 1} }

// SpanLabel names the timing spans of the focus plane the corner leads:
// the paper's corner names (ProcessCorners) have a label of their own,
// every other corner shares one, so the metric set stays bounded.
func (c Corner) SpanLabel() obs.Plane { return obs.PlaneOf(c.Name) }

// ProcessCorners returns the corner set used throughout the paper's
// experiments: nominal plus the two extreme corners of a +/-defocusNM,
// +/-doseDelta process window (defocused under- and over-dose). The paper
// uses defocusNM = 25 and doseDelta = 0.02.
func ProcessCorners(defocusNM, doseDelta float64) []Corner {
	return []Corner{
		Nominal(),
		{Name: "inner", DefocusNM: defocusNM, Dose: 1 - doseDelta},
		{Name: "outer", DefocusNM: defocusNM, Dose: 1 + doseDelta},
	}
}

// FocusGroup is the set of process corners that share one focus plane.
// Dose enters at the resist step (Eq. 4), not in the optics, so every
// corner of a group has the same kernel fields and the same aerial image:
// image the group once, then print each member at its own dose.
type FocusGroup struct {
	Lead    Corner // first member: carries the group's DefocusNM and names its spans
	Members []int  // indices into the corner slice FocusGroups was given, ascending
}

// FocusGroups partitions corners by DefocusNM, keeping groups in order of
// first appearance. The paper's corner set (ProcessCorners) yields two
// groups, {nominal} and {inner, outer} — or a single one at zero defocus.
func FocusGroups(corners []Corner) []FocusGroup {
	var groups []FocusGroup
next:
	for i, c := range corners {
		for gi := range groups {
			if groups[gi].Lead.DefocusNM == c.DefocusNM {
				groups[gi].Members = append(groups[gi].Members, i)
				continue next
			}
		}
		groups = append(groups, FocusGroup{Lead: c, Members: []int{i}})
	}
	return groups
}

// Simulator evaluates the forward lithography process for one optical
// configuration and resist model. It caches kernel sets per defocus via the
// optics package and is safe for concurrent use.
type Simulator struct {
	Cfg    optics.Config
	Resist resist.Model
}

// New validates cfg and rm and returns a Simulator.
func New(cfg optics.Config, rm resist.Model) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := rm.Validate(); err != nil {
		return nil, err
	}
	return &Simulator{Cfg: cfg, Resist: rm}, nil
}

// Kernels returns the (cached) SOCS kernel set for the given defocus.
func (s *Simulator) Kernels(defocusNM float64) (*optics.KernelSet, error) {
	return optics.Kernels(s.Cfg, defocusNM)
}

// BuildPlanes builds (or finds cached) the kernel set of every focus plane
// of corners, the planes concurrently where cores are free, and returns
// the first plane's error in corner order.
func (s *Simulator) BuildPlanes(corners []Corner) error {
	planes := FocusGroups(corners)
	errs := make([]error, len(planes))
	par.For(len(planes), func(i int) {
		_, errs[i] = s.Kernels(planes[i].Lead.DefocusNM)
	})
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("sim: building SOCS kernels at %g nm defocus: %w", planes[i].Lead.DefocusNM, err)
		}
	}
	return nil
}

// Spectrum returns the full 2-D FFT of the mask.
func (s *Simulator) Spectrum(mask *grid.Field) *grid.CField {
	if mask.W != s.Cfg.GridSize || mask.H != s.Cfg.GridSize {
		panic(fmt.Sprintf("sim: mask %dx%d does not match grid size %d", mask.W, mask.H, s.Cfg.GridSize))
	}
	spec := grid.ToComplex(mask)
	fft.Forward2D(spec)
	return spec
}

// SpectrumBand returns the central band-limited block (half-width k) of
// the mask's 2-D FFT — the only part of the spectrum the imaging system
// can pass — computed with the pruned real-input forward transform. The
// returned block comes from the workspace pool; release it with grid.PutC
// when done.
func (s *Simulator) SpectrumBand(mask *grid.Field, k int) *grid.CField {
	if mask.W != s.Cfg.GridSize || mask.H != s.Cfg.GridSize {
		panic(fmt.Sprintf("sim: mask %dx%d does not match grid size %d", mask.W, mask.H, s.Cfg.GridSize))
	}
	blk := grid.GetC(2*k+1, 2*k+1)
	fft.ForwardBandLimitedReal(mask, k, blk)
	return blk
}

// FieldFromSpectrum convolves the mask (given by its full spectrum) with
// one kernel (given by its frequency response on the central block of
// half-width K) and returns the complex optical field on the full grid.
// This is the mask-grid reference implementation; the hot paths image on
// the imaging grid (ImagingGrid.Field), which the equivalence tests pin to
// this one.
func (s *Simulator) FieldFromSpectrum(spec *grid.CField, kf *grid.CField, k int) *grid.CField {
	n := s.Cfg.GridSize
	out := grid.NewC(n, n)
	for dy := -k; dy <= k; dy++ {
		sy := (dy + n) % n
		for dx := -k; dx <= k; dx++ {
			sx := (dx + n) % n
			out.Set(sx, sy, spec.At(sx, sy)*kf.At(dx+k, dy+k))
		}
	}
	fft.Inverse2D(out)
	return out
}

// Aerial computes the aerial image with the full SOCS stack (Eq. 2):
// I = sum_k w_k |M conv h_k|^2 at the corner's defocus. Dose is NOT applied
// here; it scales intensity at the resist step. The sum is ImagingGrid.Image
// of the kernel set's SOCSStack — paired at best focus — whose bits depend
// on the mask and the kernels only, not on the core count or on how the
// unit convolutions were scheduled.
func (s *Simulator) Aerial(mask *grid.Field, c Corner) (*grid.Field, error) {
	ks, err := s.Kernels(c.DefocusNM)
	if err != nil {
		return nil, err
	}
	_, sp := obs.StartSpan(context.Background(), obs.SimAerial[c.SpanLabel()])
	defer sp.End()
	return s.image(mask, ks.K, SOCSStack(ks, len(ks.Freqs)))[0], nil
}

// AerialPlanes images mask at every focus plane of corners, one image per
// plane (FocusGroups order), from one band-limited mask spectrum in one
// ImagingGrid.Image call: each image is the one Aerial returns for the
// plane's lead corner, bit for bit. Dose is not applied. The call is timed
// whole under sim.aerial_planes. The images come from the workspace pool;
// release them with grid.Put when done.
func (s *Simulator) AerialPlanes(mask *grid.Field, corners []Corner) ([]*grid.Field, error) {
	planes := FocusGroups(corners)
	stacks := make([]*Stack, len(planes))
	k := 0 // every kernel set of one optics configuration has the same block half-width
	for p, g := range planes {
		ks, err := s.Kernels(g.Lead.DefocusNM)
		if err != nil {
			return nil, err
		}
		stacks[p], k = SOCSStack(ks, len(ks.Freqs)), ks.K
	}
	_, sp := obs.StartSpan(context.Background(), obs.SimAerialPlanes)
	defer sp.End()
	return s.image(mask, k, stacks...), nil
}

// AerialCombined computes the aerial image with the combined single kernel
// of Eq. 21: I ~= |M conv H|^2 where H = sum_k w_k h_k — the SOCS sum of a
// one-kernel stack of unit weight.
func (s *Simulator) AerialCombined(mask *grid.Field, c Corner) (*grid.Field, error) {
	ks, err := s.Kernels(c.DefocusNM)
	if err != nil {
		return nil, err
	}
	_, sp := obs.StartSpan(context.Background(), obs.SimAerialCombined[c.SpanLabel()])
	defer sp.End()
	return s.image(mask, ks.K, CombinedStack(ks))[0], nil
}

// image runs ImagingGrid.Image of stacks on the mask's band-limited
// spectrum, one image per stack.
func (s *Simulator) image(mask *grid.Field, k int, stacks ...*Stack) []*grid.Field {
	spec := s.SpectrumBand(mask, k)
	imgs := NewImagingGrid(s.Cfg.GridSize, k).Image(spec, stacks)
	grid.PutC(spec)
	return imgs
}

// PrintHard applies the hard-threshold resist (Eq. 3) at the corner's dose.
func (s *Simulator) PrintHard(aerial *grid.Field, c Corner) *grid.Field {
	return s.Resist.Print(aerial, c.Dose)
}

// Simulate runs the full forward process at a corner and returns both the
// aerial image and the binary printed pattern.
func (s *Simulator) Simulate(mask *grid.Field, c Corner) (aerial, printed *grid.Field, err error) {
	aerial, err = s.Aerial(mask, c)
	if err != nil {
		return nil, nil, err
	}
	return aerial, s.PrintHard(aerial, c), nil
}

// CalibrateThreshold simulates a wide, well-resolved clear line at best
// focus and returns the aerial intensity at the line's target edge. Setting
// the resist threshold to this value makes large features print on target,
// which is the conventional constant-threshold-resist calibration. The
// returned Simulator convenience wrapper is not modified; assign the result
// to s.Resist.Threshold to adopt it.
func (s *Simulator) CalibrateThreshold() (float64, error) {
	n := s.Cfg.GridSize
	// A vertical clear line of width ~1/4 field, centered; wide enough to be
	// fully resolved at 193 nm / NA 1.35 for any sane grid.
	widthPx := n / 4
	x0 := (n - widthPx) / 2
	mask := grid.New(n, n)
	for y := 0; y < n; y++ {
		row := mask.Row(y)
		for x := x0; x < x0+widthPx; x++ {
			row[x] = 1
		}
	}
	img, err := s.Aerial(mask, Nominal())
	if err != nil {
		return 0, err
	}
	// Intensity at the left target edge, mid-height. The physical edge lies
	// at the boundary between pixels x0-1 and x0, i.e. at x0 - 0.5 in pixel
	// centers; average the two adjacent samples.
	y := n / 2
	v := 0.5 * (img.At(x0-1, y) + img.At(x0, y))
	if v <= 0 || v >= 1 {
		return 0, fmt.Errorf("sim: calibration produced implausible threshold %g", v)
	}
	return v, nil
}
