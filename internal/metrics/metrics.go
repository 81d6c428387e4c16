// Package metrics implements the evaluation side of the paper: edge
// placement error (EPE) measurement along target-edge normals with
// violation counting (th_epe = 15 nm), the process-variability band of
// Fig. 4 (area between outermost and innermost printed edges over all
// process corners), shape violations (holes in the printed contour), and
// the ICCAD 2013 contest score of Eq. 22 that combines them.
package metrics

import (
	"context"
	"fmt"
	"math"

	"mosaic/internal/cpuid"
	"mosaic/internal/frame"
	"mosaic/internal/geom"
	"mosaic/internal/grid"
	"mosaic/internal/par"
	"mosaic/internal/resist"
	"mosaic/internal/sim"
)

// Params collects the evaluation constants from the paper and contest.
type Params struct {
	EPEThresholdNM float64 // th_epe, paper: 15 nm
	EPESampleNM    float64 // sample pitch along boundaries, paper: 40 nm
	EPESearchNM    float64 // normal search range for the printed edge
	DefocusNM      float64 // process window half-range, paper: 25 nm
	DoseDelta      float64 // dose half-range, paper: 0.02
}

// DefaultParams returns the paper's evaluation constants.
func DefaultParams() Params {
	return Params{
		EPEThresholdNM: 15,
		EPESampleNM:    40,
		EPESearchNM:    40,
		DefocusNM:      25,
		DoseDelta:      0.02,
	}
}

// AppendBits writes every evaluation constant to the canonical scalar
// stream: a key over them (the artifact store's quality side-car) misses
// when any one moves. A new Params field belongs here; a test perturbs
// each field by reflection and fails on one this list forgot.
func (p *Params) AppendBits(w *frame.Writer) {
	w.Put(&p.EPEThresholdNM, &p.EPESampleNM, &p.EPESearchNM, &p.DefocusNM, &p.DoseDelta)
}

// Score weights reconstructed from the ICCAD 2013 problem-C scoring
// function (Eq. 22; the OCR of the paper lost the numeric coefficients).
// The paper states runtime contributes well under 1% of the total, and PVB
// appears with weight 4, consistent with these values.
const (
	ScoreWeightPVB     = 4     // per nm^2 of PV band
	ScoreWeightEPE     = 5000  // per EPE violation
	ScoreWeightShape   = 10000 // per shape violation (hole)
	ScoreWeightRuntime = 1     // per second
)

// Score evaluates Eq. 22.
func Score(runtimeSec, pvbNM2 float64, epeViolations, shapeViolations int) float64 {
	return ScoreWeightRuntime*runtimeSec +
		ScoreWeightPVB*pvbNM2 +
		ScoreWeightEPE*float64(epeViolations) +
		ScoreWeightShape*float64(shapeViolations)
}

// EPEResult is the measurement at one sample point.
type EPEResult struct {
	Sample    geom.Sample
	EPENM     float64 // |edge displacement| in nm; +Inf when no edge found
	SignedNM  float64 // displacement along the inward normal: positive when the printed edge lies inside the feature (under-printing)
	Violation bool
}

// bilinear samples f at a physical position (nm) given the pixel size,
// clamping to the grid.
func bilinear(f *grid.Field, xNM, yNM, pixelNM float64) float64 {
	// Pixel centers sit at (i+0.5)*pixelNM.
	fx := xNM/pixelNM - 0.5
	fy := yNM/pixelNM - 0.5
	x0 := int(math.Floor(fx))
	y0 := int(math.Floor(fy))
	tx := fx - float64(x0)
	ty := fy - float64(y0)
	at := func(x, y int) float64 {
		if x < 0 {
			x = 0
		}
		if x > f.W-1 {
			x = f.W - 1
		}
		if y < 0 {
			y = 0
		}
		if y > f.H-1 {
			y = f.H - 1
		}
		return f.At(x, y)
	}
	return (1-tx)*(1-ty)*at(x0, y0) + tx*(1-ty)*at(x0+1, y0) +
		(1-tx)*ty*at(x0, y0+1) + tx*ty*at(x0+1, y0+1)
}

// MeasureEPE measures the edge placement error at every sample point by
// scanning the aerial image (scaled by dose) along the edge normal for the
// threshold crossing nearest the target edge. A sample is a violation when
// the printed edge is displaced by more than p.EPEThresholdNM, or when no
// printed edge exists within p.EPESearchNM of the target edge.
func MeasureEPE(aerial *grid.Field, dose, threshold, pixelNM float64, samples []geom.Sample, p Params) []EPEResult {
	out := make([]EPEResult, len(samples))
	stepNM := pixelNM / 2
	if stepNM > 1 {
		stepNM = 1
	}
	n := int(p.EPESearchNM/stepNM) + 1
	for si, s := range samples {
		// Scan t in [-search, +search] along the inward normal; positive t is
		// inside the feature. Record intensity relative to threshold and find
		// the sign change nearest t = 0.
		best := math.Inf(1)
		prevT := -p.EPESearchNM
		prevV := bilinear(aerial, s.Pt.X+s.InwardX*prevT, s.Pt.Y+s.InwardY*prevT, pixelNM)*dose - threshold
		for i := 1; i <= 2*n; i++ {
			t := -p.EPESearchNM + float64(i)*stepNM
			v := bilinear(aerial, s.Pt.X+s.InwardX*t, s.Pt.Y+s.InwardY*t, pixelNM)*dose - threshold
			if (prevV < 0 && v >= 0) || (prevV >= 0 && v < 0) {
				// Linear interpolation of the crossing position.
				frac := 0.0
				if v != prevV {
					frac = -prevV / (v - prevV)
				}
				cross := prevT + frac*stepNM
				if math.Abs(cross) < math.Abs(best) {
					best = cross
				}
			}
			prevT, prevV = t, v
		}
		r := EPEResult{Sample: s}
		if math.IsInf(best, 1) {
			r.EPENM = math.Inf(1)
			r.SignedNM = math.Inf(1)
			r.Violation = true
		} else {
			r.EPENM = math.Abs(best)
			r.SignedNM = best
			r.Violation = r.EPENM > p.EPEThresholdNM
		}
		out[si] = r
	}
	return out
}

// CountViolations returns the number of violating samples.
func CountViolations(rs []EPEResult) int {
	n := 0
	for _, r := range rs {
		if r.Violation {
			n++
		}
	}
	return n
}

// PVBand computes the process-variability band from printed images at all
// process corners (Fig. 4): the set of pixels printed under at least one
// corner but not under all corners. It returns the band as a binary field
// and its area in nm^2.
func PVBand(printed []*grid.Field, pixelNM float64) (band *grid.Field, areaNM2 float64) {
	if len(printed) == 0 {
		panic("metrics: PVBand needs at least one printed image")
	}
	band = grid.NewLike(printed[0])
	count := bandPixels(printed, band.Data)
	return band, float64(count) * pixelNM * pixelNM
}

// Exposure is one process corner's aerial intensity (before dose) and its
// dose: the inputs of the corner's hard print (resist.Model.Prints).
type Exposure struct {
	I    []float64
	Dose float64
}

// BandPixels counts the pixels of [lo, hi) that rm prints under some but
// not all of the exposures: the pixels of PVBand's band over the images
// rm.Print would make, counted over a row range without printing them.
// Where cpuid.PixelAVX holds, bandAVX counts four pixels a step and the Go
// loop the tail.
func BandPixels(rm resist.Model, exps []Exposure, lo, hi int) int {
	count := 0
	if cpuid.PixelAVX && len(exps) > 0 && lo >= 0 && hi-lo >= 4 && covers(exps, hi) {
		end := hi - (hi-lo)%4
		count = bandAVX(exps, lo, end, rm.Threshold)
		lo = end
	}
	for i := lo; i < hi; i++ {
		on := rm.Prints(exps[0].I[i], exps[0].Dose)
		for _, e := range exps[1:] {
			if rm.Prints(e.I[i], e.Dose) != on {
				count++
				break
			}
		}
	}
	return count
}

// covers reports whether every exposure holds pixel hi-1, as bandAVX
// assumes; a short one is left to the Go loop's bounds check.
func covers(exps []Exposure, hi int) bool {
	for _, e := range exps {
		if len(e.I) < hi {
			return false
		}
	}
	return true
}

// bandPixels counts the pixels printed under some but not all of the
// images and sets mark to 1 at each of them.
func bandPixels(printed []*grid.Field, mark []float64) int {
	count := 0
	for i, v := range printed[0].Data {
		some, all := v > 0, v > 0
		for _, z := range printed[1:] {
			on := z.Data[i] > 0
			some = some || on
			all = all && on
		}
		if some && !all {
			count++
			mark[i] = 1
		}
	}
	return count
}

// ShapeViolations counts holes in the nominal printed image. The contest's
// shape term penalizes non-printable artifacts; the paper reports zero for
// all MOSAIC results.
func ShapeViolations(printedNominal *grid.Field) int {
	return geom.CountHoles(printedNominal)
}

// Report is a full evaluation of one mask against one target layout.
type Report struct {
	Testcase        string
	EPEViolations   int
	EPEResults      []EPEResult
	PVBandNM2       float64
	PVBand          *grid.Field
	ShapeViolations int
	RuntimeSec      float64
	Score           float64
	PrintedNominal  *grid.Field
	AerialNominal   *grid.Field
}

// Quality is the scalar part of a Report that depends only on the mask,
// the target and the evaluation constants — everything but the rasters,
// the per-sample list and the run's own wall time. It is what a served
// job answers with and what the artifact store keeps beside an anchored
// record; RuntimeSec and Score are folded in when it is read.
type Quality struct {
	Testcase        string
	EPEViolations   int
	PVBandNM2       float64
	ShapeViolations int
}

// Quality extracts the report's runtime-free scalars.
func (r *Report) Quality() Quality {
	return Quality{
		Testcase:        r.Testcase,
		EPEViolations:   r.EPEViolations,
		PVBandNM2:       r.PVBandNM2,
		ShapeViolations: r.ShapeViolations,
	}
}

// Score evaluates Eq. 22 for a run that took runtimeSec.
func (q Quality) Score(runtimeSec float64) float64 {
	return Score(runtimeSec, q.PVBandNM2, q.EPEViolations, q.ShapeViolations)
}

// PlanesFunc images a mask at every focus plane of corners, one image per
// plane in sim.FocusGroups order, before dose (which the resist step
// applies). Evaluation is expressed against it so the metrics stay
// agnostic of how the images are formed — a plain simulator whose grid
// covers the mask (sim.Simulator.AerialPlanes), or the tile pipeline's
// stitched full-layout simulation. The images are handed over: the
// evaluation keeps the nominal one in its Report and returns the others to
// the workspace pool.
type PlanesFunc func(mask *grid.Field, corners []sim.Corner) ([]*grid.Field, error)

// Evaluate runs the full-SOCS forward simulation of mask at every process
// corner and produces the contest metrics against layout. runtimeSec is
// the optimization wall time to be folded into the score (pass 0 to score
// quality only).
func Evaluate(s *sim.Simulator, mask *grid.Field, layout *geom.Layout, p Params, runtimeSec float64) (*Report, error) {
	return EvaluateWithCtx(context.Background(), s.AerialPlanes, s.Resist, s.Cfg.PixelNM, mask, layout, p, runtimeSec)
}

// EvaluateWithCtx is Evaluate with the forward imaging injected, under a
// context: cancellation is honored before the imaging, and inside it as
// far as planes honors it (tile.Plan.AerialPlanes checks before each
// window). planes forms the image of every focus plane in one call, rm
// thresholds them, pixelNM scales areas and EPE measurements. mask and the images must share one
// grid that covers layout at pixelNM resolution. Corners that share a
// focus plane differ only in dose, which the resist applies, so every
// corner of a plane prints from the plane's one image. The rest runs as
// two task lists, each parallel over outputs its tasks write alone: the
// EPE measurement on the nominal image and every corner's print, then the
// PV band and the shape count of the prints.
func EvaluateWithCtx(ctx context.Context, planes PlanesFunc, rm resist.Model, pixelNM float64, mask *grid.Field, layout *geom.Layout, p Params, runtimeSec float64) (*Report, error) {
	corners := sim.ProcessCorners(p.DefocusNM, p.DoseDelta)
	groups := sim.FocusGroups(corners)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("metrics: evaluation canceled before imaging: %w", err)
	}
	imgs, err := planes(mask, corners)
	if err != nil {
		return nil, fmt.Errorf("metrics: imaging %d focus planes: %w", len(groups), err)
	}
	if len(imgs) != len(groups) {
		return nil, fmt.Errorf("metrics: imaging returned %d images for %d focus planes", len(imgs), len(groups))
	}
	exposed := make([]*grid.Field, len(corners)) // each corner's plane image
	var aerialNominal *grid.Field
	for gi, g := range groups {
		for _, ci := range g.Members {
			exposed[ci] = imgs[gi]
			if c := corners[ci]; c.DefocusNM == 0 && c.Dose == 1 {
				aerialNominal = imgs[gi]
			}
		}
	}
	if aerialNominal == nil {
		return nil, fmt.Errorf("metrics: corner set lacks the nominal condition")
	}
	samples := layout.SamplePoints(p.EPESampleNM)
	printed := make([]*grid.Field, len(corners))
	var epes []EPEResult
	// The EPE scan is the longest task: it goes first.
	par.For(1+len(corners), func(t int) {
		if t == 0 {
			epes = MeasureEPE(aerialNominal, 1, rm.Threshold, pixelNM, samples, p)
			return
		}
		printed[t-1] = rm.Print(exposed[t-1], corners[t-1].Dose)
	})
	for _, img := range imgs {
		if img != aerialNominal {
			grid.Put(img)
		}
	}
	var band *grid.Field
	var area float64
	var shape int
	par.For(2, func(t int) {
		if t == 0 {
			band, area = PVBand(printed, pixelNM)
		} else {
			shape = ShapeViolations(printed[0])
		}
	})
	nEPE := CountViolations(epes)
	return &Report{
		Testcase:        layout.Name,
		EPEViolations:   nEPE,
		EPEResults:      epes,
		PVBandNM2:       area,
		PVBand:          band,
		ShapeViolations: shape,
		RuntimeSec:      runtimeSec,
		Score:           Score(runtimeSec, area, nEPE, shape),
		PrintedNominal:  printed[0],
		AerialNominal:   aerialNominal,
	}, nil
}
