package metrics

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"mosaic/internal/bench"
	"mosaic/internal/geom"
	"mosaic/internal/grid"
	"mosaic/internal/optics"
	"mosaic/internal/resist"
	"mosaic/internal/sim"
)

// syntheticAerial builds an aerial image whose threshold crossing along x
// sits exactly at edgeNM: a linear ramp around the edge.
func syntheticAerial(n int, pixelNM, edgeNM, thr float64) *grid.Field {
	f := grid.New(n, n)
	slope := 0.01 // intensity per nm
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			cx := (float64(x) + 0.5) * pixelNM
			v := thr + (cx-edgeNM)*slope
			if v < 0 {
				v = 0
			}
			if v > 1 {
				v = 1
			}
			f.Set(x, y, v)
		}
	}
	return f
}

// TestDefaultParamsArePapers: th_epe and the EPE sample pitch are the
// ICCAD 2013 rules the paper takes. The optimizer's surrogate and proxy
// EPE read them from here too, so this is their one home.
func TestDefaultParamsArePapers(t *testing.T) {
	p := DefaultParams()
	if p.EPEThresholdNM != 15 || p.EPESampleNM != 40 {
		t.Fatalf("th_epe %g nm, sample pitch %g nm; the paper's are 15 and 40", p.EPEThresholdNM, p.EPESampleNM)
	}
}

func TestMeasureEPEExactEdge(t *testing.T) {
	p := DefaultParams()
	thr := 0.3
	// Target edge at x=100 nm; aerial crossing also at 100 nm: EPE = 0.
	aerial := syntheticAerial(128, 2, 100, thr)
	samples := []geom.Sample{{
		Pt: geom.Point{X: 100, Y: 128}, Horizontal: false, InwardX: 1, InwardY: 0,
	}}
	res := MeasureEPE(aerial, 1, thr, 2, samples, p)
	if res[0].Violation {
		t.Fatalf("zero-EPE sample flagged: %+v", res[0])
	}
	if res[0].EPENM > 1.5 {
		t.Fatalf("EPE %g nm, want ~0", res[0].EPENM)
	}
}

func TestMeasureEPEDisplacedEdge(t *testing.T) {
	p := DefaultParams()
	thr := 0.3
	// Printed edge at 110 nm, target at 100 nm: EPE = 10 nm, no violation
	// at th_epe = 15 nm. The printed feature is to the right (+x), so the
	// area left of the crossing is dark: inward normal +x means the
	// under-printed region extends 10 nm inside -> signed EPE +10.
	aerial := syntheticAerial(128, 2, 110, thr)
	samples := []geom.Sample{{
		Pt: geom.Point{X: 100, Y: 128}, Horizontal: false, InwardX: 1, InwardY: 0,
	}}
	res := MeasureEPE(aerial, 1, thr, 2, samples, p)
	if math.Abs(res[0].EPENM-10) > 1.5 {
		t.Fatalf("EPE %g, want ~10", res[0].EPENM)
	}
	if res[0].SignedNM < 0 {
		t.Fatalf("signed EPE %g, want positive (under-print)", res[0].SignedNM)
	}
	if res[0].Violation {
		t.Fatal("10 nm EPE flagged at 15 nm threshold")
	}
	// Push the edge to 120 nm: EPE = 20 -> violation.
	res = MeasureEPE(syntheticAerial(128, 2, 120, thr), 1, thr, 2, samples, p)
	if !res[0].Violation {
		t.Fatalf("20 nm EPE not flagged: %+v", res[0])
	}
}

func TestMeasureEPENoEdge(t *testing.T) {
	p := DefaultParams()
	aerial := grid.New(64, 64) // completely dark: feature never prints
	samples := []geom.Sample{{
		Pt: geom.Point{X: 64, Y: 64}, Horizontal: false, InwardX: 1, InwardY: 0,
	}}
	res := MeasureEPE(aerial, 1, 0.3, 2, samples, p)
	if !res[0].Violation || !math.IsInf(res[0].EPENM, 1) {
		t.Fatalf("missing edge not flagged: %+v", res[0])
	}
}

func TestMeasureEPEDose(t *testing.T) {
	p := DefaultParams()
	thr := 0.3
	aerial := syntheticAerial(128, 2, 100, thr)
	samples := []geom.Sample{{
		Pt: geom.Point{X: 100, Y: 128}, Horizontal: false, InwardX: 1, InwardY: 0,
	}}
	// Overdose shifts the crossing outward (feature grows): signed EPE
	// goes negative.
	res := MeasureEPE(aerial, 1.2, thr, 2, samples, p)
	if res[0].SignedNM >= 0 {
		t.Fatalf("overdose should over-print: signed %g", res[0].SignedNM)
	}
}

func TestCountViolations(t *testing.T) {
	rs := []EPEResult{{Violation: true}, {}, {Violation: true}}
	if CountViolations(rs) != 2 {
		t.Fatal("count wrong")
	}
}

func TestPVBand(t *testing.T) {
	a := grid.New(8, 8)
	b := grid.New(8, 8)
	// a prints a 4x4 block, b prints a 2x2 sub-block: band = 12 pixels.
	for y := 2; y < 6; y++ {
		for x := 2; x < 6; x++ {
			a.Set(x, y, 1)
		}
	}
	for y := 3; y < 5; y++ {
		for x := 3; x < 5; x++ {
			b.Set(x, y, 1)
		}
	}
	band, area := PVBand([]*grid.Field{a, b}, 2)
	if area != 12*4 {
		t.Fatalf("area %g, want 48", area)
	}
	if band.At(2, 2) != 1 || band.At(3, 3) != 0 {
		t.Fatal("band pixels wrong")
	}
}

func TestPVBandIdenticalCorners(t *testing.T) {
	a := grid.New(8, 8).Fill(1)
	_, area := PVBand([]*grid.Field{a, a.Clone(), a.Clone()}, 1)
	if area != 0 {
		t.Fatalf("identical prints produced band %g", area)
	}
}

// TestBandPixelsMatchesPVBand pins the count over intensities to the band
// image over hard prints: on random intensities and doses, PVBand's band
// holds exactly the pixels printed under some but not all of the corners,
// and BandPixels counts the same pixels in any row range, so the whole
// grid's count gives PVBand's area bit for bit.
func TestBandPixelsMatchesPVBand(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rm := resist.Default()
	for trial := 0; trial < 20; trial++ {
		exps := make([]Exposure, 1+rng.Intn(4))
		printed := make([]*grid.Field, len(exps))
		for c := range exps {
			in := grid.New(16, 16)
			for j := range in.Data {
				in.Data[j] = 2 * rm.Threshold * rng.Float64()
			}
			exps[c] = Exposure{I: in.Data, Dose: 0.9 + 0.2*rng.Float64()}
			printed[c] = rm.Print(in, exps[c].Dose)
		}
		band, area := PVBand(printed, 3)
		for j := range band.Data {
			some, all := false, true
			for _, z := range printed {
				some = some || z.Data[j] > 0
				all = all && z.Data[j] > 0
			}
			want := 0.0
			if some && !all {
				want = 1
			}
			if band.Data[j] != want {
				t.Fatalf("trial %d pixel %d: band %g, want %g", trial, j, band.Data[j], want)
			}
		}
		if got := float64(BandPixels(rm, exps, 0, len(band.Data))) * 3 * 3; got != area {
			t.Fatalf("trial %d: BandPixels area %g, PVBand area %g", trial, got, area)
		}
		lo := 16 * rng.Intn(16)
		hi := lo + 16*rng.Intn(17-lo/16)
		want := 0
		for _, v := range band.Data[lo:hi] {
			want += int(v)
		}
		if got := BandPixels(rm, exps, lo, hi); got != want {
			t.Fatalf("trial %d: BandPixels over [%d, %d) is %d, the band holds %d", trial, lo, hi, got, want)
		}
	}
}

func TestScore(t *testing.T) {
	got := Score(10, 100, 2, 1)
	want := 10.0 + 4*100 + 5000*2 + 10000*1
	if got != want {
		t.Fatalf("score %g, want %g", got, want)
	}
}

func TestShapeViolations(t *testing.T) {
	f := grid.New(32, 32)
	for y := 8; y < 24; y++ {
		for x := 8; x < 24; x++ {
			f.Set(x, y, 1)
		}
	}
	if ShapeViolations(f) != 0 {
		t.Fatal("solid block has holes")
	}
	for y := 14; y < 18; y++ {
		for x := 14; x < 18; x++ {
			f.Set(x, y, 0)
		}
	}
	if ShapeViolations(f) != 1 {
		t.Fatal("hole not counted")
	}
}

func TestEvaluateEndToEnd(t *testing.T) {
	c := optics.Default()
	c.GridSize = 64
	c.PixelNM = 8
	c.Kernels = 6
	s, err := sim.New(c, resist.Default())
	if err != nil {
		t.Fatal(err)
	}
	thr, err := s.CalibrateThreshold()
	if err != nil {
		t.Fatal(err)
	}
	s.Resist.Threshold = thr
	layout := &geom.Layout{
		Name:   "eval",
		SizeNM: 512,
		Polys:  []geom.Polygon{geom.Rect{X: 192, Y: 128, W: 128, H: 256}.Polygon()},
	}
	mask := layout.Rasterize(64, 8)
	rep, err := Evaluate(s, mask, layout, DefaultParams(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Testcase != "eval" {
		t.Fatal("testcase name lost")
	}
	if rep.PVBandNM2 <= 0 {
		t.Fatal("no PV band for a printing feature")
	}
	if rep.RuntimeSec != 3 {
		t.Fatal("runtime not recorded")
	}
	wantScore := Score(3, rep.PVBandNM2, rep.EPEViolations, rep.ShapeViolations)
	if rep.Score != wantScore {
		t.Fatalf("score %g inconsistent with parts %g", rep.Score, wantScore)
	}
	if rep.PrintedNominal == nil || rep.AerialNominal == nil || rep.PVBand == nil {
		t.Fatal("report images missing")
	}
	if len(rep.EPEResults) == 0 {
		t.Fatal("no EPE samples measured")
	}
}

func TestBilinearInterpolation(t *testing.T) {
	f := grid.FromRows([][]float64{{0, 1}, {2, 3}})
	// Centers: (0.5,0.5)=0, (1.5,0.5)=1, (0.5,1.5)=2, (1.5,1.5)=3 at px=1.
	if got := bilinear(f, 0.5, 0.5, 1); got != 0 {
		t.Fatalf("at center: %g", got)
	}
	if got := bilinear(f, 1.0, 0.5, 1); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("midpoint x: %g", got)
	}
	if got := bilinear(f, 1.0, 1.0, 1); math.Abs(got-1.5) > 1e-12 {
		t.Fatalf("center of 4: %g", got)
	}
	// Clamping outside the grid.
	if got := bilinear(f, -5, -5, 1); got != 0 {
		t.Fatalf("clamped corner: %g", got)
	}
}

// evaluateUnshared is the evaluation as it ran before corners of one focus
// plane shared an aerial image and the planes were imaged in one call:
// every corner is imaged on its own, and every step runs serially. It
// exists only as the reference the shared evaluation is pinned to.
func evaluateUnshared(aerial func(*grid.Field, sim.Corner) (*grid.Field, error), rm resist.Model, pixelNM float64, mask *grid.Field, layout *geom.Layout, p Params, runtimeSec float64) (*Report, error) {
	corners := sim.ProcessCorners(p.DefocusNM, p.DoseDelta)
	printed := make([]*grid.Field, len(corners))
	var aerialNominal *grid.Field
	for i, c := range corners {
		img, err := aerial(mask, c)
		if err != nil {
			return nil, err
		}
		printed[i] = rm.Print(img, c.Dose)
		if c.DefocusNM == 0 && c.Dose == 1 {
			aerialNominal = img
		}
	}
	if aerialNominal == nil {
		return nil, fmt.Errorf("corner set lacks the nominal condition")
	}
	samples := layout.SamplePoints(p.EPESampleNM)
	epes := MeasureEPE(aerialNominal, 1, rm.Threshold, pixelNM, samples, p)
	band, area := PVBand(printed, pixelNM)
	shape := ShapeViolations(printed[0])
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

// TestEvaluateImagesEachFocusPlaneOnce: the evaluation makes one imaging
// call, which asks for every process corner and returns one image per
// focus plane (2 for the paper's window, 1 at zero defocus), and still
// reports exactly what imaging every corner on its own would, on the whole
// benchmark suite at the repo benchmark's resolution.
func TestEvaluateImagesEachFocusPlaneOnce(t *testing.T) {
	c := optics.Default()
	c.GridSize = 128
	c.PixelNM = bench.ClipNM / 128
	s, err := sim.New(c, resist.Default())
	if err != nil {
		t.Fatal(err)
	}
	if s.Resist.Threshold, err = s.CalibrateThreshold(); err != nil {
		t.Fatal(err)
	}
	layouts, err := bench.All()
	if err != nil {
		t.Fatal(err)
	}
	for _, defocus := range []float64{25, 0} {
		p := DefaultParams()
		p.DefocusNM = defocus
		planes := len(sim.FocusGroups(sim.ProcessCorners(p.DefocusNM, p.DoseDelta)))
		if defocus == 0 {
			layouts = layouts[:1] // the collapsed window needs one clip, not the suite
		}
		for _, layout := range layouts {
			mask := layout.Rasterize(c.GridSize, c.PixelNM)
			calls := 0
			counting := func(m *grid.Field, corners []sim.Corner) ([]*grid.Field, error) {
				calls++
				imgs, err := s.AerialPlanes(m, corners)
				if len(imgs) != planes {
					t.Fatalf("%s defocus %g: %d images, want %d", layout.Name, defocus, len(imgs), planes)
				}
				return imgs, err
			}
			got, err := EvaluateWithCtx(context.Background(), counting, s.Resist, c.PixelNM, mask, layout, p, 1.5)
			if err != nil {
				t.Fatal(err)
			}
			if calls != 1 {
				t.Fatalf("%s defocus %g: %d imaging calls, want 1", layout.Name, defocus, calls)
			}
			want, err := evaluateUnshared(s.Aerial, s.Resist, c.PixelNM, mask, layout, p, 1.5)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s defocus %g: shared evaluation differs from the per-corner one (score %v vs %v, PVB %v vs %v)",
					layout.Name, defocus, got.Score, want.Score, got.PVBandNM2, want.PVBandNM2)
			}
		}
	}
}
