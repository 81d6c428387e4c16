package sim

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"mosaic/internal/grid"
	"mosaic/internal/obs"
	"mosaic/internal/optics"
	"mosaic/internal/resist"
)

func testSim(t *testing.T) *Simulator {
	t.Helper()
	c := optics.Default()
	c.GridSize = 64
	c.PixelNM = 8
	c.Kernels = 8
	s, err := New(c, resist.Default())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// lineMask returns a mask with a vertical clear line of widthPx centered.
func lineMask(n, widthPx int) *grid.Field {
	m := grid.New(n, n)
	x0 := (n - widthPx) / 2
	for y := 0; y < n; y++ {
		for x := x0; x < x0+widthPx; x++ {
			m.Set(x, y, 1)
		}
	}
	return m
}

func TestProcessCorners(t *testing.T) {
	cs := ProcessCorners(25, 0.02)
	if len(cs) != 3 {
		t.Fatalf("got %d corners, want 3", len(cs))
	}
	if cs[0].DefocusNM != 0 || cs[0].Dose != 1 {
		t.Fatalf("first corner not nominal: %+v", cs[0])
	}
	if cs[1].Dose >= 1 || cs[2].Dose <= 1 {
		t.Fatalf("dose corners not bracketing: %+v %+v", cs[1], cs[2])
	}
	if cs[1].DefocusNM != 25 || cs[2].DefocusNM != 25 {
		t.Fatal("process corners must be defocused")
	}
}

func TestFocusGroups(t *testing.T) {
	// The paper's window: nominal alone, the two dose corners together.
	gs := FocusGroups(ProcessCorners(25, 0.02))
	if len(gs) != 2 {
		t.Fatalf("got %d focus groups, want 2", len(gs))
	}
	if gs[0].Lead.Name != "nominal" || !reflect.DeepEqual(gs[0].Members, []int{0}) {
		t.Fatalf("first group %+v, want nominal alone", gs[0])
	}
	if gs[1].Lead.Name != "inner" || gs[1].Lead.DefocusNM != 25 || !reflect.DeepEqual(gs[1].Members, []int{1, 2}) {
		t.Fatalf("second group %+v, want inner+outer led by inner", gs[1])
	}
	// Zero defocus collapses the window onto the nominal plane.
	gs = FocusGroups(ProcessCorners(0, 0.02))
	if len(gs) != 1 || !reflect.DeepEqual(gs[0].Members, []int{0, 1, 2}) {
		t.Fatalf("zero-defocus groups %+v, want one group of three", gs)
	}
	// Interleaved planes keep first-appearance order and ascending members.
	gs = FocusGroups([]Corner{{DefocusNM: 10}, {DefocusNM: -10}, {DefocusNM: 10, Dose: 2}})
	if len(gs) != 2 || !reflect.DeepEqual(gs[0].Members, []int{0, 2}) || !reflect.DeepEqual(gs[1].Members, []int{1}) {
		t.Fatalf("interleaved groups %+v", gs)
	}
	if FocusGroups(nil) != nil {
		t.Fatal("no corners must give no groups")
	}
}

func TestClearMaskImagesToUnity(t *testing.T) {
	s := testSim(t)
	mask := grid.New(64, 64).Fill(1)
	img, err := s.Aerial(mask, Nominal())
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := img.MinMax()
	if math.Abs(lo-1) > 1e-6 || math.Abs(hi-1) > 1e-6 {
		t.Fatalf("open-frame intensity range [%g, %g], want 1", lo, hi)
	}
}

func TestDarkMaskImagesToZero(t *testing.T) {
	s := testSim(t)
	img, err := s.Aerial(grid.New(64, 64), Nominal())
	if err != nil {
		t.Fatal(err)
	}
	_, hi := img.MinMax()
	if hi > 1e-12 {
		t.Fatalf("dark mask produced intensity %g", hi)
	}
}

func TestLineImageShape(t *testing.T) {
	s := testSim(t)
	img, err := s.Aerial(lineMask(64, 16), Nominal())
	if err != nil {
		t.Fatal(err)
	}
	y := 32
	center := img.At(32, y)
	far := img.At(4, y)
	if center < 0.5 {
		t.Fatalf("center of a wide line is dim: %g", center)
	}
	if far > 0.2*center {
		t.Fatalf("far field %g not dark relative to center %g", far, center)
	}
	// Intensity must decay monotonically-ish through the edge region:
	// value just outside the line is below value just inside.
	inside := img.At(26, y)
	outside := img.At(20, y)
	if outside >= inside {
		t.Fatalf("no edge falloff: inside %g outside %g", inside, outside)
	}
}

func TestImageSymmetry(t *testing.T) {
	s := testSim(t)
	img, err := s.Aerial(lineMask(64, 16), Nominal())
	if err != nil {
		t.Fatal(err)
	}
	// A y-uniform mask must give a y-uniform image, symmetric about the
	// line center in x.
	for x := 0; x < 64; x++ {
		if math.Abs(img.At(x, 10)-img.At(x, 50)) > 1e-9 {
			t.Fatalf("image not uniform in y at x=%d", x)
		}
	}
	// Line occupies [24, 40): center of symmetry at x = 31.5, so pixel
	// 24+i mirrors pixel 39-i.
	for i := 0; i < 16; i++ {
		a, b := img.At(24+i, 32), img.At(39-i, 32)
		if math.Abs(a-b) > 1e-6 {
			t.Fatalf("asymmetric edge response: %g vs %g at offset %d", a, b, i)
		}
	}
}

func TestCombinedApproximatesSOCS(t *testing.T) {
	s := testSim(t)
	mask := lineMask(64, 16)
	full, err := s.Aerial(mask, Nominal())
	if err != nil {
		t.Fatal(err)
	}
	comb, err := s.AerialCombined(mask, Nominal())
	if err != nil {
		t.Fatal(err)
	}
	// Eq. 21 is an approximation; demand qualitative agreement: bright
	// stays bright, dark stays dark.
	for i := range full.Data {
		f, c := full.Data[i], comb.Data[i]
		if f > 0.7 && c < 0.3 {
			t.Fatalf("combined kernel lost a bright region: full %g combined %g", f, c)
		}
		if f < 0.02 && c > 0.3 {
			t.Fatalf("combined kernel invented light: full %g combined %g", f, c)
		}
	}
}

func TestDefocusReducesContrast(t *testing.T) {
	s := testSim(t)
	mask := lineMask(64, 8) // narrow line: defocus sensitive
	nom, err := s.Aerial(mask, Nominal())
	if err != nil {
		t.Fatal(err)
	}
	def, err := s.Aerial(mask, Corner{Name: "defocus", DefocusNM: 60, Dose: 1})
	if err != nil {
		t.Fatal(err)
	}
	if def.At(32, 32) >= nom.At(32, 32) {
		t.Fatalf("defocus did not reduce peak intensity: %g vs %g", def.At(32, 32), nom.At(32, 32))
	}
}

func TestDoseShiftsPrintedEdge(t *testing.T) {
	s := testSim(t)
	mask := lineMask(64, 16)
	img, err := s.Aerial(mask, Nominal())
	if err != nil {
		t.Fatal(err)
	}
	// The swing is large so the edge moves by at least one 8 nm pixel.
	under := s.PrintHard(img, Corner{Dose: 0.6})
	over := s.PrintHard(img, Corner{Dose: 1.6})
	cu := under.Sum()
	co := over.Sum()
	if co <= cu {
		t.Fatalf("overdose printed area %g not larger than underdose %g", co, cu)
	}
}

func TestPrintSoftMatchesHardAwayFromEdges(t *testing.T) {
	s := testSim(t)
	img, err := s.Aerial(lineMask(64, 16), Nominal())
	if err != nil {
		t.Fatal(err)
	}
	hard := s.PrintHard(img, Nominal())
	soft := s.Resist.PrintSigmoid(img, Nominal().Dose)
	for i := range hard.Data {
		// Where the sigmoid is saturated, the two must agree.
		if soft.Data[i] > 0.99 && hard.Data[i] != 1 {
			t.Fatal("soft=1 but hard=0")
		}
		if soft.Data[i] < 0.01 && hard.Data[i] != 0 {
			t.Fatal("soft=0 but hard=1")
		}
	}
}

func TestCalibrateThreshold(t *testing.T) {
	s := testSim(t)
	thr, err := s.CalibrateThreshold()
	if err != nil {
		t.Fatal(err)
	}
	if thr < 0.05 || thr > 0.8 {
		t.Fatalf("calibrated threshold %g outside plausible range", thr)
	}
	// Adopting the calibrated threshold makes the calibration line print
	// at size (within a pixel).
	s.Resist.Threshold = thr
	mask := lineMask(64, 16)
	img, err := s.Aerial(mask, Nominal())
	if err != nil {
		t.Fatal(err)
	}
	z := s.PrintHard(img, Nominal())
	printed := 0
	for x := 0; x < 64; x++ {
		if z.At(x, 32) > 0 {
			printed++
		}
	}
	if printed < 14 || printed > 18 {
		t.Fatalf("calibrated line prints %d px wide, want ~16", printed)
	}
}

func TestSimulateReturnsBoth(t *testing.T) {
	s := testSim(t)
	aerial, printed, err := s.Simulate(lineMask(64, 16), Nominal())
	if err != nil {
		t.Fatal(err)
	}
	if aerial == nil || printed == nil {
		t.Fatal("nil outputs")
	}
	for _, v := range printed.Data {
		if v != 0 && v != 1 {
			t.Fatalf("printed image not binary: %g", v)
		}
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	c := optics.Default()
	c.GridSize = 100
	if _, err := New(c, resist.Default()); err == nil {
		t.Fatal("bad grid size accepted")
	}
	c = optics.Default()
	if _, err := New(c, resist.Model{Threshold: 0.2, ThetaZ: 0}); err == nil {
		t.Fatal("zero resist steepness accepted")
	}
	// A NaN passes every comparison-only bound; both validators refuse it.
	c.NA = math.NaN()
	if _, err := New(c, resist.Default()); err == nil || !strings.Contains(err.Error(), "NA") {
		t.Fatalf("NaN NA: err = %v, want it refused naming NA", err)
	}
	c = optics.Default()
	for _, rm := range []resist.Model{{Threshold: math.NaN(), ThetaZ: 50}, {Threshold: 0.2, ThetaZ: math.NaN()}} {
		if _, err := New(c, rm); err == nil {
			t.Fatalf("resist %+v accepted", rm)
		}
	}
}

// TestBuildPlanesReturnsPlaneError: no optics.Config that New accepts
// makes a kernel build fail, so the failing plane is a simulator made
// around New; its error must come back, naming the plane.
func TestBuildPlanesReturnsPlaneError(t *testing.T) {
	bad := testSim(t).Cfg
	bad.NA = 0
	err := (&Simulator{Cfg: bad}).BuildPlanes(ProcessCorners(25, 0.02))
	if err == nil || !strings.Contains(err.Error(), "0 nm defocus") || !strings.Contains(err.Error(), "NA must be positive") {
		t.Fatalf("err = %v, want the nominal plane's build error", err)
	}
}

// TestCornerNamesDoNotGrowMetrics: a corner's name is a caller's string
// and must never become a series. A hundred distinct names image under
// the shared custom label; at the parent each registered its own
// span_sim_aerial_<name>_seconds for the life of the process.
func TestCornerNamesDoNotGrowMetrics(t *testing.T) {
	s := testSim(t)
	m := lineMask(64, 8)
	series := func() int { return strings.Count(obs.MetricsText(), "# TYPE ") }
	custom := obs.NewHistogram("span_sim_aerial_custom_seconds")
	before, observed := series(), custom.Count()
	for i := 0; i < 100; i++ {
		c := Corner{Name: fmt.Sprintf("sweep-%d", i), Dose: 1}
		if _, err := s.Aerial(m, c); err != nil {
			t.Fatal(err)
		}
		if _, err := s.AerialCombined(m, c); err != nil {
			t.Fatal(err)
		}
	}
	if got := series(); got != before {
		t.Errorf("%d metric series after a hundred corner names, %d before", got, before)
	}
	if got := custom.Count() - observed; got != 100 {
		t.Errorf("span_sim_aerial_custom_seconds took %d observations, want 100", got)
	}
	for _, c := range ProcessCorners(25, 0.02) {
		if got := obs.SimAerial[c.SpanLabel()].String(); got != "sim.aerial."+c.Name {
			t.Errorf("corner %q times under %q", c.Name, got)
		}
	}
}
