package sim

import (
	"math"
	"testing"

	"mosaic/internal/optics"
	"mosaic/internal/resist"
)

// calibrated returns the threshold CalibrateThreshold gives the default
// optics on a field of fieldNM at pixelNM.
func calibrated(t *testing.T, fieldNM, pixelNM float64) float64 {
	t.Helper()
	c := optics.Default()
	c.GridSize, c.PixelNM = int(fieldNM/pixelNM), pixelNM
	s, err := New(c, resist.Default())
	if err != nil {
		t.Fatal(err)
	}
	thr, err := s.CalibrateThreshold()
	if err != nil {
		t.Fatal(err)
	}
	return thr
}

// TestCalibrationDependsOnFieldExtent records a known defect (DESIGN.md
// § 3): CalibrateThreshold images a clear line a quarter of the field
// wide, so the resist threshold follows the setup's field extent — a
// 512-nm tile core prints with another resist than a 1024-nm clip. The
// table is logged, not asserted: calibrating on one physical line moves
// every tiled mask. What must survive that fix is asserted: at one field
// extent the threshold does not depend on the pixel size. A 4096-nm field
// (0.3131) is left out: its kernel build takes over a minute.
func TestCalibrationDependsOnFieldExtent(t *testing.T) {
	fields := []float64{256, 512, 1024, 2048}
	if testing.Short() {
		fields = fields[:3] // the 2048-nm kernel build takes seconds
	}
	for _, f := range fields {
		t.Logf("field %4.0f nm at 8 nm/px: threshold %.4f", f, calibrated(t, f, 8))
	}
	coarse, fine := calibrated(t, 512, 8), calibrated(t, 512, 2)
	if d := math.Abs(fine-coarse) / fine; d > 0.01 {
		t.Fatalf("512-nm field: threshold %.4f at 8 nm/px, %.4f at 2 nm/px (%.2f %% apart, want <= 1 %%)", coarse, fine, 100*d)
	}
}
