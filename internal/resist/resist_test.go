package resist

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"mosaic/internal/grid"
)

func TestValidate(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("default model invalid: %v", err)
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		field string
		m     Model
	}{
		{"Threshold", Model{Threshold: nan, ThetaZ: 50}},
		{"Threshold", Model{Threshold: inf, ThetaZ: 50}},
		{"Threshold", Model{Threshold: -inf, ThetaZ: 50}},
		{"ThetaZ", Model{Threshold: 0.225, ThetaZ: nan}},
		{"ThetaZ", Model{Threshold: 0.225, ThetaZ: inf}},
		{"ThetaZ", Model{Threshold: 0.225, ThetaZ: -inf}},
		{"ThetaZ", Model{Threshold: 0.225, ThetaZ: 0}},
		{"ThetaZ", Model{Threshold: 0.225, ThetaZ: -50}},
	} {
		if err := tc.m.Validate(); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%+v: err = %v, want it refused naming %s", tc.m, err, tc.field)
		}
	}
}

func TestSigmoidAtThreshold(t *testing.T) {
	m := Default()
	if got := m.Sigmoid(m.Threshold); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("sigmoid(th_r) = %g, want 0.5", got)
	}
}

func TestSigmoidLimits(t *testing.T) {
	m := Default()
	if m.Sigmoid(m.Threshold+1) < 0.999 {
		t.Fatal("sigmoid does not saturate high")
	}
	if m.Sigmoid(m.Threshold-1) > 0.001 {
		t.Fatal("sigmoid does not saturate low")
	}
}

func TestSigmoidMonotone(t *testing.T) {
	m := Default()
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		lo, hi := math.Min(a, b), math.Max(a, b)
		return m.Sigmoid(lo) <= m.Sigmoid(hi)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPrintDose(t *testing.T) {
	m := Model{Threshold: 0.3, ThetaZ: 50}
	img := grid.FromRows([][]float64{{0.2, 0.31}})
	z := m.Print(img, 1)
	if z.At(0, 0) != 0 || z.At(1, 0) != 1 {
		t.Fatalf("Print: %v", z.Data)
	}
	// Dose 2 pushes 0.2 over the 0.3 threshold.
	z2 := m.Print(img, 2)
	if z2.At(0, 0) != 1 {
		t.Fatal("dose scaling not applied")
	}
}

func TestPrintSigmoidRange(t *testing.T) {
	m := Default()
	img := grid.FromRows([][]float64{{-1, 0, 0.225, 1, 10}})
	z := m.PrintSigmoid(img, 1)
	for i, v := range z.Data {
		// Far from threshold the sigmoid saturates to exactly 0/1 in
		// float64; the range is the closed interval.
		if v < 0 || v > 1 {
			t.Fatalf("pixel %d: sigmoid output %g outside [0,1]", i, v)
		}
	}
	if at := z.Data[2]; at <= 0.4 || at >= 0.6 {
		t.Fatalf("threshold pixel %g, want ~0.5", at)
	}
	// Monotone along the row.
	for i := 1; i < len(z.Data); i++ {
		if z.Data[i] < z.Data[i-1] {
			t.Fatal("PrintSigmoid not monotone in intensity")
		}
	}
}

func TestSigGeneric(t *testing.T) {
	if got := Sig(5, 5, 10); got != 0.5 {
		t.Fatalf("Sig at center: %g", got)
	}
	if Sig(6, 5, 10) <= Sig(5.5, 5, 10) {
		t.Fatal("Sig not increasing")
	}
	// Steeper theta approaches the step function faster.
	if Sig(5.1, 5, 100) <= Sig(5.1, 5, 10) {
		t.Fatal("steepness has no effect")
	}
}
