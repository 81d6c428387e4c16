package grid

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewAndAccessors(t *testing.T) {
	f := New(4, 3)
	if f.W != 4 || f.H != 3 || len(f.Data) != 12 {
		t.Fatalf("bad field: %+v", f)
	}
	f.Set(2, 1, 7)
	if f.At(2, 1) != 7 {
		t.Fatal("Set/At mismatch")
	}
	if f.Data[1*4+2] != 7 {
		t.Fatal("row-major layout violated")
	}
	row := f.Row(1)
	if row[2] != 7 {
		t.Fatal("Row does not share backing store")
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(-1, 3)
}

func TestFromRows(t *testing.T) {
	f := FromRows([][]float64{{1, 2}, {3, 4}})
	if f.At(1, 0) != 2 || f.At(0, 1) != 3 {
		t.Fatal("FromRows layout wrong")
	}
	if FromRows(nil).W != 0 {
		t.Fatal("empty FromRows")
	}
}

func TestCloneIndependent(t *testing.T) {
	f := New(2, 2).Fill(1)
	g := f.Clone()
	g.Set(0, 0, 5)
	if f.At(0, 0) != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestArithmetic(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{10, 20}, {30, 40}})
	if got := a.Clone().Add(b).At(1, 1); got != 44 {
		t.Errorf("Add: %g", got)
	}
	if got := a.Clone().AddScaled(b, 0.5).At(0, 0); got != 6 {
		t.Errorf("AddScaled: %g", got)
	}
	if got := a.Dot(b); got != 10+40+90+160 {
		t.Errorf("Dot: %g", got)
	}
	if got := a.Sum(); got != 10 {
		t.Errorf("Sum: %g", got)
	}
}

func TestDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 2).Add(New(3, 2))
}

func TestMinMaxRMS(t *testing.T) {
	f := FromRows([][]float64{{-3, 0}, {4, 0}})
	lo, hi := f.MinMax()
	if lo != -3 || hi != 4 {
		t.Fatalf("MinMax: %g %g", lo, hi)
	}
	want := math.Sqrt((9 + 16) / 4.0)
	if math.Abs(f.RMS()-want) > 1e-12 {
		t.Fatalf("RMS: %g want %g", f.RMS(), want)
	}
}

func TestThresholdAndCount(t *testing.T) {
	f := FromRows([][]float64{{0.1, 0.5}, {0.9, 0.5}})
	b := f.Threshold(0.5)
	if b.At(0, 0) != 0 || b.At(0, 1) != 1 || b.At(1, 0) != 0 {
		t.Fatal("Threshold wrong (strict >)")
	}
}

func TestCropPaste(t *testing.T) {
	f := New(4, 4)
	f.Set(2, 1, 5)
	c := f.Crop(1, 0, 3, 3)
	if c.At(1, 1) != 5 {
		t.Fatal("Crop misaligned")
	}
}

func TestDownUpSample(t *testing.T) {
	f := FromRows([][]float64{
		{1, 1, 2, 2},
		{1, 1, 2, 2},
		{3, 3, 4, 4},
		{3, 3, 4, 4},
	})
	d := f.Downsample(2)
	if d.W != 2 || d.At(0, 0) != 1 || d.At(1, 1) != 4 {
		t.Fatalf("Downsample: %+v", d)
	}
}

func TestEqual(t *testing.T) {
	a := New(2, 2).Fill(1)
	b := New(2, 2).Fill(1.0005)
	if !a.Equal(b, 1e-3) {
		t.Fatal("Equal too strict")
	}
	if a.Equal(b, 1e-6) {
		t.Fatal("Equal too loose")
	}
	if a.Equal(New(2, 3), 1) {
		t.Fatal("Equal ignores dimensions")
	}
}

// Property: adding b and then subtracting it (AddScaled by -1) returns the
// original field.
func TestAddSubRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := New(8, 8)
		b := New(8, 8)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
			b.Data[i] = rng.NormFloat64()
		}
		orig := a.Clone()
		a.Add(b).AddScaled(b, -1)
		return a.Equal(orig, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: Dot(a, a) == RMS(a)^2 * len.
func TestDotRMSConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := New(6, 5)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		lhs := a.Dot(a)
		r := a.RMS()
		rhs := r * r * float64(len(a.Data))
		return math.Abs(lhs-rhs) < 1e-9*(1+math.Abs(lhs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCFieldOps(t *testing.T) {
	c := NewC(2, 2)
	c.Set(0, 0, complex(3, 4))
	if c.At(0, 0) != complex(3, 4) {
		t.Fatal("Set/At")
	}
	a := c.Abs2()
	if a.At(0, 0) != 25 {
		t.Fatalf("Abs2: %g", a.At(0, 0))
	}
	dst := New(2, 2)
	c.AccumAbs2(dst, 2)
	if dst.At(0, 0) != 50 {
		t.Fatalf("AccumAbs2: %g", dst.At(0, 0))
	}
}

func TestToComplexRoundTrip(t *testing.T) {
	f := FromRows([][]float64{{1, 2}, {3, 4}})
	c := ToComplex(f)
	for i, v := range f.Data {
		if c.Data[i] != complex(v, 0) {
			t.Fatalf("ToComplex: element %d is %v, want %g+0i", i, c.Data[i], v)
		}
	}
}

func TestCFieldMulAddScale(t *testing.T) {
	a := NewC(1, 2)
	a.Data[0] = 2
	a.Data[1] = complex(0, 1)
	b := NewC(1, 2)
	b.Data[0] = 3
	b.Data[1] = complex(0, 1)
	m := a.Clone().MulC(b)
	if m.Data[0] != 6 || m.Data[1] != -1 {
		t.Fatalf("MulC: %v", m.Data)
	}
	s := a.Clone().AddC(b)
	if s.Data[0] != 5 {
		t.Fatalf("AddC: %v", s.Data)
	}
	sc := a.Clone().ScaleC(complex(0, 2))
	if sc.Data[0] != complex(0, 4) {
		t.Fatalf("ScaleC: %v", sc.Data)
	}
}

func TestCropOutOfBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(4, 4).Crop(2, 2, 3, 3)
}

func TestDownsampleBadFactorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(6, 6).Downsample(4)
}

func TestMinMaxEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0, 0).MinMax()
}
