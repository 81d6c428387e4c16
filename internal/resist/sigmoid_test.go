package resist

import (
	"math"
	"math/rand"
	"testing"

	"mosaic/internal/cpuid"
	"mosaic/internal/grid"
)

// paths lists the SigmoidInto loops this host can run: Go, and the vector
// kernel where it is selected.
func paths() []string {
	if vector {
		return []string{"go", "vector"}
	}
	return []string{"go"}
}

// onPath runs f with SigmoidInto held to one of paths().
func onPath(path string, f func()) {
	defer func(v bool) { vector = v }(vector)
	vector = path == "vector"
	f()
}

// sameSigmoid reports whether a and b are the same float64, NaN matching
// NaN whatever its payload.
func sameSigmoid(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// checkSigmoidInto holds SigmoidInto over x to Model.Sigmoid element by
// element and returns the first mismatch's index, or -1.
func checkSigmoidInto(x []float64, s, th, theta float64) (int, float64, float64) {
	got := make([]float64, len(x))
	SigmoidInto(got, x, s, th, theta)
	m := Model{Threshold: th, ThetaZ: theta}
	for i, v := range x {
		if want := m.Sigmoid(v * s); !sameSigmoid(got[i], want) {
			return i, got[i], want
		}
	}
	return -1, 0, 0
}

// edgeValues are the classes a vector lane can meet beside ordinary
// intensities: signed zeros, subnormals, infinities, NaN, values whose
// exp argument sits on either side of the kernel's [-708, 709] range, of
// exp's overflow at 709.78 and of its underflow to a subnormal and to 0.
var edgeValues = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2e-308, math.MaxFloat64, -math.MaxFloat64,
	math.Inf(1), math.Inf(-1), math.NaN(),
	-708, -708.0000001, -707.9999999, 709, 709.0000001, 708.9999999,
	709.78, 709.79, -740, -745.2, -746, 1e300, -1e300,
}

// TestSigmoidIntoMatchesSigmoid: over 1.2 M inputs the kernel — and the Go
// loop it is held to — equals Model.Sigmoid bit for bit: random
// intensities at the process-window doses, mask parameters through Eq. 8's
// s = 1, t = 0, and lines salted with edgeValues at every lane and with
// lengths that leave a tail.
func TestSigmoidIntoMatchesSigmoid(t *testing.T) {
	if vector {
		t.Log("vector kernel selected: AVX2+FMA, and math.Exp takes its FMA branch (agrees on expProbes)")
	} else {
		t.Logf("vector kernel off (cpuid.AVX2FMA = %v): the Go loop only", cpuid.AVX2FMA)
	}
	rng := rand.New(rand.NewSource(53))
	type line struct {
		x            []float64
		s, th, theta float64
	}
	var lines []line
	for range 200 {
		x := make([]float64, 4096+rng.Intn(4))
		for i := range x {
			x[i] = 1.5 * rng.Float64()
		}
		s := []float64{0.98, 1, 1.02}[rng.Intn(3)]
		lines = append(lines, line{x, s, 0.225, 50})
	}
	for range 100 {
		x := make([]float64, 4096+rng.Intn(4))
		for i := range x {
			x[i] = 20 * rng.NormFloat64()
		}
		lines = append(lines, line{x, 1, 0, 4})
	}
	for range 2000 {
		x := make([]float64, 1+rng.Intn(40))
		for i := range x {
			x[i] = rng.NormFloat64()
			if rng.Intn(3) == 0 {
				x[i] = edgeValues[rng.Intn(len(edgeValues))]
			}
		}
		lines = append(lines, line{x, 1, 0, 1})
		lines = append(lines, line{x, 1, 0.225, 50})
	}
	n := 0
	for _, path := range paths() {
		onPath(path, func() {
			for _, l := range lines {
				n += len(l.x)
				if i, got, want := checkSigmoidInto(l.x, l.s, l.th, l.theta); i >= 0 {
					t.Fatalf("%s: x=%v s=%v t=%v theta=%v: %v (%#x), Sigmoid %v (%#x)", path, l.x[i], l.s, l.th, l.theta,
						got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		})
	}
	t.Logf("%d inputs", n)
}

// FuzzSigmoid: for arbitrary intensities, dose, threshold and steepness,
// SigmoidInto equals Model.Sigmoid bit for bit (NaN by NaN-ness). Five
// lanes: one block of four for the kernel and a tail for the Go loop.
func FuzzSigmoid(f *testing.F) {
	f.Add(0.1, 0.2, 0.225, 0.5, 1.0, 1.0, 0.225, 50.0)
	f.Add(-1.0, 3.0, 0.0, 1e-310, math.Inf(1), 1.02, 0.225, 50.0)
	f.Add(14.2, -14.2, 177.0, -177.0, 0.0, 1.0, 0.0, 4.0)
	f.Fuzz(func(t *testing.T, x0, x1, x2, x3, x4, dose, th, theta float64) {
		x := []float64{x0, x1, x2, x3, x4}
		if i, got, want := checkSigmoidInto(x, dose, th, theta); i >= 0 {
			t.Fatalf("x=%v dose=%v t=%v theta=%v: %v, Sigmoid %v", x[i], dose, th, theta, got, want)
		}
	})
}

// BenchmarkPrintSigmoid is Eq. 4 over a 128 x 128 aerial image (16 k
// pixels, the benchmark's mask grid), on each path: go against vector is
// the kernel's speed-up.
func BenchmarkPrintSigmoid(b *testing.B) {
	m := Default()
	img := grid.New(128, 128)
	rng := rand.New(rand.NewSource(1))
	for i := range img.Data {
		img.Data[i] = 0.5 * rng.Float64()
	}
	dst := grid.NewLike(img)
	for _, path := range paths() {
		b.Run(path, func(b *testing.B) {
			onPath(path, func() {
				for range b.N {
					m.PrintSigmoidInto(dst, img, 1)
				}
			})
		})
	}
}
