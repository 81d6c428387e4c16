package ilt

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"mosaic/internal/bench"
	"mosaic/internal/cpuid"
)

// edgeValues are what a lane can meet besides ordinary values: signed
// zeros, subnormals, infinities and NaN.
var edgeValues = []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2e-308, math.Inf(1), math.Inf(-1), math.NaN()}

// sameFloat reports whether a and b are the same float64, NaN matching NaN
// whatever its payload.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// wTerms are the terms of W as sensitivity calls them, over w, z, t and
// epeW of one length and the scalars c (Beta's 2*Beta), thetaZ and dose.
var wTerms = []struct {
	name string
	add  func(w, z, t, epeW []float64, c, thetaZ, dose float64)
}{
	{"beta", func(w, z, t, _ []float64, c, th, d float64) { wBeta(w, z, t, c, th, d) }},
	{"fast", func(w, z, t, _ []float64, _, th, d float64) { wFast(w, z, t, 4, th, d) }},
	{"exact", func(w, z, t, e []float64, _, th, d float64) { wExact(w, z, t, e, th, d) }},
}

// checkWTerm holds one term over the lines to its Go loop, bit for bit.
func checkWTerm(t *testing.T, term int, w, z, tg, epeW []float64, c, thetaZ, dose float64) {
	t.Helper()
	defer func(v bool) { cpuid.PixelAVX = v }(cpuid.PixelAVX)
	want := append([]float64(nil), w...)
	cpuid.PixelAVX = false
	wTerms[term].add(want, z, tg, epeW, c, thetaZ, dose)
	got := append([]float64(nil), w...)
	cpuid.PixelAVX = cpuid.AVX
	wTerms[term].add(got, z, tg, epeW, c, thetaZ, dose)
	for i := range got {
		if !sameFloat(got[i], want[i]) {
			t.Fatalf("%s, n=%d: vector w[%d] = %v (%#x), Go %v (%#x); z=%v t=%v epeW=%v w=%v c=%v thetaZ=%v dose=%v",
				wTerms[term].name, len(w), i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]),
				z[i], tg[i], epeW[i], w[i], c, thetaZ, dose)
		}
	}
}

// TestWTermsMatchGo: every term of W, on every length 0-67 and on prints,
// targets, weights and prior sums salted with edgeValues, adds the same
// bits on the vector kernel as on the Go loop.
func TestWTermsMatchGo(t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	line := func(n int, f func() float64) []float64 {
		x := make([]float64, n)
		for i := range x {
			x[i] = f()
			if rng.Intn(8) == 0 {
				x[i] = edgeValues[rng.Intn(len(edgeValues))]
			}
		}
		return x
	}
	for n := range 68 {
		for term := range wTerms {
			w := line(n, rng.NormFloat64)
			z := line(n, rng.Float64)
			tg := line(n, func() float64 { return float64(rng.Intn(2)) })
			e := line(n, rng.Float64)
			checkWTerm(t, term, w, z, tg, e, 2*0.7, 50, []float64{1, 0.98, 1.02}[rng.Intn(3)])
		}
	}
}

// FuzzSensitivity: for arbitrary bits in every input of a term of W —
// prior sum, print, target, EPE weight, the scalars — and lengths 0-67,
// the vector kernel adds the Go loop's bits (NaN by NaN-ness).
func FuzzSensitivity(f *testing.F) {
	bits := func(vs ...float64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(uint8(0), uint8(67), bits(0.3, 0.7, 1, 0, 0.5, 1, 50, 0.98))
	f.Add(uint8(1), uint8(9), bits(append(edgeValues, 0.5, 50)...))
	f.Add(uint8(2), uint8(6), bits(math.NaN(), math.Inf(-1), 5e-324, math.Copysign(0, -1), 1e308, 2))
	f.Fuzz(func(t *testing.T, term, n uint8, data []byte) {
		if !cpuid.AVX {
			t.Skip("no AVX: the Go loops are the only path")
		}
		k := 0
		next := func() float64 {
			if len(data) < 8 {
				return 0
			}
			off := 8 * (k % (len(data) / 8))
			k++
			return math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
		}
		l := int(n % 68)
		lines := make([][]float64, 4)
		for j := range lines {
			lines[j] = make([]float64, l)
		}
		for i := range l {
			for j := range lines {
				lines[j][i] = next()
			}
		}
		checkWTerm(t, int(term)%len(wTerms), lines[0], lines[1], lines[2], lines[3], next(), next(), next())
	})
}

// BenchmarkPassSensitivity is each term of W at the benchmark's 128-px
// mask grid on the Go loop and the kernel.
func BenchmarkPassSensitivity(b *testing.B) {
	const n = 128 * 128
	rng := rand.New(rand.NewSource(1))
	w, z, tg, e := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range z {
		z[i], tg[i], e[i] = rng.Float64(), float64(rng.Intn(2)), rng.Float64()
	}
	defer func(v bool) { cpuid.PixelAVX = v }(cpuid.PixelAVX)
	for _, term := range wTerms {
		for _, path := range []string{"go", "vector"} {
			if path == "vector" && !cpuid.AVX {
				continue
			}
			b.Run(term.name+"/"+path, func(b *testing.B) {
				cpuid.PixelAVX = path == "vector"
				for b.Loop() {
					clear(w)
					term.add(w, z, tg, e, 1, 50, 1)
				}
			})
		}
	}
}

// TestPixelKernelsKeepIterateBits: a fast and an exact B-clip at the
// benchmark's 128 px, once with every per-pixel kernel (cpuid.PixelAVX:
// W's terms, the band count, the folds, fft's fill and store) held to its
// Go loop and once on it, agree bit for bit on the shipped mask and on each
// iterate's objective, proxy score, gradient RMS and gray mask.
func TestPixelKernelsKeepIterateBits(t *testing.T) {
	if !cpuid.AVX {
		t.Skip("no AVX: the Go loops are the only path")
	}
	s := benchSim(t)
	defer func(v bool) { cpuid.PixelAVX = v }(cpuid.PixelAVX)
	type iterate struct {
		objective, proxy, gradRMS float64
		gray                      [sha256.Size]byte
	}
	for _, c := range []struct {
		clip string
		mode Mode
	}{{"B4", ModeFast}, {"B7", ModeExact}} {
		layout, err := bench.Layout(c.clip)
		if err != nil {
			t.Fatal(err)
		}
		trace := func(on bool) ([]iterate, [2][sha256.Size]byte) {
			cpuid.PixelAVX = on
			var its []iterate
			cfg := DefaultConfig(c.mode)
			cfg.OnIter = func(st IterStats) {
				its = append(its, iterate{st.Objective, st.ProxyScore, st.GradRMS, bitsOf(st.MaskGray)})
			}
			o, err := New(s, cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := run(o, layout)
			if err != nil {
				t.Fatal(err)
			}
			return its, [2][sha256.Size]byte{bitsOf(res.Mask), bitsOf(res.MaskGray)}
		}
		goIts, goRes := trace(false)
		vecIts, vecRes := trace(true)
		if len(vecIts) != len(goIts) || len(goIts) == 0 {
			t.Fatalf("%s %v: %d iterates on the kernels, %d on the Go loops", c.clip, c.mode, len(vecIts), len(goIts))
		}
		for i, g := range goIts {
			v := vecIts[i]
			if math.Float64bits(v.objective) != math.Float64bits(g.objective) || math.Float64bits(v.proxy) != math.Float64bits(g.proxy) ||
				math.Float64bits(v.gradRMS) != math.Float64bits(g.gradRMS) || v.gray != g.gray {
				t.Fatalf("%s %v iterate %d: kernels %+v, Go loops %+v", c.clip, c.mode, i, v, g)
			}
		}
		if vecRes != goRes {
			t.Fatalf("%s %v: the shipped masks differ", c.clip, c.mode)
		}
		t.Logf("%s %v: %d iterates bit-equal", c.clip, c.mode, len(goIts))
	}
}
