package resist

import (
	"math"
	"math/rand"
	"testing"
)

// On amd64, math.Exp is the assembly routine of math/exp_amd64.s, which
// takes one of two instruction sequences by CPU feature: with AVX and FMA
// the argument reduction and the Taylor polynomial are fused multiply-adds
// (one rounding each), without them every product is rounded before its
// sum. The two round differently, so one amd64 binary prints different
// sigmoids — hence different masks and keys — on two amd64 hosts. The
// numeric-platform class is therefore GOARCH plus, on amd64, FMA or not
// (ROADMAP item 11). The functions below transliterate both sequences for
// finite arguments; the test says which one this host runs.

const (
	expLog2E    = 1.4426950408889634073599246810018920
	expLn2U     = 0.69314718055966295651160180568695068359375
	expLn2L     = 0.28235290563031577122588448175013436025525412068e-12
	expOverflow = 7.09782712893384e+02
)

// expTaylor holds exprodata+24 ... +64 of the assembly: 1/3! ... 1/8!.
var expTaylor = [...]float64{
	2.4801587301587301587e-5, 1.9841269841269841270e-4, 1.3888888888888888889e-3,
	8.3333333333333333333e-3, 4.1666666666666666667e-2, 1.6666666666666666667e-1,
}

// expAsm is archExp for a finite x: the shared range reduction, then the
// fused or the unfused sequence, then the scaling by 2^e with its
// subnormal branch.
func expAsm(x float64, fused bool) float64 {
	if x > expOverflow {
		return math.Inf(1)
	}
	e := int32(math.RoundToEven(expLog2E * x)) // CVTSD2SL, round to nearest even
	k := float64(e)
	var r float64
	if fused {
		r = math.FMA(-k, expLn2U, x)
		r = math.FMA(-k, expLn2L, r)
		r *= 0.0625
		p := expTaylor[0]
		for _, c := range expTaylor[1:] {
			p = math.FMA(p, r, c)
		}
		p = math.FMA(p, r, 0.5)
		p = math.FMA(p, r, 1)
		r *= p
		for range 3 {
			r *= r + 2
		}
		r = math.FMA(r, r+2, 1)
	} else {
		r = x - float64(expLn2U*k)
		r -= float64(expLn2L * k)
		r *= 0.0625
		p := expTaylor[0]
		for _, c := range expTaylor[1:] {
			p = float64(p*r) + c
		}
		p = float64(p*r) + 0.5
		p = float64(p*r) + 1
		r *= p
		for range 4 {
			r *= r + 2
		}
		r++
	}
	b := uint32(e) + 0x3FF // ADDL: 32-bit, zero-extended before SHLQ
	switch {
	case int32(b) <= 0:
		if int32(b) < -52 {
			return 0
		}
		r *= math.Float64frombits(uint64(b+0x3FE) << 52)
		b = 1
	case b >= 0x7FF:
		return math.Inf(1)
	}
	return r * math.Float64frombits(uint64(b)<<52)
}

// TestExpMatchesOneAmd64Sequence: over 1.4 M arguments — the whole finite
// range and, densely, the sigmoid's — math.Exp equals one of the two
// transliterations everywhere, and the two differ somewhere, so this host
// is in exactly one class.
func TestExpMatchesOneAmd64Sequence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var probes []float64
	for range 400_000 {
		probes = append(probes, -745+rng.Float64()*(expOverflow+745))
	}
	for range 1_000_000 {
		probes = append(probes, -40+rng.Float64()*80)
	}
	var missFused, missPlain, differ int
	for _, x := range probes {
		got, f, p := math.Exp(x), expAsm(x, true), expAsm(x, false)
		if got != f {
			missFused++
		}
		if got != p {
			missPlain++
		}
		if f != p {
			differ++
		}
	}
	t.Logf("%d probes: the two sequences differ on %d; math.Exp misses the fused one on %d, the unfused one on %d",
		len(probes), differ, missFused, missPlain)
	switch {
	case differ == 0:
		t.Fatal("the fused and unfused sequences never differ: the probes cannot tell the classes apart")
	case missFused == 0:
		t.Log("this host is amd64 with FMA")
	case missPlain == 0:
		t.Log("this host is amd64 without FMA")
	default:
		t.Fatal("math.Exp matches neither transliteration of math/exp_amd64.s")
	}
}

// TestExpProbesSplitTheSequences: at every argument of expProbes the fused
// and the unfused sequence give different sigmoids, so the kernel (always
// fused) agrees with math.Exp on them only when math.Exp runs fused too.
func TestExpProbesSplitTheSequences(t *testing.T) {
	for _, y := range expProbes {
		if f, p := 1/(1+expAsm(y, true)), 1/(1+expAsm(y, false)); f == p {
			t.Errorf("probe %v: both sequences give %v", y, f)
		}
	}
}
