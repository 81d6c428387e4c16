// Package optics implements the optical projection model of the forward
// lithography process (Sec. 2 of the MOSAIC paper): a scalar pupil with
// defocus, a partially coherent (annular or circular) source, the Hopkins
// transmission-cross-coefficient (TCC) matrix of the partially coherent
// imaging system, and its sum-of-coherent-systems (SOCS) decomposition into
// weighted convolution kernels (Eq. 1-2).
//
// The ICCAD 2013 contest distributed a proprietary 24-kernel SOCS model;
// this package rebuilds the same mathematical object from first principles
// (193 nm scalar imaging), so every downstream code path — convolution with
// a weighted kernel stack, corner kernels for defocus, the combined-kernel
// speedup of Eq. 21 — exercises exactly the structure the paper relies on.
package optics

import (
	"context"
	"fmt"
	"math"
	"time"

	"mosaic/internal/grid"
	"mosaic/internal/linalg"
	"mosaic/internal/obs"
	"mosaic/internal/par"
)

// Config describes the imaging system and the mask sampling grid.
type Config struct {
	WavelengthNM float64 // exposure wavelength, paper: 193 nm
	NA           float64 // numerical aperture
	SigmaIn      float64 // inner partial coherence of annular source (0 for circular)
	SigmaOut     float64 // outer partial coherence
	PixelNM      float64 // mask pixel size in nm, paper: 1 nm/px
	GridSize     int     // mask is GridSize x GridSize pixels (power of two)
	Kernels      int     // SOCS order, paper: 24
}

// Default returns the configuration used throughout the paper's
// experiments: 193 nm immersion-class imaging on a 1024 x 1024 nm clip.
// GridSize/PixelNM are chosen so GridSize*PixelNM = 1024 nm.
func Default() Config {
	return Config{
		WavelengthNM: 193,
		NA:           1.35,
		SigmaIn:      0.6,
		SigmaOut:     0.9,
		PixelNM:      2,
		GridSize:     512,
		Kernels:      24,
	}
}

// Validate reports a descriptive error for physically or numerically
// invalid configurations. Every float must be finite first, so no bound
// below is passed by a NaN.
func (c Config) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"WavelengthNM", c.WavelengthNM}, {"NA", c.NA}, {"SigmaIn", c.SigmaIn},
		{"SigmaOut", c.SigmaOut}, {"PixelNM", c.PixelNM},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("optics: %s must be finite, got %g", f.name, f.v)
		}
	}
	switch {
	case c.WavelengthNM <= 0:
		return fmt.Errorf("optics: wavelength must be positive, got %g", c.WavelengthNM)
	case c.NA <= 0:
		return fmt.Errorf("optics: NA must be positive, got %g", c.NA)
	case c.SigmaOut <= 0 || c.SigmaOut > 1:
		return fmt.Errorf("optics: sigma_out must be in (0, 1], got %g", c.SigmaOut)
	case c.SigmaIn < 0 || c.SigmaIn >= c.SigmaOut:
		return fmt.Errorf("optics: sigma_in must be in [0, sigma_out), got %g", c.SigmaIn)
	case c.PixelNM <= 0:
		return fmt.Errorf("optics: pixel size must be positive, got %g", c.PixelNM)
	case c.GridSize <= 0 || c.GridSize&(c.GridSize-1) != 0:
		return fmt.Errorf("optics: grid size must be a positive power of two, got %d", c.GridSize)
	case c.Kernels <= 0:
		return fmt.Errorf("optics: kernel count must be positive, got %d", c.Kernels)
	}
	return nil
}

// FieldNM returns the physical side length of the simulated clip in nm.
func (c Config) FieldNM() float64 { return float64(c.GridSize) * c.PixelNM }

// freqStep returns the frequency sampling interval in 1/nm on the mask
// spectrum grid.
func (c Config) freqStep() float64 { return 1 / c.FieldNM() }

// BandLimitK returns the half-width (in frequency samples) of the central
// spectrum block that can carry nonzero amplitude through the imaging
// system: |f| <= (1+sigma_out) * NA / lambda, at most the (GridSize-1)/2
// the grid holds. The bound is taken before the conversion to int, so a
// band that overflows a float64 is clamped rather than converted.
func (c Config) BandLimitK() int {
	fmax := (1 + c.SigmaOut) * c.NA / c.WavelengthNM
	k := math.Ceil(fmax / c.freqStep())
	if maxK := (c.GridSize - 1) / 2; !(k <= float64(maxK)) {
		return maxK
	}
	return int(k)
}

// Pupil evaluates the scalar pupil function at spatial frequency (fx, fy)
// in 1/nm with the given defocus in nm. Inside the aperture |f| <= NA/lambda
// the pupil has unit modulus and a paraxial defocus phase
// exp(-i * pi * lambda * defocus * |f|^2); outside it is zero.
func (c Config) Pupil(fx, fy, defocusNM float64) complex128 {
	f2 := fx*fx + fy*fy
	cut := c.NA / c.WavelengthNM
	if f2 > cut*cut {
		return 0
	}
	if defocusNM == 0 {
		return 1
	}
	phase := -math.Pi * c.WavelengthNM * defocusNM * f2
	s, cs := math.Sincos(phase)
	return complex(cs, s)
}

// SourcePoints discretizes the partially coherent source into equally
// weighted points on the frequency plane (1/nm). The source fills the
// annulus sigma_in*NA/lambda <= |f| <= sigma_out*NA/lambda on a Cartesian
// sub-grid fine enough to give a smooth TCC.
func (c Config) SourcePoints() (pts [][2]float64, weight float64) {
	rOut := c.SigmaOut * c.NA / c.WavelengthNM
	rIn := c.SigmaIn * c.NA / c.WavelengthNM
	// Sample the source on a fixed 15x15 sub-grid of the bounding square.
	const n = 15
	step := 2 * rOut / float64(n-1)
	for iy := 0; iy < n; iy++ {
		fy := -rOut + float64(iy)*step
		for ix := 0; ix < n; ix++ {
			fx := -rOut + float64(ix)*step
			r2 := fx*fx + fy*fy
			if r2 <= rOut*rOut && r2 >= rIn*rIn {
				pts = append(pts, [2]float64{fx, fy})
			}
		}
	}
	if len(pts) == 0 {
		// Degenerate source (e.g. vanishing annulus): fall back to a single
		// on-axis point, i.e. coherent illumination.
		pts = append(pts, [2]float64{0, 0})
	}
	return pts, 1 / float64(len(pts))
}

// shiftedPupils evaluates the pupil at every (frequency sample + source
// point) pair of the central block of half-width BandLimitK:
// pupilAt[s][a] = P(f_a + f_s), samples enumerated row-major over the
// (2k+1) x (2k+1) block, index 0 at fx = fy = -k*df. w is the weight every
// source point carries.
func shiftedPupils(c Config, defocusNM float64) (pupilAt [][]complex128, w float64) {
	k := c.BandLimitK()
	n := 2*k + 1
	df := c.freqStep()
	pts, w := c.SourcePoints()
	pupilAt = make([][]complex128, len(pts))
	for s, p := range pts {
		row := make([]complex128, n*n)
		idx := 0
		for iy := -k; iy <= k; iy++ {
			fy := float64(iy)*df + p[1]
			for ix := -k; ix <= k; ix++ {
				fx := float64(ix)*df + p[0]
				row[idx] = c.Pupil(fx, fy, defocusNM)
				idx++
			}
		}
		pupilAt[s] = row
	}
	return pupilAt, w
}

// BuildTCC assembles the dense Hopkins TCC matrix over the central
// frequency block (see shiftedPupils for the sample order):
// T[a][b] = sum_s J(s) P(f_a + f_s) conj(P(f_b + f_s)). It visits every
// pair of samples, three quarters of which no source point joins, and is
// kept as the reference the tests hold newSparseTCC to; BuildKernels does
// not call it.
func BuildTCC(c Config, defocusNM float64) *linalg.CMatrix {
	pupilAt, w := shiftedPupils(c, defocusNM)
	dim := len(pupilAt[0])
	t := linalg.NewCMatrix(dim, dim)
	for a := 0; a < dim; a++ {
		for b := a; b < dim; b++ {
			var sum complex128
			for s := range pupilAt {
				pa := pupilAt[s][a]
				if pa == 0 {
					continue
				}
				pb := pupilAt[s][b]
				if pb == 0 {
					continue
				}
				sum += pa * complex(real(pb), -imag(pb))
			}
			sum *= complex(w, 0)
			t.Set(a, b, sum)
			if a != b {
				t.Set(b, a, complex(real(sum), -imag(sum)))
			}
		}
	}
	return t
}

// sparseTCC is the matrix of BuildTCC in row-compressed form: a row keeps
// only the columns some source point puts inside the pupil together with
// it, ascending. At the default annulus that is a quarter of the entries;
// every other entry of the dense matrix is an exact zero.
//
// The stored values and the products of Apply are those of the dense path
// bit for bit, which the kernel set needs (see DESIGN.md, "The TCC
// operator"): each entry adds the same terms in the same (ascending
// source) order, and a row of Apply adds the same products in the same
// (ascending column) order minus the ones with a zero factor — each of
// which is a zero, added to a running sum that starts at +0 and therefore
// is never -0, so leaving it out changes no bit of the sum.
type sparseTCC struct {
	rowPtr []int // row i is cols/vals[rowPtr[i]:rowPtr[i+1]], cols ascending
	cols   []int32
	vals   []complex128
}

func (t *sparseTCC) Dim() int { return len(t.rowPtr) - 1 }

// Apply computes y = T x into a fresh slice (linalg.HermOp).
func (t *sparseTCC) Apply(x []complex128) []complex128 {
	y := make([]complex128, t.Dim())
	for i := range y {
		lo, hi := t.rowPtr[i], t.rowPtr[i+1]
		cols := t.cols[lo:hi]
		var s complex128
		for p, v := range t.vals[lo:hi] {
			s += v * x[cols[p]]
		}
		y[i] = s
	}
	return y
}

// newSparseTCC assembles the TCC source point by source point over the
// samples each one puts inside the pupil — sum_s nnz_s^2 products instead
// of dim^2 * S visited pairs — without ever holding a dim x dim array.
func newSparseTCC(c Config, defocusNM float64) *sparseTCC {
	pupilAt, w := shiftedPupils(c, defocusNM)
	dim := len(pupilAt[0])

	// in[s] lists the samples source point s puts inside the pupil,
	// ascending.
	in := make([][]int32, len(pupilAt))
	for s, row := range pupilAt {
		for a, p := range row {
			if p != 0 {
				in[s] = append(in[s], int32(a))
			}
		}
	}

	// A row holds the union of the lists of the source points that reach it.
	t := &sparseTCC{rowPtr: make([]int, dim+1)}
	counted := make([]int, dim) // row (+1) that last counted this column
	for a := 0; a < dim; a++ {
		n := 0
		for s, list := range in {
			if pupilAt[s][a] == 0 {
				continue
			}
			for _, b := range list {
				if counted[b] != a+1 {
					counted[b] = a + 1
					n++
				}
			}
		}
		t.rowPtr[a+1] = t.rowPtr[a] + n
	}
	t.cols = make([]int32, t.rowPtr[dim])
	t.vals = make([]complex128, t.rowPtr[dim])

	// Values as BuildTCC forms them: the upper triangle of row a summed in
	// source order, scaled by w, and mirrored by conjugation into the rows
	// below — which, filled in ascending a, have received their columns
	// left of the diagonal in ascending order when their own turn comes.
	next := append([]int(nil), t.rowPtr[:dim]...) // next free slot of each row
	put := func(row, col int, v complex128) {
		t.cols[next[row]], t.vals[next[row]] = int32(col), v
		next[row]++
	}
	from := make([]int, len(in)) // how many samples of in[s] lie below row a
	sums := make([]complex128, dim)
	touched := make([]bool, dim)
	for a := 0; a < dim; a++ {
		for s, list := range in {
			row := pupilAt[s]
			pa := row[a]
			if pa == 0 {
				continue
			}
			for _, b := range list[from[s]:] { // a itself and the samples above it
				pb := row[b]
				sums[b] += pa * complex(real(pb), -imag(pb))
				touched[b] = true
			}
			from[s]++
		}
		for b := a; b < dim; b++ {
			if !touched[b] {
				continue
			}
			sum := sums[b] * complex(w, 0)
			sums[b], touched[b] = 0, false
			put(a, b, sum)
			if a != b {
				put(b, a, complex(real(sum), -imag(sum)))
			}
		}
	}
	return t
}

// KernelSet is the SOCS decomposition of the imaging system: I(x,y) =
// sum_k Weights[k] * |M conv kernel_k|^2 (Eq. 1-2). Kernels are stored as
// their frequency response on the central (2K+1) x (2K+1) block of the mask
// spectrum; the imaging system passes no energy outside this block.
type KernelSet struct {
	Cfg       Config
	DefocusNM float64
	K         int            // half-width of the frequency block
	Freqs     []*grid.CField // per-kernel frequency response, (2K+1)^2
	Weights   []float64      // eigenvalues, descending, normalized (see below)
}

// Kernel construction is the dominant startup cost; the span histogram
// and gauge make it visible on a /metrics scrape.
var (
	kernelBuilds = obs.NewCounter("optics_kernel_builds_total")
	socsOrder    = obs.NewGauge("optics_socs_order")
)

// BuildKernels constructs the SOCS kernel set for the given defocus by
// eigendecomposing the TCC. Weights are normalized so that a fully clear
// mask images to intensity 1.0 (open-frame normalization), which fixes the
// absolute intensity scale the resist threshold refers to.
func BuildKernels(c Config, defocusNM float64) (*KernelSet, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	_, sp := obs.StartSpan(context.Background(), obs.OpticsBuildKernels)
	tcc := newSparseTCC(c, defocusNM)
	nk := c.Kernels
	if nk > tcc.Dim() {
		nk = tcc.Dim()
	}
	eig, vecs := linalg.HermEigTopK(tcc, nk, 200, 1e-9)

	k := c.BandLimitK()
	n := 2*k + 1
	ks := &KernelSet{Cfg: c, DefocusNM: defocusNM, K: k}
	for i := 0; i < nk; i++ {
		if eig[i] < 1e-12*eig[0] {
			break // numerically zero modes carry no image content
		}
		f := grid.NewC(n, n)
		copy(f.Data, vecs[i])
		ks.Freqs = append(ks.Freqs, f)
		ks.Weights = append(ks.Weights, eig[i])
	}
	if len(ks.Freqs) == 0 {
		return nil, fmt.Errorf("optics: TCC has no significant eigenmodes")
	}

	// Open-frame normalization: a clear mask has a pure DC spectrum, so its
	// intensity is sum_k w_k |freq_k(DC)|^2.
	dc := 0.0
	for i, f := range ks.Freqs {
		v := f.At(k, k)
		dc += ks.Weights[i] * (real(v)*real(v) + imag(v)*imag(v))
	}
	if dc < 1e-18 {
		return nil, fmt.Errorf("optics: open-frame intensity is zero; cannot normalize")
	}
	for i := range ks.Weights {
		ks.Weights[i] /= dc
	}
	d := sp.End()
	kernelBuilds.Inc()
	socsOrder.Set(float64(len(ks.Freqs)))
	obs.Logger().Info("built SOCS kernels",
		"defocus_nm", defocusNM, "order", len(ks.Freqs), "grid", c.GridSize,
		"dur", d.Round(time.Millisecond))
	return ks, nil
}

// Combined returns the single-kernel approximation of Eq. 21: the
// amplitude-weighted sum H = sum_k w_k h_k collapsed into one frequency
// response, rescaled so a clear mask still images to intensity 1.0. Using
// one kernel reduces the convolution count by the SOCS order at the cost of
// approximating the partially coherent sum of intensities by a single
// coherent system.
func (ks *KernelSet) Combined() *grid.CField {
	n := 2*ks.K + 1
	h := grid.NewC(n, n)
	for i, f := range ks.Freqs {
		w := complex(ks.Weights[i], 0)
		for j, v := range f.Data {
			h.Data[j] += w * v
		}
	}
	dcv := h.At(ks.K, ks.K)
	dc := math.Sqrt(real(dcv)*real(dcv) + imag(dcv)*imag(dcv))
	if dc > 1e-18 {
		h.ScaleC(complex(1/dc, 0))
	}
	return h
}

// kernel cache: building a kernel set costs seconds (TCC assembly plus the
// eigensolve), and experiments reuse the same configuration many times.
// Different configurations — e.g. the per-corner defocus prefetch — build
// in parallel; a failed build is retried by the next call.
var (
	cache par.Memo[cacheKey, *KernelSet]

	cacheHits   = obs.NewCounter("optics_kernel_cache_hits_total")
	cacheMisses = obs.NewCounter("optics_kernel_cache_misses_total")
)

type cacheKey struct {
	cfg       Config
	defocusNM float64
}

// Kernels returns a cached SOCS kernel set for (c, defocusNM), building it
// on first use. It is safe for concurrent use; concurrent first requests
// for the same configuration share one build.
func Kernels(c Config, defocusNM float64) (*KernelSet, error) {
	ks, built, err := cache.Do(cacheKey{c, defocusNM}, func() (*KernelSet, error) {
		return BuildKernels(c, defocusNM)
	})
	if built {
		cacheMisses.Inc()
	} else {
		cacheHits.Inc()
	}
	return ks, err
}
