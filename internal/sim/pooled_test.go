package sim

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"mosaic/internal/grid"
	"mosaic/internal/obs"
)

// randMask returns a random binary mask, the adversarial input for the
// pruned-path equivalence checks.
func randMask(n int, seed int64) *grid.Field {
	rng := rand.New(rand.NewSource(seed))
	m := grid.New(n, n)
	for i := range m.Data {
		if rng.Float64() < 0.35 {
			m.Data[i] = 1
		}
	}
	return m
}

// TestBandPipelineMatchesReference pins the pooled band-limited convolution
// (SpectrumBand + ImagingGrid.Field) to the naive reference
// (Spectrum + FieldFromSpectrum, i.e. EmbedCenter-equivalent multiply +
// full Inverse2D) at 1e-12 over random masks and every SOCS kernel: the
// imaging-grid field is every (N/Nc)-th sample of the mask-grid one.
func TestBandPipelineMatchesReference(t *testing.T) {
	s := testSim(t)
	ks, err := s.Kernels(0)
	if err != nil {
		t.Fatal(err)
	}
	ig := NewImagingGrid(s.Cfg.GridSize, ks.K)
	for seed := int64(0); seed < 3; seed++ {
		mask := randMask(s.Cfg.GridSize, seed)
		ref := s.Spectrum(mask)
		band := s.SpectrumBand(mask, ks.K)
		for ki, kf := range ks.Freqs {
			want := s.FieldFromSpectrum(ref, kf, ks.K)
			got := ig.Field(band, kf)
			maxDiff := maxSampleDiff(got, want)
			grid.PutC(got)
			if maxDiff > 1e-12 {
				t.Fatalf("seed %d kernel %d: band pipeline differs from reference by %g", seed, ki, maxDiff)
			}
		}
		grid.PutC(band)
	}
}

// TestAerialMatchesReferenceSum pins the worker-local-accumulator Aerial
// against an explicit per-kernel reference sum.
func TestAerialMatchesReferenceSum(t *testing.T) {
	s := testSim(t)
	ks, err := s.Kernels(0)
	if err != nil {
		t.Fatal(err)
	}
	mask := randMask(s.Cfg.GridSize, 7)
	got, err := s.Aerial(mask, Nominal())
	if err != nil {
		t.Fatal(err)
	}
	spec := s.Spectrum(mask)
	want := grid.New(mask.W, mask.H)
	for i, kf := range ks.Freqs {
		s.FieldFromSpectrum(spec, kf, ks.K).AccumAbs2(want, ks.Weights[i])
	}
	if !got.Equal(want, 1e-12) {
		t.Fatal("Aerial differs from the reference SOCS sum")
	}
}

// TestConcurrentAerialSharedPools stress-tests concurrent Aerial and
// AerialCombined calls sharing the FFT plan cache and the workspace pools;
// run under -race by make check. Each goroutine checks its result against
// a serially computed golden image, so cross-goroutine buffer aliasing
// would be caught as data corruption even without the race detector.
func TestConcurrentAerialSharedPools(t *testing.T) {
	s := testSim(t)
	corners := ProcessCorners(25, 0.02)
	masks := make([]*grid.Field, 4)
	goldenFull := make([]*grid.Field, len(masks))
	goldenComb := make([]*grid.Field, len(masks))
	for i := range masks {
		masks[i] = randMask(s.Cfg.GridSize, int64(100+i))
		var err error
		if goldenFull[i], err = s.Aerial(masks[i], corners[i%len(corners)]); err != nil {
			t.Fatal(err)
		}
		if goldenComb[i], err = s.AerialCombined(masks[i], corners[i%len(corners)]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 4; rep++ {
				i := (g + rep) % len(masks)
				c := corners[i%len(corners)]
				full, err := s.Aerial(masks[i], c)
				if err != nil {
					errCh <- err
					return
				}
				comb, err := s.AerialCombined(masks[i], c)
				if err != nil {
					errCh <- err
					return
				}
				if !full.Equal(goldenFull[i], 1e-12) || !comb.Equal(goldenComb[i], 1e-12) {
					t.Errorf("goroutine %d rep %d: concurrent result diverged from golden", g, rep)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestConvolutionCountersVisible: after the band pipeline runs, the pruned
// transform and pool counters must appear in the /metrics dump.
func TestConvolutionCountersVisible(t *testing.T) {
	s := testSim(t)
	if _, err := s.AerialCombined(lineMask(64, 10), Nominal()); err != nil {
		t.Fatal(err)
	}
	txt := obs.MetricsText()
	for _, name := range []string{
		"fft_pruned_inverse_total",
		"fft_pruned_forward_total",
		"grid_pool_cfield_hits_total",
		"grid_pool_field_hits_total",
	} {
		if !strings.Contains(txt, name) {
			t.Errorf("metrics dump missing %s", name)
		}
	}
}

// TestAerialPlanesMatchesAerial pins the one-list imaging of every focus
// plane to Aerial at each plane's lead corner, bit for bit: a paired
// best-focus plane and a complex defocused one, on a grid whose imaging
// grid equals it and on one where it is coarser (both resamplings run).
func TestAerialPlanesMatchesAerial(t *testing.T) {
	for _, n := range []int{32, 128} { // one 512-nm field: Nc = 32 for both
		s := testSim(t)
		s.Cfg.GridSize, s.Cfg.PixelNM = n, 512/float64(n)
		if k := s.Cfg.BandLimitK(); NewImagingGrid(n, k).Nc != 32 {
			t.Fatalf("%d px: imaging grid %d, want 32", n, NewImagingGrid(n, k).Nc)
		}
		corners := ProcessCorners(25, 0.02)
		planes := FocusGroups(corners)
		if ks, err := s.Kernels(0); err != nil || !SOCSStack(ks, len(ks.Freqs)).Paired() {
			t.Fatalf("%d px: the best-focus stack is not paired (err %v)", n, err)
		}
		for seed := int64(0); seed < 2; seed++ {
			mask := randMask(n, seed)
			got, err := s.AerialPlanes(mask, corners)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(planes) {
				t.Fatalf("%d px: %d images for %d planes", n, len(got), len(planes))
			}
			for p, g := range planes {
				want, err := s.Aerial(mask, g.Lead)
				if err != nil {
					t.Fatal(err)
				}
				for i, v := range want.Data {
					if math.Float64bits(got[p].Data[i]) != math.Float64bits(v) {
						t.Fatalf("%d px seed %d plane %s: pixel %d is %v, Aerial has %v", n, seed, g.Lead.Name, i, got[p].Data[i], v)
					}
				}
			}
		}
	}
}
