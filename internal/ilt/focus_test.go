package ilt

import (
	"math"
	"math/rand"
	"testing"

	"mosaic/internal/bench"
	"mosaic/internal/fft"
	"mosaic/internal/grid"
	"mosaic/internal/obs"
	"mosaic/internal/optics"
	"mosaic/internal/par"
	"mosaic/internal/resist"
	"mosaic/internal/sim"
)

// referenceGradient is the per-corner gradient the optimizer used before
// the adjoint was merged across the corners of a focus plane: every corner
// gets its own W_c and its own adjoint pass (G pruned forwards + one pruned
// inverse). It exists only as the reference the merged gradient is pinned
// to.
func referenceGradient(o *Optimizer, st *iterState, mask, target *grid.Field) *grid.Field {
	cfg := o.Cfg
	thetaZ := o.Sim.Resist.ThetaZ
	grad := grid.New(mask.W, mask.H)
	for _, fs := range st.planes {
		for j, ci := range fs.model.Members {
			if ci == 0 && cfg.Alpha == 0 {
				continue
			}
			if ci > 0 && cfg.Beta == 0 {
				continue
			}
			z := st.z[ci]
			dFdZ := grid.New(mask.W, mask.H)
			if ci == 0 {
				switch cfg.Mode {
				case ModeFast:
					g := int(cfg.Gamma)
					for i, v := range z.Data {
						dFdZ.Data[i] = cfg.Alpha * float64(g) * ipow(v-target.Data[i], g-1)
					}
				case ModeExact:
					for i, v := range z.Data {
						dFdZ.Data[i] = cfg.Alpha * st.epeW.Data[i] * 2 * (v - target.Data[i])
					}
				}
			} else {
				for i, v := range z.Data {
					dFdZ.Data[i] = cfg.Beta * 2 * (v - target.Data[i])
				}
			}
			dose := fs.model.doses[j]
			for i, zv := range z.Data {
				dFdZ.Data[i] *= thetaZ * zv * (1 - zv) * dose
			}

			k := fs.model.k
			bw := 2*k + 1
			n := mask.W
			parts := make([]*grid.CField, len(fs.model.freqs))
			par.ForChunks(len(fs.model.freqs), func(lo, hi int) {
				term := grid.NewC(n, n)
				blk := grid.NewC(bw, bw)
				part := grid.NewC(bw, bw)
				for ki := lo; ki < hi; ki++ {
					for i, av := range fs.fields[ki].Data {
						term.Data[i] = av * complex(dFdZ.Data[i], 0)
					}
					fft.ForwardBandLimited(term, k, blk)
					scale := complex(2*fs.model.weights[ki], 0)
					for i, kv := range fs.model.freqs[ki].Data {
						part.Data[i] += blk.Data[i] * complex(real(kv), -imag(kv)) * scale
					}
				}
				parts[lo] = part
			})
			cornerBlk := grid.NewC(bw, bw)
			for _, part := range parts {
				if part != nil {
					cornerBlk.AddC(part)
				}
			}
			field := grid.NewC(n, n)
			fft.InverseBandLimited(cornerBlk, n, n, field)
			for i, v := range field.Data {
				grad.Data[i] += real(v)
			}
		}
	}
	if cfg.SmoothWeight > 0 {
		smoothGradient(grad, mask, cfg.SmoothWeight)
	}
	return grad
}

func TestMergedAdjointMatchesPerCornerReference(t *testing.T) {
	cases := []struct {
		name   string
		mode   Mode
		planes int
		tweak  func(*Config)
	}{
		{"fast", ModeFast, 2, func(*Config) {}},
		{"exact", ModeExact, 2, func(*Config) {}},
		{"combined-kernel", ModeFast, 2, func(c *Config) { c.GradKernels = 0 }},
		{"alpha0", ModeFast, 2, func(c *Config) { c.Alpha, c.Beta = 0, 1 }},
		{"beta0", ModeExact, 2, func(c *Config) { c.Beta = 0 }},
		{"one-plane", ModeFast, 1, func(c *Config) { c.DefocusNM = 0 }},
		{"one-plane-exact", ModeExact, 1, func(c *Config) { c.DefocusNM = 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o, layout := testOptimizer(t, tc.mode)
			tc.tweak(&o.Cfg)
			n := o.Sim.Cfg.GridSize
			target := layout.Rasterize(n, o.Sim.Cfg.PixelNM)
			samples := layout.SamplePoints(o.Cfg.EPESampleNM)
			models, err := o.buildModels()
			if err != nil {
				t.Fatal(err)
			}
			if len(models) != tc.planes {
				t.Fatalf("%d focus planes, want %d", len(models), tc.planes)
			}
			rng := rand.New(rand.NewSource(7))
			for trial := 0; trial < 3; trial++ {
				// A random gray mask around the target keeps every sigmoid
				// live, so all corners contribute.
				mask := grid.New(n, n)
				for i, tv := range target.Data {
					mask.Data[i] = 0.2 + 0.6*(0.5*tv+0.5*rng.Float64())
				}
				st := o.evalState(mask, models, target, samples)
				got := o.gradient(st, mask, models, target, samples)
				want := referenceGradient(o, st, mask, target)
				lo, hi := want.MinMax()
				scale := math.Max(math.Abs(lo), math.Abs(hi))
				if scale == 0 {
					t.Fatal("reference gradient identically zero")
				}
				for i, w := range want.Data {
					if d := math.Abs(got.Data[i] - w); d > 1e-12*scale {
						t.Fatalf("trial %d pixel %d: merged %.17g vs per-corner %.17g (scale %g)", trial, i, got.Data[i], w, scale)
					}
				}
				grid.Put(got)
				st.release()
			}
		})
	}
}

// benchSim is the calibrated simulator of the repo benchmark's clip
// workloads: the paper's optics (24 SOCS kernels) at 128 px over the
// 1024 nm clip. The kernel cache is process-wide, so tests share one build.
func benchSim(t *testing.T) *sim.Simulator {
	t.Helper()
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
	return s
}

// TestFFTBudgetPerIteration pins the transform count of one descent
// iteration to inverse = D*(G+1), forward = 1 + D*G for D focus planes and
// G gradient kernels: an accidental extra transform fails here instead of
// showing up as an unexplained slowdown.
func TestFFTBudgetPerIteration(t *testing.T) {
	inverse := obs.NewCounter("fft_pruned_inverse_total")
	forward := obs.NewCounter("fft_pruned_forward_total")
	fallback := obs.NewCounter("fft_pruned_fallback_total")
	layout, err := bench.Layout("B1")
	if err != nil {
		t.Fatal(err)
	}
	s := benchSim(t)
	cases := []struct {
		name     string
		mode     Mode
		defocus  float64
		inv, fwd int64
	}{
		{"fast", ModeFast, 25, 18, 17},        // D=2, G=8
		{"exact", ModeExact, 25, 50, 49},      // D=2, G=24
		{"fast-one-plane", ModeFast, 0, 9, 9}, // D=1, G=8
	}
	for _, tc := range cases {
		cfg := DefaultConfig(tc.mode)
		cfg.DefocusNM = tc.defocus
		cfg.MaxIter = 3
		o, err := New(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Build the kernel sets outside the counted window.
		if _, err := o.buildModels(); err != nil {
			t.Fatal(err)
		}
		inv0, fwd0, fb0, it0 := inverse.Value(), forward.Value(), fallback.Value(), iterations.Value()
		if _, err := o.Run(layout); err != nil {
			t.Fatal(err)
		}
		iters := iterations.Value() - it0
		if iters != 3 {
			t.Fatalf("%s: %d iterations, want 3", tc.name, iters)
		}
		if got := inverse.Value() - inv0; got != tc.inv*iters {
			t.Errorf("%s: %d pruned inverses over %d iterations, want %d per iteration", tc.name, got, iters, tc.inv)
		}
		if got := forward.Value() - fwd0; got != tc.fwd*iters {
			t.Errorf("%s: %d pruned forwards over %d iterations, want %d per iteration", tc.name, got, iters, tc.fwd)
		}
		if got := fallback.Value() - fb0; got != 0 {
			t.Errorf("%s: %d pruned-transform fallbacks, want 0", tc.name, got)
		}
	}
}
