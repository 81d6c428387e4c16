package ilt

import (
	"math"
	"math/rand"
	"testing"

	"mosaic/internal/bench"
	"mosaic/internal/fft"
	"mosaic/internal/grid"
	"mosaic/internal/metrics"
	"mosaic/internal/obs"
	"mosaic/internal/optics"
	"mosaic/internal/resist"
	"mosaic/internal/sim"
)

// referenceGradient is an independent full-resolution reference for the
// optimizer's coarse, plane-merged gradient: every corner gets its own W_c
// and its own adjoint pass, and every kernel field A_k is imaged here on the
// mask grid (sim.Spectrum + sim.FieldFromSpectrum, full transforms) instead
// of being read from the optimizer's imaging-grid state. Only the printed
// patterns Z_c and the EPE weight map are taken from st.
func referenceGradient(o *Optimizer, st *iterState, mask, target *grid.Field) *grid.Field {
	cfg := o.Cfg
	thetaZ := o.Sim.Resist.ThetaZ
	n := mask.W
	spec := o.Sim.Spectrum(mask)
	grad := grid.New(n, n)
	for _, fs := range st.planes {
		m := fs.model
		k := m.ig.K
		fields := make([]*grid.CField, len(m.stack.Freqs))
		for ki, kf := range m.stack.Freqs {
			fields[ki] = o.Sim.FieldFromSpectrum(spec, kf, k)
		}
		for j, ci := range m.Members {
			if ci > 0 && cfg.Beta == 0 {
				continue
			}
			z := st.z[ci]
			dFdZ := grid.New(n, n)
			if ci == 0 {
				switch cfg.Mode {
				case ModeFast:
					g := int(cfg.Gamma)
					for i, v := range z.Data {
						dFdZ.Data[i] = float64(g) * ipow(v-target.Data[i], g-1)
					}
				case ModeExact:
					for i, v := range z.Data {
						dFdZ.Data[i] = st.epeW.Data[i] * 2 * (v - target.Data[i])
					}
				}
			} else {
				for i, v := range z.Data {
					dFdZ.Data[i] = cfg.Beta * 2 * (v - target.Data[i])
				}
			}
			dose := m.doses[j]
			for i, zv := range z.Data {
				dFdZ.Data[i] *= thetaZ * zv * (1 - zv) * dose
			}

			cornerSpec := grid.NewC(n, n)
			for ki, kf := range m.stack.Freqs {
				term := grid.NewC(n, n)
				for i, av := range fields[ki].Data {
					term.Data[i] = av * complex(dFdZ.Data[i], 0)
				}
				fft.Forward2D(term)
				scale := complex(2*m.stack.Weights[ki], 0)
				for dy := -k; dy <= k; dy++ {
					for dx := -k; dx <= k; dx++ {
						sx, sy := (dx+n)%n, (dy+n)%n
						kv := kf.At(dx+k, dy+k)
						cornerSpec.Set(sx, sy, cornerSpec.At(sx, sy)+term.At(sx, sy)*complex(real(kv), -imag(kv))*scale)
					}
				}
			}
			fft.Inverse2D(cornerSpec)
			for i, v := range cornerSpec.Data {
				grad.Data[i] += real(v)
			}
		}
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
		{"pvb-dominated", ModeFast, 2, func(c *Config) { c.Beta = 100 }},
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
			samples := layout.SamplePoints(metrics.DefaultParams().EPESampleNM)
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
				st := o.evalState(mask, models, target, samples, true)
				o.adjoint(st, target)
				got := o.gradient(st, n)
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
	return benchSimAt(t, 128)
}

// benchSimAt is benchSim on an n-px grid over the same clip.
func benchSimAt(t *testing.T, n int) *sim.Simulator {
	t.Helper()
	c := optics.Default()
	c.GridSize = n
	c.PixelNM = bench.ClipNM / float64(n)
	s, err := sim.New(c, resist.Default())
	if err != nil {
		t.Fatal(err)
	}
	if s.Resist.Threshold, err = s.CalibrateThreshold(); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestFFTBudgetPerIteration pins the transform budget of one descent
// iteration on an N-px mask grid with an Nc-px imaging grid (Nc < N), in
// transform units: a plane of U units (G kernels on a defocused plane,
// ceil(r/2) pairs at best focus, r the stack's real rank) makes U field
// inverses, U adjoint forwards and one resampling transform each way on the
// imaging grid, plus its two resampling transforms on the mask grid; the
// mask spectrum and the merged gradient inverse add one each. That is
// sum_p (U_p+2) + 1 pruned inverses and as many pruned forwards, covering
// 2*sum_p (U_p+1)*Nc^2 + 2*(D+1)*N^2 grid points for D planes. An
// accidental extra transform, a per-kernel one that slipped back onto the
// mask grid, or a best-focus plane that stopped pairing fails here instead
// of showing up as an unexplained slowdown. The run's last iterate is a
// forward-only pass: sum_p (U_p+1) inverses and D+1 forwards, half an
// iteration's points — no adjoint, no gradient inverse. A seeded run adds
// its warm-start probe: two more forward-only passes, the seed's and the
// default init's.
func TestFFTBudgetPerIteration(t *testing.T) {
	inverse := obs.NewCounter("fft_pruned_inverse_total")
	forward := obs.NewCounter("fft_pruned_forward_total")
	points := obs.NewCounter("fft_pruned_points_total")
	layout, err := bench.Layout("B1")
	if err != nil {
		t.Fatal(err)
	}
	s := benchSim(t)
	const n, nc = 128, 64
	if ig := sim.NewImagingGrid(s.Cfg.GridSize, s.Cfg.BandLimitK()); ig.N != n || ig.Nc != nc {
		t.Fatalf("imaging grid %d on mask grid %d, want %d on %d", ig.Nc, ig.N, nc, n)
	}
	cases := []struct {
		name    string
		mode    Mode
		defocus float64
		units   []int64 // per plane: best focus paired, 25 nm one unit a kernel
		calls   int64   // sum_p (U_p+2) + 1, each direction
		seeded  bool
	}{
		{"fast", ModeFast, 25, []int64{4, 8}, 17, false},
		{"exact", ModeExact, 25, []int64{16, 24}, 45, false},
		{"fast-one-plane", ModeFast, 0, []int64{4}, 7, false},
		{"fast-seeded", ModeFast, 25, []int64{4, 8}, 17, true},
	}
	for _, tc := range cases {
		cfg := DefaultConfig(tc.mode)
		cfg.DefocusNM = tc.defocus
		cfg.MaxIter = 3
		d, fieldPasses := int64(len(tc.units)), int64(0) // fieldPasses: sum_p (U_p+1)
		for _, u := range tc.units {
			fieldPasses += u + 1
		}
		if calls := fieldPasses + d + 1; calls != tc.calls {
			t.Fatalf("%s: units %v make %d calls, the table says %d", tc.name, tc.units, calls, tc.calls)
		}
		// A forward-only pass: the last iterate's, and each probe's.
		passes := int64(1)
		if tc.seeded {
			cfg.SeedMask = layout.Rasterize(n, s.Cfg.PixelNM)
			passes += 2
		}
		o, err := New(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Build the kernel sets and their real forms outside the counted
		// window.
		models, err := o.buildModels()
		if err != nil {
			t.Fatal(err)
		}
		for p, m := range models {
			if got := int64(len(m.stack.Units())); got != tc.units[p] {
				t.Errorf("%s: plane %d has %d transform units, want %d", tc.name, p, got, tc.units[p])
			}
		}
		inv0, fwd0, pts0, it0 := inverse.Value(), forward.Value(), points.Value(), iterations.Value()
		if _, err := run(o, layout); err != nil {
			t.Fatal(err)
		}
		iters := iterations.Value() - it0
		if iters != 3 {
			t.Fatalf("%s: %d iterations, want 3", tc.name, iters)
		}
		full := iters - 1 // every iterate but the last runs its adjoint
		if got := inverse.Value() - inv0; got != tc.calls*full+passes*fieldPasses {
			t.Errorf("%s: %d pruned inverses over %d iterations, want %d per full iteration and %d per forward-only pass (%d passes)", tc.name, got, iters, tc.calls, fieldPasses, passes)
		}
		if got := forward.Value() - fwd0; got != tc.calls*full+passes*(d+1) {
			t.Errorf("%s: %d pruned forwards over %d iterations, want %d per full iteration and %d per forward-only pass (%d passes)", tc.name, got, iters, tc.calls, d+1, passes)
		}
		wantPts := 2*fieldPasses*nc*nc + 2*(d+1)*n*n
		if got := points.Value() - pts0; got != wantPts*full+passes*wantPts/2 {
			t.Errorf("%s: %d pruned-transform points over %d iterations, want %d per full iteration and %d per forward-only pass (%d passes)", tc.name, got, iters, wantPts, wantPts/2, passes)
		}
	}
}
