package ilt

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"mosaic/internal/bench"
	"mosaic/internal/geom"
	"mosaic/internal/grid"
	"mosaic/internal/metrics"
	"mosaic/internal/obs"
	"mosaic/internal/optics"
	"mosaic/internal/resist"
	"mosaic/internal/sim"
)

func TestModeString(t *testing.T) {
	if ModeFast.String() != "MOSAIC_fast" || ModeExact.String() != "MOSAIC_exact" {
		t.Fatal("mode names wrong")
	}
	if Mode(99).String() == "" {
		t.Fatal("unknown mode has empty name")
	}
}

func TestDefaultConfigModes(t *testing.T) {
	fast := DefaultConfig(ModeFast)
	exact := DefaultConfig(ModeExact)
	if fast.Mode != ModeFast || exact.Mode != ModeExact {
		t.Fatal("mode not set")
	}
	if fast.Gamma != 4 {
		t.Fatalf("fast gamma %g, want 4 (paper Sec. 3.3)", fast.Gamma)
	}
	if exact.GradKernels <= fast.GradKernels {
		t.Fatal("exact mode must use a deeper kernel stack than fast")
	}
	if fast.MaxIter != 20 {
		t.Fatal("paper constants wrong")
	}
	if fast.DefocusNM != 25 || fast.DoseDelta != 0.02 {
		t.Fatal("process window constants wrong")
	}
}

func TestNewValidation(t *testing.T) {
	o, _ := testOptimizer(t, ModeFast)
	s := o.Sim
	with := func(tweak func(*Config)) Config {
		c := DefaultConfig(ModeFast)
		tweak(&c)
		return c
	}
	for i, tc := range []struct {
		field string
		cfg   Config
	}{
		{"Gamma", Config{}}, // all zero
		{"Beta", with(func(c *Config) { c.Beta = -1 })},
		{"Gamma", with(func(c *Config) { c.Gamma = 3 })},   // odd
		{"Gamma", with(func(c *Config) { c.Gamma = 0 })},   // zero
		{"Gamma", with(func(c *Config) { c.Gamma = 4.5 })}, // truncated to 4
		{"Gamma", with(func(c *Config) { c.Gamma = 1e300 })},
		{"MaxIter", with(func(c *Config) { c.MaxIter = 0 })},
		{"GradKernels", with(func(c *Config) { c.GradKernels = -1 })}, // runs as 0 under another key
		{"DoseDelta", with(func(c *Config) { c.DoseDelta = -0.02 })},  // corners swap
		{"DoseDelta", with(func(c *Config) { c.DoseDelta = 1 })},      // inner corner at dose 0
	} {
		_, err := New(s, tc.cfg)
		var ce *ConfigError
		if !errors.As(err, &ce) || ce.Field != tc.field {
			t.Errorf("bad config %d: got %v, want a *ConfigError on %s", i, err, tc.field)
		}
	}
	// An 8-nm window is narrower than th_epe: the EPE scan of a sample
	// would reach past the field.
	cfg := DefaultConfig(ModeFast)
	var ce *ConfigError
	if err := cfg.Validate(4, 2); !errors.As(err, &ce) || ce.Field != "window" {
		t.Errorf("8-nm window: got %v, want a *ConfigError on window", err)
	}
	if _, err := New(nil, DefaultConfig(ModeFast)); err == nil {
		t.Error("nil simulator accepted")
	}
}

// FuzzConfigValidate: an optimizer config with arbitrary float fields and
// gradient kernel count is either refused with a *ConfigError or runs —
// two iterations on a 32-px simulator — to a finite gray mask. A NaN, a
// hang or a panic from a value Validate let through fails.
func FuzzConfigValidate(f *testing.F) {
	for _, mode := range []Mode{ModeFast, ModeExact} {
		d := DefaultConfig(mode)
		f.Add(mode == ModeExact, d.Beta, d.Gamma, d.DefocusNM, d.DoseDelta, d.GradKernels)
	}
	f.Add(false, 0.35, 6.0, 0.0, 0.0, 0)
	f.Add(false, 0.35, 4.0, 25.0, 0.02, -1)
	c := optics.Default()
	c.GridSize = 32
	c.PixelNM = 16
	s, err := sim.New(c, resist.Default())
	if err != nil {
		f.Fatal(err)
	}
	layout := &geom.Layout{Name: "fuzz", SizeNM: 512, Polys: []geom.Polygon{
		geom.Rect{X: 160, Y: 144, W: 96, H: 224}.Polygon(),
		geom.Rect{X: 304, Y: 144, W: 48, H: 224}.Polygon(),
	}}
	f.Fuzz(func(t *testing.T, exact bool, beta, gamma, defocus, doseDelta float64, gradKernels int) {
		cfg := DefaultConfig(ModeFast)
		if exact {
			cfg = DefaultConfig(ModeExact)
		}
		cfg.MaxIter = 2
		cfg.Beta, cfg.Gamma = beta, gamma
		cfg.DefocusNM, cfg.DoseDelta = defocus, doseDelta
		cfg.GradKernels = gradKernels
		o, err := New(s, cfg)
		if err != nil {
			var ce *ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("refused without a *ConfigError: %v", err)
			}
			return
		}
		res, err := run(o, layout)
		if err != nil {
			t.Fatalf("admitted config failed: %v", err)
		}
		for i, v := range res.MaskGray.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("admitted config made a non-finite mask pixel %d: %g", i, v)
			}
		}
	})
}

func TestMaskParamsRoundTrip(t *testing.T) {
	m := grid.FromRows([][]float64{{0.1, 0.5}, {0.9, 0.3}})
	p := paramsFromMask(m, initEps)
	back := maskFromParams(p)
	if !back.Equal(m, 1e-9) {
		t.Fatalf("round trip: %v vs %v", back.Data, m.Data)
	}
	// Binary masks are clamped, not infinite.
	b := grid.FromRows([][]float64{{0, 1}})
	pb := paramsFromMask(b, initEps)
	for _, v := range pb.Data {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			t.Fatal("logit blew up on binary input")
		}
	}
}

func TestInitialMask(t *testing.T) {
	o, layout := testOptimizer(t, ModeFast)
	target := layout.Rasterize(o.Sim.Cfg.GridSize, o.Sim.Cfg.PixelNM)
	o.Cfg.SRAFInit = false
	if !o.InitialMask(target).Equal(target, 0) {
		t.Fatal("without SRAF the initial mask must be the target")
	}
	o.Cfg.SRAFInit = true
	withSRAF := o.InitialMask(target)
	if withSRAF.Sum() <= target.Sum() {
		t.Fatal("SRAF init added no pixels")
	}
}

// TestRunGridMismatch: a target raster off the simulator grid is refused.
// A clip the grid does not cover is the façade's to refuse (ErrGridMismatch
// from mosaic.Setup's checkFits); the optimizer checks what it is handed.
func TestRunGridMismatch(t *testing.T) {
	o, layout := testOptimizer(t, ModeFast)
	n := o.Sim.Cfg.GridSize
	for i, target := range []*grid.Field{nil, grid.New(n/2, n/2), grid.New(n, n/2)} {
		if _, err := o.RunRasterCtx(context.Background(), layout, target, nil); err == nil {
			t.Errorf("target raster %d accepted on a %dx%d grid", i, n, n)
		}
	}
}

func TestRunInvalidLayout(t *testing.T) {
	o, _ := testOptimizer(t, ModeFast)
	bad := &geom.Layout{Name: "b", SizeNM: 512, Polys: []geom.Polygon{
		{{X: 0, Y: 0}, {X: 1, Y: 1}, {X: 2, Y: 0}, {X: 2, Y: 2}},
	}}
	if _, err := run(o, bad); err == nil {
		t.Fatal("invalid layout accepted")
	}
}

func TestRunImprovesOverNoOPC(t *testing.T) {
	o, layout := testOptimizer(t, ModeFast)
	res, err := run(o, layout)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mask == nil || res.MaskGray == nil {
		t.Fatal("missing masks")
	}
	for _, v := range res.Mask.Data {
		if v != 0 && v != 1 {
			t.Fatalf("final mask not binary: %g", v)
		}
	}
	target := layout.Rasterize(o.Sim.Cfg.GridSize, o.Sim.Cfg.PixelNM)
	rep0, err := metrics.Evaluate(o.Sim, target, layout, o.metricParams(), 0)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := metrics.Evaluate(o.Sim, res.Mask, layout, o.metricParams(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Score >= rep0.Score {
		t.Fatalf("no improvement: %g -> %g", rep0.Score, rep.Score)
	}
}

func TestRunExactMode(t *testing.T) {
	o, layout := testOptimizer(t, ModeExact)
	o.Cfg.MaxIter = 10
	res, err := run(o, layout)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) == 0 {
		t.Fatal("no history")
	}
	// The exact objective is a sum of per-sample sigmoids, bounded by the
	// sample count.
	nSamples := len(layout.SamplePoints(metrics.DefaultParams().EPESampleNM))
	for _, st := range res.History {
		if st.FTarget < 0 || st.FTarget > float64(nSamples) {
			t.Fatalf("F_epe %g outside [0, %d]", st.FTarget, nSamples)
		}
	}
}

func TestBestIterateSelection(t *testing.T) {
	o, layout := testOptimizer(t, ModeFast)
	res, err := run(o, layout)
	if err != nil {
		t.Fatal(err)
	}
	minProxy := math.Inf(1)
	for _, st := range res.History {
		minProxy = math.Min(minProxy, st.ProxyScore)
	}
	if res.Objective != minProxy {
		t.Fatalf("best objective %g != min proxy %g", res.Objective, minProxy)
	}
}

func TestHistoryIterNumbers(t *testing.T) {
	o, layout := testOptimizer(t, ModeFast)
	o.Cfg.MaxIter = 5
	res, err := run(o, layout)
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range res.History {
		if st.Iter != i {
			t.Fatalf("history[%d].Iter = %d", i, st.Iter)
		}
		if st.GradRMS < 0 {
			t.Fatal("negative gradient RMS")
		}
	}
	if res.RuntimeSec <= 0 {
		t.Fatal("runtime not measured")
	}
}

func TestTrackMetricsFillsStats(t *testing.T) {
	o, layout := testOptimizer(t, ModeFast)
	o.Cfg.MaxIter = 3
	o.Cfg.TrackMetrics = true
	res, err := run(o, layout)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range res.History {
		if st.Score <= 0 {
			t.Fatalf("iteration %d: tracked score %g", st.Iter, st.Score)
		}
	}
}

// TestIterationSpanExcludesDiagnostics: span_ilt_iteration_seconds is the
// optimizer's time. An iteration's span and its ilt.track_metrics span
// must both fit before the next iteration starts; if the first still
// contained the second they would overrun it by the diagnostic's length.
func TestIterationSpanExcludesDiagnostics(t *testing.T) {
	o, layout := testOptimizer(t, ModeFast)
	o.Cfg.MaxIter = 4
	o.Cfg.TrackMetrics = true
	var trace bytes.Buffer
	obs.StartTrace(&trace)
	_, err := run(o, layout)
	obs.StopTrace()
	if err != nil {
		t.Fatal(err)
	}
	type stamp struct{ ts, dur int64 }
	var iters, diags []stamp
	var evs []struct {
		Name string `json:"name"`
		TS   int64  `json:"ts"`
		Dur  int64  `json:"dur"`
	}
	if err := json.Unmarshal(trace.Bytes(), &evs); err != nil {
		t.Fatal(err)
	}
	for _, ev := range evs {
		switch ev.Name {
		case "ilt.iteration":
			iters = append(iters, stamp{ev.TS, ev.Dur})
		case "ilt.track_metrics":
			diags = append(diags, stamp{ev.TS, ev.Dur})
		}
	}
	if len(iters) != 4 || len(diags) != 4 {
		t.Fatalf("%d ilt.iteration and %d ilt.track_metrics lines, want 4 and 4", len(iters), len(diags))
	}
	for i := 0; i+1 < len(iters); i++ {
		if diags[i].dur <= 0 {
			t.Fatalf("iteration %d: diagnostic took %d µs", i, diags[i].dur)
		}
		if room := iters[i+1].ts - iters[i].ts; iters[i].dur+diags[i].dur > room {
			t.Errorf("iteration %d: span %d µs + diagnostics %d µs exceed the %d µs to the next iteration",
				i, iters[i].dur, diags[i].dur, room)
		}
	}
}

// TestJumpKeepsSearching: a plateau — two iterations without a
// plateauTol-sized improvement of the best proxy score — jumps while a
// jump is left and stops the run once none is. A run seeded with its own
// converged mask is the only run that plateaus, so it must jump exactly
// twice (maxJumps) and stop on its third plateau, its last iterate.
func TestJumpKeepsSearching(t *testing.T) {
	o, layout := testOptimizer(t, ModeFast)
	cold, err := run(o, layout)
	if err != nil {
		t.Fatal(err)
	}
	o.Cfg.MaxIter = 40
	o.Cfg.SeedMask = cold.MaskGray
	res, err := run(o, layout)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Seeded {
		t.Fatal("converged seed rejected")
	}
	best, stall, plateaus := math.Inf(1), 0, []int{}
	for _, st := range res.History {
		if st.ProxyScore < best-plateauTol {
			stall = 0
		} else {
			stall++
		}
		best = math.Min(best, st.ProxyScore)
		if stall >= 2 {
			plateaus, stall = append(plateaus, st.Iter), 0
		}
	}
	if len(plateaus) != 3 || plateaus[2] != res.Iterations-1 || res.Iterations >= o.Cfg.MaxIter {
		t.Fatalf("plateaus at iterations %v of a %d-iteration run (MaxIter %d); want 2 jumps, then a stop on the last iterate",
			plateaus, res.Iterations, o.Cfg.MaxIter)
	}
}

func TestPlainQuadraticConfig(t *testing.T) {
	// gamma = 2 (the prior-work quadratic objective) must be accepted.
	o, layout := testOptimizer(t, ModeFast)
	o.Cfg.Gamma = 2
	o.Cfg.Beta = 0
	o.Cfg.MaxIter = 3
	if _, err := run(o, layout); err != nil {
		t.Fatal(err)
	}
}

func TestOnIterFiresPerIteration(t *testing.T) {
	o, layout := testOptimizer(t, ModeFast)
	var got []IterStats
	o.Cfg.OnIter = func(st IterStats) { got = append(got, st) }
	res, err := run(o, layout)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != res.Iterations {
		t.Fatalf("OnIter fired %d times, want Result.Iterations = %d", len(got), res.Iterations)
	}
	for i, st := range got {
		if st.Iter != i {
			t.Fatalf("OnIter call %d carried Iter %d; want monotonically increasing from 0", i, st.Iter)
		}
	}
	if len(got) != len(res.History) {
		t.Fatalf("OnIter fired %d times but History has %d entries", len(got), len(res.History))
	}
	for i := range got {
		if got[i] != res.History[i] {
			t.Fatalf("OnIter stats %d differ from History: %+v vs %+v", i, got[i], res.History[i])
		}
	}
	// This run ends at MaxIter, so its last iterate runs forward only: it
	// has no gradient, and reports GradRMS 0 (never NaN, which no JSON event
	// could carry).
	if res.Iterations != o.Cfg.MaxIter {
		t.Fatalf("run took %d iterations, want MaxIter = %d", res.Iterations, o.Cfg.MaxIter)
	}
	for i, st := range got {
		if last := i == len(got)-1; last != (st.GradRMS == 0) {
			t.Fatalf("iterate %d of %d reports GradRMS %v; want 0 exactly on the last", i, len(got), st.GradRMS)
		}
	}

	// A th_g stop is known only from the gradient, so its last iterate
	// computed one and reports its RMS. B1 in MOSAIC_exact at β = 0 is a
	// run whose gradient vanishes: it falls below th_g three times, jumps
	// on the first two and stops on the third.
	layout, err = bench.Layout("B1")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(ModeExact)
	cfg.Beta = 0
	got, cfg.OnIter = nil, o.Cfg.OnIter
	if o, err = New(benchSimAt(t, 256), cfg); err != nil {
		t.Fatal(err)
	}
	if res, err = run(o, layout); err != nil {
		t.Fatal(err)
	}
	below := 0
	for _, st := range got {
		if st.GradRMS > 0 && st.GradRMS < gradTol {
			below++
		}
	}
	if last := got[len(got)-1]; res.Iterations >= cfg.MaxIter || below != maxJumps+1 || last.GradRMS <= 0 || last.GradRMS >= gradTol {
		t.Fatalf("th_g stop: %d of %d iterations, %d iterates below th_g, last GradRMS %v; want a stop on the third, which reports its RMS",
			res.Iterations, cfg.MaxIter, below, last.GradRMS)
	}
}

// TestPixelPassesKeepTheirBits holds the descent's rewritten pixel passes
// to the loops they replace, bit for bit: the one-pass chain rule to the
// chain, grid.Field.RMS and grid.Field.MinMax (±0 and NaN included), the
// unrolled ipow to its loop, and the run-memoised logit of paramsFromMask
// to one logit a pixel.
func TestPixelPassesKeepTheirBits(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	specials := []float64{0, math.Copysign(0, -1), 1, -1, math.NaN(), math.Inf(1), 1e-300, 0.5}
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(40)
		grad, mask := grid.New(n, 1), grid.New(n, 1)
		for i := range grad.Data {
			grad.Data[i], mask.Data[i] = rng.NormFloat64(), rng.Float64()
			if trial%2 == 1 && rng.Intn(4) == 0 {
				grad.Data[i] = specials[rng.Intn(len(specials))]
			}
		}
		want := grad.Clone()
		for i, g := range want.Data {
			mv := mask.Data[i]
			want.Data[i] = g * thetaM * mv * (1 - mv)
		}
		wantLo, wantHi := want.MinMax()
		rms, lo, hi := chainRule(grad, mask)
		if i := sameBits(grad.Data, want.Data); i >= 0 {
			t.Fatalf("trial %d: chained pixel %d is %v, want %v", trial, i, grad.Data[i], want.Data[i])
		}
		if sameBits([]float64{rms, lo, hi}, []float64{want.RMS(), wantLo, wantHi}) >= 0 {
			t.Fatalf("trial %d: RMS, min, max %v %v %v, want %v %v %v", trial, rms, lo, hi, want.RMS(), wantLo, wantHi)
		}
	}
	for _, x := range append(specials, -0.37, 2.5, 1e-80, -3e100) {
		for k := 0; k <= 6; k++ {
			want := 1.0
			for j := 0; j < k; j++ {
				want *= x
			}
			if got := ipow(x, k); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("ipow(%v, %d) = %v, the loop gives %v", x, k, got, want)
			}
		}
	}
	m := grid.New(64, 1)
	for i := range m.Data {
		m.Data[i] = []float64{0, 1, 0.3, math.NaN(), 1e-13}[rng.Intn(5)]
	}
	for _, eps := range []float64{initEps, seedEps} {
		got := paramsFromMask(m, eps)
		for i, v := range m.Data {
			v = math.Min(math.Max(v, eps), 1-eps)
			if math.IsNaN(m.Data[i]) {
				v = m.Data[i]
			}
			if want := math.Log(v/(1-v)) / thetaM; math.Float64bits(got.Data[i]) != math.Float64bits(want) {
				t.Fatalf("eps %g: pixel %d (%v) has P %v, want %v", eps, i, m.Data[i], got.Data[i], want)
			}
		}
	}
}

func TestRuntimeExcludesDiagnostics(t *testing.T) {
	o, layout := testOptimizer(t, ModeFast)
	o.Cfg.MaxIter = 3
	res, err := run(o, layout)
	if err != nil {
		t.Fatal(err)
	}
	if res.DiagnosticsSec != 0 {
		t.Fatalf("DiagnosticsSec = %g without TrackMetrics, want 0", res.DiagnosticsSec)
	}
	if res.RuntimeSec <= 0 {
		t.Fatalf("RuntimeSec = %g, want > 0", res.RuntimeSec)
	}

	o2, layout2 := testOptimizer(t, ModeFast)
	o2.Cfg.MaxIter = 3
	o2.Cfg.TrackMetrics = true
	res2, err := run(o2, layout2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.DiagnosticsSec <= 0 {
		t.Fatalf("DiagnosticsSec = %g with TrackMetrics, want > 0", res2.DiagnosticsSec)
	}
	if res2.RuntimeSec < 0 {
		t.Fatalf("RuntimeSec = %g went negative after excluding diagnostics", res2.RuntimeSec)
	}
}

// TestCancelFromAnotherGoroutine cancels a running optimization from a
// separate goroutine (as the job service does) and checks the run stops
// promptly with the context error. Run under -race this also verifies the
// cancellation path is data-race free.
func TestCancelFromAnotherGoroutine(t *testing.T) {
	o, layout := testOptimizer(t, ModeFast)
	o.Cfg.MaxIter = 1000 // far more than will run before the cancel lands

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	started := make(chan struct{})
	var once bool
	o.Cfg.OnIter = func(IterStats) {
		if !once {
			once = true
			close(started)
		}
	}
	errc := make(chan error, 1)
	go func() {
		_, err := runCtx(ctx, o, layout)
		errc <- err
	}()
	<-started
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not stop within one iteration's worth of time")
	}
}
