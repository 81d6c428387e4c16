// Package ilt implements the paper's contribution: inverse-lithography
// mask optimization by gradient descent (Alg. 1) with simultaneous design
// target and process-window optimization (Eq. 7):
//
//	minimize F = #EPE_Violation + beta * PV_Band
//	subject to M(x,y) in {0,1}
//
// with the paper's alpha = 1 on the design-target term. Two differentiable
// surrogates of that term are provided:
//
//   - ModeExact (MOSAIC_exact): the EPE-violation count relaxed through
//     sigmoids of windowed image-difference sums Dsum at the EPE sample
//     points (Eq. 9-15).
//   - ModeFast (MOSAIC_fast): the whole-field image difference
//     sum (Z_nom - Z_t)^gamma with gamma = 4 (Eq. 16-17).
//
// Both are combined with the process-window surrogate F_pvb =
// sum_corners (Z_c - Z_t)^2 (Eq. 18), yielding Eq. 19 / Eq. 20.
//
// The binary mask constraint is relaxed through the sigmoid transform
// M = sig(theta_M * P) (Eq. 8) so that descent runs on the unconstrained
// pixel variables P. Gradients are computed in closed form (Eq. 14-17)
// using the combined-kernel convolution of Eq. 21 when Config.GradKernels
// is 0, or the top Config.GradKernels kernels of the SOCS stack otherwise
// (8 for MOSAIC_fast, the whole stack for MOSAIC_exact). The best iterate
// (Alg. 1 line 9) is ranked on the same stack's images: the proxy
// violation count and band of IterStats, not Eq. 21 unless GradKernels is 0.
package ilt

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"mosaic/internal/geom"
	"mosaic/internal/grid"
	"mosaic/internal/metrics"
	"mosaic/internal/obs"
	"mosaic/internal/par"
	"mosaic/internal/resist"
	"mosaic/internal/sim"
	"mosaic/internal/sraf"
)

// Mode selects the design-target objective.
type Mode int

const (
	// ModeFast is MOSAIC_fast: image-difference objective (Eq. 16, Eq. 20).
	ModeFast Mode = iota
	// ModeExact is MOSAIC_exact: sigmoid-relaxed EPE objective (Eq. 12, Eq. 19).
	ModeExact
)

// String returns the paper's name for the mode.
func (m Mode) String() string {
	switch m {
	case ModeFast:
		return "MOSAIC_fast"
	case ModeExact:
		return "MOSAIC_exact"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config collects the optimizer parameters a caller varies. DefaultConfig
// supplies the paper's values. The values the paper fixes are constants:
// alpha = 1 (Eq. 7), thetaM (Eq. 8), thetaEPE (Eq. 11) and the step
// schedule, th_g and jump count of Alg. 1; th_epe and the EPE sample pitch are the scorer's,
// metrics.DefaultParams.
type Config struct {
	Mode Mode

	Beta  float64 // weight of the process-window term (Eq. 7; the design-target term weighs 1)
	Gamma float64 // image-difference exponent, paper: 4 (Sec. 3.3)

	MaxIter int // th_iter, paper: 20

	SRAFInit bool // seed with the sraf.DefaultRules mask (Alg. 1 line 2)

	// SeedMask, when non-nil, warm-starts the descent from a retrieved
	// continuous mask (e.g. a pattern-library hit) instead of the Alg. 1
	// line 2 rule-based initial mask. The seed is adopted only when its
	// surrogate objective probes no worse than the default
	// initialization's after the Eq. 8 round trip; a rejected seed falls
	// back to the rule-based init and the run is bit-identical to an
	// unseeded one. An adopted seed adds the plateau stop (plateauTol).
	// Must match the simulator grid.
	SeedMask *grid.Field

	// GradKernels selects the imaging fidelity inside the descent loop:
	// 0 uses the Eq. 21 combined single kernel (the paper's convolution
	// speedup, cheapest); n > 0 uses the top-n SOCS kernels, renormalized
	// to unit open-frame intensity. The final mask is always evaluated
	// against the full SOCS model regardless of this setting.
	GradKernels int

	DefocusNM float64 // process corner defocus, paper: 25 nm
	DoseDelta float64 // process corner dose range, paper: 0.02

	// OnIter, when non-nil, is called synchronously after every descent
	// iteration with that iteration's statistics — exactly
	// Result.Iterations times per run, with IterStats.Iter increasing
	// from 0. It is the one per-iteration channel: progress bars and live
	// logs stream from it, and Fig. 6 clones each iterate's mask here to
	// score it after the run. The callback runs on the optimizer's
	// goroutine, and its time counts toward RuntimeSec; keep it cheap.
	OnIter func(IterStats)
}

// ConfigError reports an invalid Config value; Field names the offending
// Config field, or "window" when the simulator's field is too narrow for
// the EPE scan. Retrieve it with errors.As.
type ConfigError struct {
	Field  string
	Reason string
}

func (e *ConfigError) Error() string {
	return "ilt: invalid config: " + e.Field + ": " + e.Reason
}

// DefaultConfig returns the paper's parameter set for the given mode.
// MOSAIC_fast runs the descent on a truncated 8-kernel SOCS stack (its
// "efficient gradient computation"); MOSAIC_exact uses the full stack,
// which costs roughly the paper's reported fast/exact runtime ratio and
// achieves the best final quality.
func DefaultConfig(mode Mode) Config {
	cfg := Config{
		Mode:        mode,
		Beta:        0.35,
		Gamma:       4,
		MaxIter:     20,
		SRAFInit:    true,
		GradKernels: 8,
		DefocusNM:   25,
		DoseDelta:   0.02,
	}
	if mode == ModeExact {
		cfg.GradKernels = 1 << 30 // clamped to the SOCS order at run time
	}
	return cfg
}

// IterStats records the optimizer state after one iteration.
type IterStats struct {
	Iter      int
	Objective float64 // F (Eq. 19 or Eq. 20)
	FTarget   float64 // F_epe or F_id (unweighted)
	FPvb      float64 // F_pvb (unweighted)
	// GradRMS is the RMS of dF/dP. It is 0 on a forward-only last iterate
	// (MaxIter, or a seeded plateau stop with no jump left), whose gradient
	// is never computed; a th_g or zero-gradient stop reports the RMS it
	// computed.
	GradRMS float64

	// Cheap estimates of the true Eq. 7 objective from the corner images
	// the descent itself computes — through GradKernels SOCS kernels (8 in
	// MOSAIC_fast, all in MOSAIC_exact; the Eq. 21 combined kernel only at
	// GradKernels 0) — available every iteration. Alg. 1 line 9 keeps the
	// iterate with the lowest objective *value* — the violation count and
	// band, not their differentiable relaxations — so best-iterate
	// selection uses ProxyScore.
	ProxyEPE       int
	ProxyPVBandNM2 float64
	ProxyScore     float64

	// MaskGray is the continuous mask M = sig(theta_M * P) the iteration
	// evaluated. It is lent for the duration of the OnIter call: the step
	// overwrites it afterwards, so a caller that keeps it clones it.
	MaskGray *grid.Field
}

// Result is the outcome of one optimization run: what NewResultFrame
// stores, and the binary Mask derived from it. A run's per-iteration
// statistics go to Config.OnIter, not here, so a result is the same
// whichever cache tier serves it.
type Result struct {
	Mask       *grid.Field // binarized optimized mask (the deliverable)
	MaskGray   *grid.Field // continuous relaxed mask at the best iterate
	Objective  float64     // Eq. 7 proxy score of the best iterate
	Iterations int
	// Seeded reports that the run started from Config.SeedMask — the
	// warm-start probe accepted the seed. False when no seed was given or
	// the probe fell back to the rule-based init.
	Seeded     bool
	RuntimeSec float64 // wall time of the run

	// leaf memoises LeafDigest. It makes a Result non-copyable (go vet
	// flags it): build a variant field by field.
	leaf atomic.Pointer[leafMemo]
}

// leafMemo is a memoised LeafDigest with the runtime-free content it was
// computed over — the gray mask (by identity: a returned raster is never
// written), the objective and the iteration count.
type leafMemo struct {
	digest     [32]byte
	gray       *grid.Field
	objective  float64
	iterations int
}

// LeafDigest returns hash(r), computed once for as long as r keeps its
// runtime-free content. A result is immutable once it is returned — the
// tile cache serves the same one to every job that repeats its window —
// so the content address the artifact store anchors it under is hashed
// for the first job only. A result that does not match its memo any more
// (a copy that was then edited) is hashed afresh. Racing first calls both
// hash and store the same value.
func (r *Result) LeafDigest(hash func(*Result) ([32]byte, error)) ([32]byte, error) {
	if m := r.leaf.Load(); m != nil && m.gray == r.MaskGray && m.objective == r.Objective && m.iterations == r.Iterations {
		return m.digest, nil
	}
	d, err := hash(r)
	if err == nil {
		r.leaf.Store(&leafMemo{digest: d, gray: r.MaskGray, objective: r.Objective, iterations: r.Iterations})
	}
	return d, err
}

// Optimizer runs MOSAIC mask optimization against one forward model.
type Optimizer struct {
	Sim *sim.Simulator
	Cfg Config
}

// Validate reports the first optimizer rule cfg breaks as a *ConfigError
// naming the field; gridSize and pixelNM are the grid and pixel of the
// simulator the run descends on. It is the one home of these rules: New
// applies it, and the admission gate (mosaic.Admit) applies it before any
// simulator exists. Every float must be finite first, so no rule below is
// passed by a NaN.
func (cfg *Config) Validate(gridSize int, pixelNM float64) error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"Beta", cfg.Beta}, {"Gamma", cfg.Gamma},
		{"DefocusNM", cfg.DefocusNM}, {"DoseDelta", cfg.DoseDelta},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return &ConfigError{Field: f.name, Reason: fmt.Sprintf("must be finite, got %g", f.v)}
		}
	}
	windowNM, thEPE := float64(gridSize)*pixelNM, metrics.DefaultParams().EPEThresholdNM
	switch {
	case cfg.Beta < 0:
		return &ConfigError{Field: "Beta", Reason: fmt.Sprintf("process-window weight must be >= 0, got %g", cfg.Beta)}
	case cfg.Gamma < 2 || cfg.Gamma > maxGamma || cfg.Gamma != math.Trunc(cfg.Gamma) || int(cfg.Gamma)%2 != 0:
		return &ConfigError{Field: "Gamma", Reason: fmt.Sprintf("must be an even integer in [2, %d], got %g", maxGamma, cfg.Gamma)}
	case cfg.GradKernels < 0:
		// Every negative count would run as 0, under a cache key of its own.
		return &ConfigError{Field: "GradKernels", Reason: fmt.Sprintf("must be >= 0 (0 is the Eq. 21 combined kernel), got %d", cfg.GradKernels)}
	case cfg.MaxIter <= 0:
		return &ConfigError{Field: "MaxIter", Reason: fmt.Sprintf("must be positive, got %d", cfg.MaxIter)}
	case windowNM < thEPE:
		// Each EPE sample scans 2*th_epe of image, in pixels.
		return &ConfigError{Field: "window", Reason: fmt.Sprintf("the %g-nm window is narrower than th_epe = %g nm", windowNM, thEPE)}
	case cfg.DoseDelta < 0 || cfg.DoseDelta >= 1:
		return &ConfigError{Field: "DoseDelta", Reason: fmt.Sprintf("must be in [0, 1) so every corner prints at a positive dose, got %g", cfg.DoseDelta)}
	case cfg.SeedMask != nil && (cfg.SeedMask.W != gridSize || cfg.SeedMask.H != gridSize):
		return &ConfigError{Field: "SeedMask", Reason: fmt.Sprintf("seed raster is %dx%d but the simulator grid is %dx%d", cfg.SeedMask.W, cfg.SeedMask.H, gridSize, gridSize)}
	}
	return nil
}

// maxGamma is the bound of Validate that keeps the work of a run finite:
// each power of Gamma costs one multiply per pixel in the objective and
// its gradient (the paper uses 4).
const maxGamma = 64

// New validates the configuration (Config.Validate) and returns an
// Optimizer.
func New(s *sim.Simulator, cfg Config) (*Optimizer, error) {
	if s == nil {
		return nil, fmt.Errorf("ilt: nil simulator")
	}
	if err := cfg.Validate(s.Cfg.GridSize, s.Cfg.PixelNM); err != nil {
		return nil, err
	}
	return &Optimizer{Sim: s, Cfg: cfg}, nil
}

// corners returns the nominal condition followed by the process-window
// corners used by F_pvb.
func (o *Optimizer) corners() []sim.Corner {
	return sim.ProcessCorners(o.Cfg.DefocusNM, o.Cfg.DoseDelta)
}

// InitialMask returns the descent's starting mask for a rasterized target:
// the target itself, or the rule-based SRAF mask (sraf.DefaultRules) when
// configured (Alg. 1 line 2).
func (o *Optimizer) InitialMask(target *grid.Field) *grid.Field {
	if o.Cfg.SRAFInit {
		return sraf.Apply(target, o.Sim.Cfg.PixelNM, sraf.DefaultRules())
	}
	return target.Clone()
}

// RunRasterCtx optimizes against a pre-rasterized target and an explicit
// EPE sample set, both on the simulator grid: the optimizer's one entry
// point, reached through tile.RunWindow, which rasterizes each clipped
// window itself and assigns full-layout samples to windows — resampling
// the clipped geometry would let artificial cut edges at window borders
// spawn spurious EPE constraints. The descent loop checks ctx between
// iterations, so cancellation (or a deadline) stops the run within one
// iteration and returns an error wrapping ctx.Err().
func (o *Optimizer) RunRasterCtx(ctx context.Context, layout *geom.Layout, target *grid.Field, samples []geom.Sample) (*Result, error) {
	if err := layout.Validate(); err != nil {
		return nil, fmt.Errorf("ilt: invalid layout: %w", err)
	}
	n := o.Sim.Cfg.GridSize
	if target == nil || target.W != n || target.H != n {
		return nil, fmt.Errorf("ilt: target raster must match the %dx%d simulator grid", n, n)
	}
	return o.runRaster(ctx, layout, target, samples)
}

// Optimizer metrics: iteration count plus the per-iteration and per-run
// span histograms fed below.
var (
	iterations = obs.NewCounter("ilt_iterations_total")
	// iterHist records iterations-to-converge per run, making warm-start
	// gains (and plateau-stop behavior) visible in /metrics.
	iterHist = obs.NewHistogram("ilt_iterations",
		1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64)
)

// runRaster is the core loop of Alg. 1 on a rasterized target.
func (o *Optimizer) runRaster(ctx context.Context, layout *geom.Layout, target *grid.Field, samples []geom.Sample) (*Result, error) {
	ctx, runSpan := obs.StartSpan(ctx, obs.IltRun, obs.String("layout", layout.Name))
	defer runSpan.End()
	start := time.Now()
	cfg := o.Cfg

	// Pre-fetch the gradient model of every focus plane: either the Eq. 21
	// combined kernel or the configured number of SOCS kernels.
	models, err := o.buildModels()
	if err != nil {
		return nil, err
	}

	best := &Result{Objective: math.Inf(1)}
	bestSurrogate := math.Inf(1)
	step := stepSize
	jumps := maxJumps
	stall := 0 // consecutive iterations without a plateauTol-sized improvement

	// Alg. 1 lines 2-3: initial mask and unconstrained variables P with
	// M = sig(theta_M * P) (Eq. 8). A warm-start seed replaces the
	// rule-based mask only when its probe objective is no worse; a
	// rejected seed leaves the run bit-identical to an unseeded one.
	var p *grid.Field
	m0 := o.InitialMask(target)
	if cfg.SeedMask != nil && o.probeSeed(cfg.SeedMask, m0, models, target, samples) {
		best.Seeded = true
		p = paramsFromMask(cfg.SeedMask, seedEps)
	} else {
		p = paramsFromMask(m0, initEps)
	}
	mask := maskFromParams(p)

	iter := 0
	for ; iter < cfg.MaxIter; iter++ {
		// Honor cancellation between iterations: the forward model and
		// gradient of one iteration are the atomic unit of work, so a
		// cancelled run frees its goroutine within one iteration.
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("ilt: run canceled before iteration %d: %w", iter, err)
		}
		// The per-iteration spans are timed on context.Background(): under
		// ctx each would land in the job's span buffer beside the ilt.iter
		// instant that already marks the iteration there.
		_, iterSpan := obs.StartSpan(context.Background(), obs.IltIteration)
		// endIter records the iteration's time and must run on every loop
		// exit path.
		endIter := func() {
			iterSpan.End()
			iterations.Inc()
		}
		state := o.evalState(mask, models, target, samples, true)
		proxyEPE, proxyPVB := o.proxyMetrics(state)
		proxyScore := metrics.Score(0, proxyPVB, proxyEPE, 0)

		// Alg. 1 line 9: remember the iterate with the lowest objective
		// value, measured as the Eq. 7 quantity (proxy score) with the
		// surrogate F breaking ties.
		improved := proxyScore < best.Objective-plateauTol
		if proxyScore < best.Objective ||
			(proxyScore == best.Objective && state.objective < bestSurrogate) {
			best.Objective = proxyScore
			bestSurrogate = state.objective
			best.MaskGray = mask.Clone()
		}

		// Plateau detection (seeded runs only): two consecutive iterations
		// without a better-than-plateauTol improvement of the best objective
		// count as converged and take the same exit as th_g below.
		plateau := false
		if best.Seeded {
			if improved {
				stall = 0
			} else {
				stall++
			}
			plateau = stall >= 2
		}

		// The run's last iterate — at MaxIter, or at a plateau stop with no
		// jump left — is forward only: no later iterate reads its adjoint,
		// gradient or step, so they are not computed and its GradRMS is 0.
		// A th_g stop is not known before the gradient is.
		final := iter == cfg.MaxIter-1 || (plateau && jumps == 0)
		var grad *grid.Field
		var gradRMS, lo, hi float64
		if !final {
			o.adjoint(state, target)
			grad = o.gradient(state, mask.W)
			gradRMS, lo, hi = chainRule(grad, mask)
		}
		state.release() // pooled forward buffers are done for this iteration
		st := IterStats{
			Iter:           iter,
			Objective:      state.objective,
			FTarget:        state.fTarget,
			FPvb:           state.fPvb,
			GradRMS:        gradRMS,
			ProxyEPE:       proxyEPE,
			ProxyPVBandNM2: proxyPVB,
			ProxyScore:     proxyScore,
			MaskGray:       mask,
		}
		if cfg.OnIter != nil {
			cfg.OnIter(st)
		}
		obs.Event(ctx, obs.IltIter,
			obs.Int("iter", st.Iter),
			obs.Float("objective", st.Objective),
			obs.Float("grad_rms", st.GradRMS),
			obs.Int("epe", st.ProxyEPE),
			obs.Float("pvband_nm2", st.ProxyPVBandNM2),
			obs.Float("score", st.ProxyScore))
		if final {
			iter++
			endIter()
			break
		}

		// Alg. 1 line 8: stop at a local optimum... unless a jump is left
		// (the jump technique of [12] enlarges the step to escape).
		if gradRMS < gradTol || plateau {
			if jumps == 0 {
				grid.Put(grad)
				iter++
				endIter()
				break
			}
			jumps--
			stall = 0
			step = stepSize * jumpFactor
		}

		// Alg. 1 line 6: descend along the negative gradient. The gradient is
		// inf-norm normalized so stepSize is expressed directly in P units.
		scale := math.Max(math.Abs(lo), math.Abs(hi))
		if scale < 1e-300 {
			grid.Put(grad)
			iter++
			endIter()
			break
		}
		// The step and Eq. 8, one pass over each row band.
		s := -step / scale
		par.For(pixelBands, func(b int) {
			lo, hi := band(b, mask.W)
			pb, g := p.Data[lo:hi], grad.Data[lo:hi]
			for i, gv := range g {
				pb[i] += s * gv
			}
			maskFromParamsInto(mask.Data[lo:hi], pb)
		})
		grid.Put(grad)
		step *= stepDecay
		endIter()
	}

	if best.MaskGray == nil {
		best.MaskGray = mask.Clone()
	}
	best.Mask = best.MaskGray.Threshold(0.5)
	best.Iterations = iter
	iterHist.Observe(float64(iter))
	best.RuntimeSec = time.Since(start).Seconds()
	runSpan.End()
	obs.Logger().Debug("optimization finished",
		"mode", cfg.Mode.String(), "layout", layout.Name, "iterations", iter,
		"runtime_sec", best.RuntimeSec, "objective", best.Objective)
	return best, nil
}

// The step schedule of Alg. 1 line 6: the first step moves the
// inf-norm-normalized gradient by stepSize in P units, each iteration
// multiplies the step by stepDecay, and a jump (the technique of [12])
// restarts it at stepSize * jumpFactor, at most maxJumps times a run.
// Alg. 1 line 8 jumps, or stops with no jump left, once the gradient RMS
// falls below th_g = gradTol, or at a seeded run's plateau (plateauTol).
// th_g fires only where the gradient vanishes, as on MOSAIC_exact at
// β = 0 (the β = 0 exact row of the process-window sweep); no run at the
// default β reaches it.
const (
	stepSize   = 1.0
	stepDecay  = 0.97
	jumpFactor = 4.0
	maxJumps   = 2
	gradTol    = 1e-5
)

// plateauTol is the plateau stop of a run that adopted its seed: any
// measurable proxy-objective improvement resets the plateau, so a seeded
// run that begins near its optimum stops after a few iterations instead of
// exhausting MaxIter, and stops only once the descent has literally
// nothing left to gain. A cold run, and a run whose seed the probe
// rejected, has no plateau stop: it is the paper's descent, bit for bit.
const plateauTol = 1e-6

// probeSeed compares the surrogate objective of the warm-start seed
// against the default initialization's, both after the Eq. 8 round trip
// the descent applies (paramsFromMask clamps to (eps, 1-eps), so each
// probe evaluates exactly the mask iteration 0 would see). Ties go to
// the seed: an exact repeat of a library pattern then starts from its
// converged mask. Both probes are forward-only passes: the objective needs
// no adjoint.
func (o *Optimizer) probeSeed(seed, def *grid.Field, models []focusModel, target *grid.Field, samples []geom.Sample) bool {
	sm := maskFromParams(paramsFromMask(seed, seedEps))
	ss := o.evalState(sm, models, target, samples, false)
	seedObj := ss.objective
	ss.release()
	dm := maskFromParams(paramsFromMask(def, initEps))
	ds := o.evalState(dm, models, target, samples, false)
	defObj := ds.objective
	ds.release()
	return seedObj <= defObj
}

// The two clamps of paramsFromMask. The rule-based init is binary and
// gets a wide one. A warm-start seed is an already-converged continuous
// mask, and the wide clamp would pull its saturated pixels back toward
// the threshold — degrading the seed before iteration 0 ever evaluates
// it — so only exact 0/1 (where the logit diverges) are nudged: the
// seeded run's first iterate reproduces the stored mask's quality and
// best-iterate selection can never end below it.
const (
	initEps = 0.02
	seedEps = 1e-12
)

// thetaM is the steepness of the mask relaxation M = sig(thetaM * P)
// (Eq. 8), paper: 4.
const thetaM = 4.0

// paramsFromMask inverts Eq. 8 on a (possibly binary) mask, clamping to
// (eps, 1-eps) so the logit stays finite. The logit is taken once for each run of equal clamped values: a binary
// rule-based mask has two such values, and equal inputs give equal bits.
func paramsFromMask(m *grid.Field, eps float64) *grid.Field {
	p := grid.NewLike(m)
	last, logit := math.NaN(), 0.0 // NaN equals nothing, so pixel 0 takes its logit
	for i, v := range m.Data {
		if v < eps {
			v = eps
		} else if v > 1-eps {
			v = 1 - eps
		}
		if v != last {
			last, logit = v, math.Log(v/(1-v))/thetaM
		}
		p.Data[i] = logit
	}
	return p
}

// maskFromParams applies Eq. 8.
func maskFromParams(p *grid.Field) *grid.Field {
	m := grid.NewLike(p)
	maskFromParamsInto(m.Data, p.Data)
	return m
}

// maskFromParamsInto applies Eq. 8 to the pixels p into dst, letting the
// descent loop reuse one mask buffer across iterations, a row band at a
// time. It is the resist's sigmoid kernel at s = 1, t = 0, whose
// x*1 - 0 is x bit for bit: 1/(1+exp(-thetaM*v)).
func maskFromParamsInto(dst, p []float64) {
	resist.SigmoidInto(dst, p, 1, 0, thetaM)
}

// pixelBands is the number of fixed row bands the proxy band count and the
// step are split into. It is a constant, not the core count: a band is the
// unit a core claims, every pixel is one band's alone, and the only sum
// across bands is an integer count, so no bit depends on it.
const pixelBands = 8

// band returns the pixel range [lo, hi) of row band b of an n x n grid.
func band(b, n int) (lo, hi int) {
	return b * n / pixelBands * n, (b + 1) * n / pixelBands * n
}
