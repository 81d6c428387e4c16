package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"mosaic"
	"mosaic/internal/artifact"
	"mosaic/internal/cache"
	"mosaic/internal/fft"
	"mosaic/internal/grid"
	"mosaic/internal/ilt"
	"mosaic/internal/metrics"
	"mosaic/internal/sim"
	"mosaic/internal/sraf"
	"mosaic/internal/tile"
	"mosaic/internal/warmstart"
)

// The layer probes time calls into one layer at a time, from outside, on
// the layout the workload's operation 0 used. They run after the traced
// phase, one caller, nothing else running.

// timeMedian calls fn n times (after one untimed call) and returns the
// median duration in seconds.
func timeMedian(n int, fn func()) float64 {
	fn()
	d := make([]float64, n)
	for i := range d {
		t0 := time.Now()
		fn()
		d[i] = time.Since(t0).Seconds()
	}
	return percentile(d, 0.5)
}

// captureRunner optimizes tiles in-process and keeps the requests and
// results, so the store probes work on exactly what the pipeline hands
// its decorators.
type captureRunner struct {
	mu   sync.Mutex
	reqs []*tile.Request
	res  []*ilt.Result
}

func (c *captureRunner) LocalCompute() bool { return true }

func (c *captureRunner) RunTile(ctx context.Context, req *tile.Request) (*ilt.Result, error) {
	res, err := runWindow(ctx, req, req.Cfg)
	if err == nil {
		cp := *req
		c.mu.Lock()
		c.reqs = append(c.reqs, &cp)
		c.res = append(c.res, res)
		c.mu.Unlock()
	}
	return res, err
}

// probeLayers fills vals with every probe-measured per-layer metric.
func probeLayers(e *env, layout *mosaic.Layout, vals map[string]float64) error {
	s, err := e.untimedSetup(coreNM, true)
	if err != nil {
		return err
	}
	ws, err := windowSim(s)
	if err != nil {
		return err
	}
	px, n := e.size.PixelNM, ws.Cfg.GridSize
	ms := func(sec float64) float64 { return sec * 1e3 }
	us := func(sec float64) float64 { return sec * 1e6 }

	// fft: the pruned transforms at three grid sizes (8 nm pixels, so the
	// band half-width grows with the field), against the full reference
	// inverse.
	for _, g := range []int{128, 256, 512} {
		ocfg := mosaic.DefaultOptics()
		ocfg.GridSize, ocfg.PixelNM = g, 8
		k := ocfg.BandLimitK()
		r := stream(e.seed, "probe/fft", g)
		real := grid.New(g, g)
		for i := range real.Data {
			real.Data[i] = r.Float64()
		}
		blk := grid.NewC(2*k+1, 2*k+1)
		dst := grid.NewC(g, g)
		size := strconv.Itoa(g)
		vals["fft.fwd_real_band_us."+size] = us(timeMedian(200, func() { fft.ForwardBandLimitedReal(real, k, blk) }))
		vals["fft.inv_band_us."+size] = us(timeMedian(200, func() { fft.InverseBandLimited(blk, g, g, dst) }))
		if g == 256 {
			vals["fft.ref_inverse2d_us.256"] = us(timeMedian(200, func() { fft.Inverse2D(dst) }))
		}
	}

	// geom, sraf, sim, resist, metrics on the whole clip at the window grid.
	var target *mosaic.Field
	vals["geom.rasterize_ms"] = ms(timeMedian(50, func() { target = layout.Rasterize(n, px) }))
	vals["geom.sample_points_ms"] = ms(timeMedian(50, func() { layout.SamplePoints(s.Params.EPESampleNM) }))
	vals["sraf.apply_ms"] = ms(timeMedian(20, func() { sraf.Apply(target, px, sraf.DefaultRules()) }))
	corners := sim.ProcessCorners(s.Params.DefocusNM, s.Params.DoseDelta)
	var aerial *mosaic.Field
	var simErr error
	vals["sim.aerial_ms.nominal"] = ms(timeMedian(30, func() { aerial, simErr = ws.Aerial(target, sim.Nominal()) }))
	vals["sim.aerial_ms.defocus"] = ms(timeMedian(30, func() { _, simErr = ws.Aerial(target, corners[1]) }))
	vals["sim.aerial_combined_ms"] = ms(timeMedian(50, func() { _, simErr = ws.AerialCombined(target, sim.Nominal()) }))
	if simErr != nil {
		return simErr
	}
	printed := grid.New(n, n)
	vals["resist.sigmoid_us"] = us(timeMedian(200, func() { ws.Resist.PrintSigmoidInto(printed, aerial, 1) }))
	var evalErr error
	vals["metrics.evaluate_ms"] = ms(timeMedian(10, func() { _, evalErr = metrics.Evaluate(ws, target, layout, s.Params, 0) }))
	if evalErr != nil {
		return evalErr
	}

	// tile: plan, clip, stitch, tiled evaluate.
	var plan *tile.Plan
	var planErr error
	vals["tile.plan_ms"] = ms(timeMedian(30, func() { plan, planErr = windowPlan(s, layout) }))
	if planErr != nil {
		return planErr
	}
	win := mosaic.Rect{X: -256, Y: -256, W: clipNM, H: clipNM}
	vals["geom.window_clip_ms"] = ms(timeMedian(100, func() { layout.Window("probe", win) }))

	// One real sharded run hands the probes its requests and results.
	cfg := mosaic.DefaultConfig(mosaic.ModeFast)
	cfg.MaxIter = 2
	capt := &captureRunner{}
	lr, err := s.OptimizeLayout(context.Background(), cfg, layout, mosaic.TileOptions{TileNM: coreNM, Runner: capt})
	if err != nil {
		return err
	}
	if len(capt.reqs) == 0 {
		return fmt.Errorf("probe layout %s has no non-empty tile", layout.Name)
	}
	vals["tile.stitch_ms"] = ms(timeMedian(30, func() { plan.Stitch(lr.Tiles, plan.HaloNM/2) }))
	vals["tile.evaluate_ms"] = ms(timeMedian(5, func() { _, evalErr = plan.Evaluate(ws, lr.Mask, s.Params, 0) }))
	if evalErr != nil {
		return evalErr
	}
	req, res := capt.reqs[0], capt.res[0]

	// cache: key digest, both hit tiers, the write path.
	dir := filepath.Join(e.dir, "probe")
	store, err := cache.Open(cache.Options{Dir: filepath.Join(dir, "cache")})
	if err != nil {
		return err
	}
	var key cache.Key
	vals["cache.key_us"] = us(timeMedian(200, func() { key = cache.RequestKey(req) }))
	n64 := uint64(0)
	vals["cache.put_ms"] = ms(timeMedian(20, func() {
		n64++
		k := key
		binary.LittleEndian.PutUint64(k[:], n64)
		store.Put(k, res)
	}))
	store.Put(key, res)
	compute := func() (*ilt.Result, error) { return nil, fmt.Errorf("probe entry missing") }
	var hitErr error
	ctx := context.Background()
	vals["cache.hit_mem_us"] = us(timeMedian(200, func() { _, _, hitErr = store.GetOrCompute(ctx, key, compute) }))
	diskOnly, err := cache.Open(cache.Options{Dir: filepath.Join(dir, "cache"), MemBytes: -1})
	if err != nil {
		return err
	}
	vals["cache.hit_disk_us"] = us(timeMedian(50, func() { _, _, hitErr = diskOnly.GetOrCompute(ctx, key, compute) }))
	if hitErr != nil {
		return hitErr
	}

	// warmstart: signature, harvest of each distinct window, seeded lookup.
	lib, err := warmstart.Open(warmstart.Options{Dir: filepath.Join(dir, "warmstart"), Harvest: true})
	if err != nil {
		return err
	}
	wl := req.Tile.Layout
	vals["warmstart.signature_us"] = us(timeMedian(200, func() { warmstart.Compute(wl, n, px) }))
	var finish []float64
	for i, r := range capt.reqs {
		_, att := lib.Prepare(lib.Epoch(), r.Cfg, ws, n, px, r.Tile.Layout)
		t0 := time.Now()
		att.Finish(capt.res[i])
		finish = append(finish, time.Since(t0).Seconds())
	}
	vals["warmstart.finish_ms"] = ms(percentile(finish, 0.5))
	vals["warmstart.prepare_ms"] = ms(timeMedian(20, func() { lib.Prepare(lib.Epoch(), req.Cfg, ws, n, px, wl) }))

	// artifact: encode, blob write, anchored commit, re-proof.
	art, err := artifact.Open(filepath.Join(dir, "artifact"))
	if err != nil {
		return err
	}
	defer art.Close()
	var payload []byte
	var artErr error
	vals["artifact.encode_ms"] = ms(timeMedian(50, func() { payload, artErr = artifact.EncodeResult(res) }))
	if artErr != nil {
		return artErr
	}
	var blob artifact.Digest
	vals["artifact.putblob_ms"] = ms(timeMedian(20, func() {
		n64++
		blob, artErr = art.PutBlob(binary.LittleEndian.AppendUint64(payload, n64))
	}))
	var rec *artifact.Record
	vals["artifact.commit_ms"] = ms(timeMedian(10, func() {
		n64++
		rec, artErr = art.Commit("probe"+strconv.FormatUint(n64, 10), []byte(`{"probe":true}`), []artifact.Leaf{{Blob: blob}})
	}))
	if artErr != nil {
		return artErr
	}
	vals["artifact.verify_ms"] = ms(timeMedian(10, func() {
		if rep := art.Verify(rec); !rep.OK {
			artErr = fmt.Errorf("probe artifact failed verification: %+v", rep.Failures)
		}
	}))
	return artErr
}

// probeFFTBudget measures the pruned transforms one optimizer iteration
// costs, as the difference between two untiled runs that differ only in
// their iteration budget, and compares it with the model
//
//	inverse = C*(G+1), forward = 1 + C*G
//
// for C process corners and G = min(GradKernels, SOCS order) gradient
// kernels: per iteration one real-input forward of the mask, per corner G
// pruned inverses for the kernel fields, G forwards of the adjoint terms
// and one inverse of their frequency-domain sum.
func probeFFTBudget(e *env, layout *mosaic.Layout, mode mosaic.Mode, vals map[string]float64) error {
	s, err := e.untimedSetup(clipNM, false)
	if err != nil {
		return err
	}
	cfg := mosaic.DefaultConfig(mode)
	run := func(maxIter int) (inv, fwd, iters float64, err error) {
		cfg.MaxIter = maxIter
		before := counters()
		_, err = s.Optimize(cfg, layout)
		after := counters()
		return after["fft_pruned_inverse_total"] - before["fft_pruned_inverse_total"],
			after["fft_pruned_forward_total"] - before["fft_pruned_forward_total"],
			after["ilt_iterations_total"] - before["ilt_iterations_total"], err
	}
	inv4, fwd4, it4, err := run(4)
	if err != nil {
		return err
	}
	inv8, fwd8, it8, err := run(8)
	if err != nil {
		return err
	}
	if it8 == it4 {
		return fmt.Errorf("fft budget: both runs took %g iterations", it4)
	}
	inv, fwd := (inv8-inv4)/(it8-it4), (fwd8-fwd4)/(it8-it4)

	ks, err := s.Sim.Kernels(0)
	if err != nil {
		return err
	}
	corners := float64(len(sim.ProcessCorners(cfg.DefocusNM, cfg.DoseDelta)))
	g := float64(min(cfg.GradKernels, len(ks.Freqs)))
	vals["fft.pruned_inverse_per_iter"] = inv
	vals["fft.pruned_forward_per_iter"] = fwd
	vals["fft.budget_excess_per_iter"] = inv - corners*(g+1) + fwd - (1 + corners*g)
	return nil
}
