package ilt

import (
	"testing"

	"mosaic/internal/metrics"
)

// TestExploreConvergence is a development aid printing the optimization
// trajectory; it asserts only weakly. Run with -v to inspect.
func TestExploreConvergence(t *testing.T) {
	o, layout := testOptimizer(t, ModeFast)
	o.Cfg.MaxIter = 15
	o.Cfg.OnIter = func(st IterStats) {
		t.Logf("iter %2d F=%10.3f Ftgt=%9.3f Fpvb=%9.3f gradRMS=%9.2e proxy EPE=%d PVB=%.0f score=%.0f",
			st.Iter, st.Objective, st.FTarget, st.FPvb, st.GradRMS, st.ProxyEPE, st.ProxyPVBandNM2, st.ProxyScore)
	}
	res, err := run(o, layout)
	if err != nil {
		t.Fatal(err)
	}
	// Baseline: target as mask.
	target := layout.Rasterize(o.Sim.Cfg.GridSize, o.Sim.Cfg.PixelNM)
	rep0, err := metrics.Evaluate(o.Sim, target, layout, metrics.DefaultParams(), 0)
	if err != nil {
		t.Fatal(err)
	}
	repOpt, err := metrics.Evaluate(o.Sim, res.Mask, layout, metrics.DefaultParams(), 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("no-OPC:  EPE=%d PVB=%.0f score=%.0f", rep0.EPEViolations, rep0.PVBandNM2, rep0.Score)
	t.Logf("MOSAIC:  EPE=%d PVB=%.0f score=%.0f (iters=%d, %.2fs)",
		repOpt.EPEViolations, repOpt.PVBandNM2, repOpt.Score, res.Iterations, res.RuntimeSec)
	if repOpt.Score > rep0.Score {
		t.Errorf("optimization made the score worse: %.0f -> %.0f", rep0.Score, repOpt.Score)
	}
}
