package ilt

import (
	"testing"

	"mosaic/internal/metrics"
)

// TestExploreConvergence is a development aid printing the optimization
// trajectory; it asserts only weakly. Run with -v to inspect.
func TestExploreConvergence(t *testing.T) {
	o, layout := testOptimizer(t, ModeFast)
	o.Cfg.TrackMetrics = true
	o.Cfg.MaxIter = 15
	res, err := run(o, layout)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range res.History {
		t.Logf("iter %2d F=%10.3f Ftgt=%9.3f Fpvb=%9.3f gradRMS=%9.2e EPE=%d PVB=%.0f score=%.0f",
			st.Iter, st.Objective, st.FTarget, st.FPvb, st.GradRMS, st.EPEViolations, st.PVBandNM2, st.Score)
	}
	// Baseline: target as mask.
	target := layout.Rasterize(o.Sim.Cfg.GridSize, o.Sim.Cfg.PixelNM)
	rep0, err := metrics.Evaluate(o.Sim, target, layout, o.metricParams(), 0)
	if err != nil {
		t.Fatal(err)
	}
	repOpt, err := metrics.Evaluate(o.Sim, res.Mask, layout, o.metricParams(), 0)
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
