package ilt

import (
	"testing"

	"mosaic/internal/grid"
	"mosaic/internal/metrics"
	"mosaic/internal/vectorize"
)

func TestSmoothObjectiveValues(t *testing.T) {
	// Uniform mask: zero roughness.
	o, layout := testOptimizer(t, ModeFast)
	_ = o
	target := layout.Rasterize(64, 8)
	uniform := target.Clone().Fill(0.5)
	if got := smoothObjective(uniform); got != 0 {
		t.Fatalf("uniform mask roughness %g", got)
	}
	// Binary pattern has positive roughness equal to twice the boundary
	// length in pixel transitions... simply: positive.
	if got := smoothObjective(target); got <= 0 {
		t.Fatalf("patterned mask roughness %g", got)
	}
}

func TestSmoothWeightTradesComplexityForFidelity(t *testing.T) {
	// run returns the mask's VSB shot count — the exact rectangle cover
	// cmd/mosaic prints — and its contest score.
	run := func(w float64) (int, float64) {
		o, layout := testOptimizer(t, ModeFast)
		o.Cfg.SmoothWeight = w
		o.Cfg.MaxIter = 12
		res, err := o.Run(layout)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := metrics.Evaluate(o.Sim, res.Mask, layout, o.metricParams(), 0)
		if err != nil {
			t.Fatal(err)
		}
		return len(vectorize.Rectangles(res.Mask, o.Sim.Cfg.PixelNM)), rep.Score
	}
	// A strong weight must visibly simplify the mask; mild weights are in
	// the per-run noise on this coarse test grid.
	rough, roughScore := run(0)
	smooth, smoothScore := run(32)
	t.Logf("λ = 0: %d shots, score %g; λ = 32: %d shots, score %g", rough, roughScore, smooth, smoothScore)
	if smooth >= rough {
		t.Fatalf("regularizer did not reduce mask shots: %d -> %d", rough, smooth)
	}
	// ...and it costs image fidelity: the unregularized run scores better.
	if roughScore >= smoothScore {
		t.Fatalf("expected a fidelity cost: score %g (w=0) vs %g (w=32)",
			roughScore, smoothScore)
	}
}

// smoothSink keeps the benchmarked objective from being dead-code
// eliminated.
var smoothSink float64

func BenchmarkSmooth(b *testing.B) {
	m := grid.New(512, 512)
	for i := range m.Data {
		m.Data[i] = float64(i%7) / 7
	}
	g := grid.NewLike(m)
	b.Run("objective", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			smoothSink = smoothObjective(m)
		}
	})
	b.Run("gradient", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			smoothGradient(g, m, 0.5)
		}
	})
}
