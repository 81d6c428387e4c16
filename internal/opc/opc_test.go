package opc

import (
	"testing"

	"mosaic/internal/geom"
	"mosaic/internal/ilt"
	"mosaic/internal/metrics"
	"mosaic/internal/optics"
	"mosaic/internal/resist"
	"mosaic/internal/sim"
)

func testEnv(t *testing.T) (*sim.Simulator, *geom.Layout) {
	t.Helper()
	c := optics.Default()
	c.GridSize = 64
	c.PixelNM = 8
	c.Kernels = 6
	s, err := sim.New(c, resist.Default())
	if err != nil {
		t.Fatal(err)
	}
	thr, err := s.CalibrateThreshold()
	if err != nil {
		t.Fatal(err)
	}
	s.Resist.Threshold = thr
	layout := &geom.Layout{
		Name:   "opc-test",
		SizeNM: 512,
		Polys: []geom.Polygon{
			geom.Rect{X: 160, Y: 144, W: 96, H: 224}.Polygon(),
			geom.Rect{X: 312, Y: 144, W: 56, H: 224}.Polygon(),
		},
	}
	return s, layout
}

func TestNames(t *testing.T) {
	cases := map[Method]string{
		NewRuleBased():           "RuleBased",
		NewModelBased():          "ModelBased",
		NewPlainILT():            "PlainILT",
		NewMOSAIC(ilt.ModeFast):  "MOSAIC_fast",
		NewMOSAIC(ilt.ModeExact): "MOSAIC_exact",
	}
	for m, want := range cases {
		if m.Name() != want {
			t.Errorf("%T.Name() = %s, want %s", m, m.Name(), want)
		}
	}
}

func TestRuleBased(t *testing.T) {
	s, layout := testEnv(t)
	mask, err := NewRuleBased().Optimize(s, layout)
	if err != nil {
		t.Fatal(err)
	}
	target := layout.Rasterize(s.Cfg.GridSize, s.Cfg.PixelNM)
	if mask.Sum() <= target.Sum() {
		t.Fatal("rule-based OPC added nothing")
	}
}

func TestModelBasedImprovesEPE(t *testing.T) {
	s, layout := testEnv(t)
	mp := metrics.DefaultParams()
	target := layout.Rasterize(s.Cfg.GridSize, s.Cfg.PixelNM)
	rep0, err := metrics.Evaluate(s, target, layout, mp, 0)
	if err != nil {
		t.Fatal(err)
	}
	mask, err := NewModelBased().Optimize(s, layout)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := metrics.Evaluate(s, mask, layout, mp, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.EPEViolations > rep0.EPEViolations {
		t.Fatalf("model-based OPC made EPE worse: %d -> %d", rep0.EPEViolations, rep.EPEViolations)
	}
	if rep.EPEViolations == rep0.EPEViolations && rep.Score >= rep0.Score {
		t.Fatalf("model-based OPC did not improve: score %g -> %g", rep0.Score, rep.Score)
	}
}

func TestPlainILTRuns(t *testing.T) {
	s, layout := testEnv(t)
	p := NewPlainILT()
	p.Cfg.MaxIter = 5
	mask, err := p.Optimize(s, layout)
	if err != nil {
		t.Fatal(err)
	}
	if mask.Sum() == 0 {
		t.Fatal("plain ILT produced an empty mask")
	}
}

func TestMOSAICMethod(t *testing.T) {
	s, layout := testEnv(t)
	m := NewMOSAIC(ilt.ModeFast)
	m.Cfg.MaxIter = 5
	mask, err := m.Optimize(s, layout)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range mask.Data {
		if v != 0 && v != 1 {
			t.Fatal("MOSAIC mask not binary")
		}
	}
}

func TestFragments(t *testing.T) {
	layout := &geom.Layout{
		Name:   "f",
		SizeNM: 512,
		Polys:  []geom.Polygon{geom.Rect{X: 100, Y: 100, W: 120, H: 80}.Polygon()},
	}
	fr := fragments(layout, 40)
	// 120 nm edges get 3 fragments, 80 nm edges get 2: total 10.
	if len(fr) != 10 {
		t.Fatalf("%d fragments, want 10", len(fr))
	}
	for _, f := range fr {
		if f.biasNM != 0 {
			t.Fatal("fresh fragment with nonzero bias")
		}
	}
}

func TestApplyBiasesGrow(t *testing.T) {
	s, layout := testEnv(t)
	px := s.Cfg.PixelNM
	base := layout.Rasterize(s.Cfg.GridSize, px)
	fr := fragments(layout, 40)
	for i := range fr {
		fr[i].biasNM = 16 // grow everywhere
	}
	grown := applyBiases(base, fr, px)
	if grown.Sum() <= base.Sum() {
		t.Fatal("positive bias did not grow the mask")
	}
	for i := range fr {
		fr[i].biasNM = -16
	}
	shrunk := applyBiases(base, fr, px)
	if shrunk.Sum() >= base.Sum() {
		t.Fatal("negative bias did not shrink the mask")
	}
}

func TestMethodsRejectInvalidLayout(t *testing.T) {
	s, _ := testEnv(t)
	bad := &geom.Layout{Name: "bad", SizeNM: 512, Polys: []geom.Polygon{
		{{X: 0, Y: 0}, {X: 5, Y: 5}, {X: 5, Y: 0}, {X: 0, Y: 5}},
	}}
	for _, m := range []Method{NewRuleBased(), NewModelBased(), NewPlainILT()} {
		if _, err := m.Optimize(s, bad); err == nil {
			t.Errorf("%s accepted an invalid layout", m.Name())
		}
	}
}

func TestMOSAICInvalidConfig(t *testing.T) {
	s, layout := testEnv(t)
	m := NewMOSAIC(ilt.ModeFast)
	m.Cfg.Beta = -1
	if _, err := m.Optimize(s, layout); err == nil {
		t.Fatal("invalid optimizer config accepted")
	}
}
